"""The demos print exactly the text recorded here.

Each demo runs in a fresh interpreter on the package in src/, three ways:
plainly, in development mode with every warning an error, and the same
with scipy blocked, since the package needs only numpy. Its stdout must
match byte for byte each time, so a change that moves any printed figure
shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "01_double_pruning_walkthrough.py": """\
before: majority=366 minority=193 IR=1.90
after one k=90 step: majority=276 minority=283
roulette spins=230 accepted=180 retained after noise filter=90
regularization margin (dist_maj - dist_min): min=0.0004 median=0.1554
retained synthetic entropy: min=0.4760 max=0.9992 (filter keeps the most ambiguous points)
""",
    "02_method_comparison.py": """\
method            recall mean  recall std   G-means
plain_boost            0.3433      0.0817    0.4596
rusboost               0.3567      0.1089    0.4467
smoteboost             0.4533      0.1691    0.4816
re_smoteboost          0.5783      0.1394    0.5101
""",
    "03_overlap_analysis.py": """\
feature   original   resampled
f0          0.5129     0.5931
f1          0.0017     0.0001
f2          0.0052     0.0025
f3          0.0019     0.0021

original smaller on 2 features, resampled smaller on 2, ties 0
ratios A: [0.5129 0.0017 0.0052 0.0019]
ratios B: [5.931e-01 1.000e-04 2.500e-03 2.100e-03]
""",
}


STRICT = ["-X", "dev", "-W", "error"]
WITHOUT_SCIPY = ["-c", "import sys, runpy; sys.modules['scipy'] = None; "
                       "runpy.run_path(sys.argv[1], run_name='__main__')"]
MODES = {"": [], "-dev": STRICT, "-dev-no-scipy": STRICT + WITHOUT_SCIPY}


@pytest.mark.parametrize("demo, mode", [pytest.param(demo, mode, id=demo + mode)
                                        for demo in sorted(EXPECTED) for mode in MODES])
def test_demo_stdout(demo, mode):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, *MODES[mode], str(ROOT / "demos" / demo)],
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout == EXPECTED[demo]


def test_every_demo_is_checked():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)
