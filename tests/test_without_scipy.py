"""The package runs without scipy installed.

scipy is a test dependency only: the tests compare against its reference
implementations. Here a fresh interpreter blocks every scipy import
(``sys.modules["scipy"] = None`` makes ``import scipy...`` raise
ImportError) and runs every method with every base learner, the exact
roulette wheel and ``rebalance gen``/``rebalance run``.
"""

import os
import subprocess
import sys
from pathlib import Path

import resmoteboost

SCRIPT = """
import sys
sys.modules["scipy"] = None
from resmoteboost import (ExperimentConfig, NEGATIVE, POSITIVE, build_roulette,
                          make_gaussian_blobs, run_experiment)
from resmoteboost.cli import main
from resmoteboost.experiment import METHODS

data = make_gaussian_blobs(24, 8, 2, 1.5, 0)
for method in METHODS:
    for learner in ("stump", "gnb", "knn"):
        run_experiment(data, ExperimentConfig(method=method, base_learner=learner,
                                              replications=1, seed=0))
pos, neg = data.y == POSITIVE, data.y == NEGATIVE
build_roulette(data.X[pos], data.X[neg])
csv, report = sys.argv[1:]
assert main(["gen", "--n-maj", "30", "--n-min", "10", "--seed", "1", "--out", csv]) == 0
assert main(["run", "--data", csv, "--method", "re_smoteboost", "--replications", "2",
             "--out", report]) == 0
print("done")
"""


def test_every_method_and_the_cli_run_with_scipy_blocked(tmp_path):
    src = str(Path(resmoteboost.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT,
         str(tmp_path / "blobs.csv"), str(tmp_path / "report.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "done"
    assert (tmp_path / "report.json").stat().st_size > 0
