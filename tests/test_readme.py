"""Every ```python block of README.md runs, each in a fresh namespace."""

import re
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = [code for _, code in re.findall(r"^( *)```python\n(.*?)^\1```$",
                                         README.read_text(encoding="utf-8"),
                                         flags=re.M | re.S)]


def test_readme_has_python_blocks():
    assert len(BLOCKS) == 2   # the library quick start and the double_pruning fragment


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(textwrap.dedent(code), str(README), "exec"), {"__name__": "__readme__"})
