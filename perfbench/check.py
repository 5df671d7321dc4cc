"""Correctness checks applied to every report the benchmark produces."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def report_digest(report: dict) -> str:
    """sha256 of the report minus its `timing` field, in canonical JSON."""
    body = {key: value for key, value in report.items() if key != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, float):
        yield obj


def expected_test_size(y: np.ndarray, test_fraction: float) -> int:
    """Test rows of a stratified split: each class keeps round-half-up of
    its train share and sends the remainder to the test side."""
    size = 0
    for cls in (-1, 1):
        n = int(np.sum(y == cls))
        size += n - int(math.floor((1.0 - test_fraction) * n + 0.5))
    return size


def check_report(report: dict, y: np.ndarray) -> list:
    """Invariants every report must satisfy; returns the problems found.

    * every float in the report, timing aside, is finite;
    * each replication's `test_indices` are unique, in range and as many as
      the test fraction implies;
    * on re_smoteboost rounds the majority pool never grows, the minority
      pool never shrinks, and neither moves by more than k per round.
    """
    problems = []
    body = {key: value for key, value in report.items() if key != "timing"}
    if not all(math.isfinite(v) for v in _numbers(body)):
        problems.append("non-finite number in report")
    cfg = report["config"]
    n_test = expected_test_size(y, cfg["test_fraction"])
    for rep in report["replications"]:
        idx = rep["test_indices"]
        if len(set(idx)) != len(idx) or min(idx) < 0 or max(idx) >= len(y):
            problems.append(f"replication {rep['replication']}: bad test_indices")
        if len(idx) != n_test:
            problems.append(f"replication {rep['replication']}: {len(idx)} test rows, "
                            f"expected {n_test}")
        if cfg["method"] != "re_smoteboost":
            continue
        k = rep["model"]["k"]
        train = np.ones(len(y), dtype=bool)
        train[idx] = False
        prev_maj = int(np.sum(y[train] == -1))
        prev_min = int(np.sum(y[train] == 1))
        for entry in rep["model"]["training_log"]:
            d_maj = prev_maj - entry["n_majority"]
            d_min = entry["n_minority"] - prev_min
            if not (0 <= d_maj <= k and 0 <= d_min <= k):
                problems.append(f"replication {rep['replication']} round {entry['iteration']}: "
                                f"pools moved by -{d_maj}/+{d_min} with k={k}")
            prev_maj, prev_min = entry["n_majority"], entry["n_minority"]
    return problems
