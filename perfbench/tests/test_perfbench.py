"""Tests of the benchmark itself. They make no wall-clock assertions.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_identical_per_seed(name):
    workload = WORKLOADS[name]
    a, b, other = workload.make_data(7), workload.make_data(7), workload.make_data(8)
    assert a.X.tobytes() == b.X.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert a.X.tobytes() != other.X.tobytes()


def test_duplicate_grid_has_one_third_duplicate_rows():
    from workloads import input_properties
    props = input_properties(WORKLOADS["boost-knn-dup"].make_data(3))
    assert (props["rows_majority"], props["rows_minority"], props["d"]) == (460, 240, 9)
    assert abs(props["duplicate_row_share"] - 1 / 3) < 0.01
    assert max(props["distinct_values_per_feature"]) <= 10


def _counts(name, seed):
    workload = WORKLOADS[name]
    runner = run.Runner(workload, seed, run.load_digests())
    metrics = run.per_layer(runner, 0.0)
    assert runner.failed == 0
    return {key: value for key, value in metrics.items()
            if UNITS[key] != "s" and not key.startswith("trace.")}


@pytest.mark.parametrize("name, exercised", [
    ("boost-stump", ("boosting.stump_fit.calls", "pruning.spins", "pruning.interpolate.calls")),
    ("baselines", ("samplers.tomek_pairs", "pruning.interpolate.calls")),
])
def test_traced_counts_repeat_exactly(name, exercised):
    first, second = _counts(name, 5), _counts(name, 5)
    assert first == second
    for key in exercised + ("data.rows_copied", "entropy.fit_gnb.calls"):
        assert first[key] > 0, key
    if name == "boost-stump":
        assert first["boosting.learner_fits"] >= first["boosting.rounds"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boost-stump", "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_interaction_map_covers_every_per_layer_metric():
    interactions = json.loads((BENCH / "interactions.json").read_text())
    assert set(interactions) == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in interactions.values():
        assert all(m["metric"] in end_to_end and m["workload"] in workloads
                   for m in row["moves"])
        assert set(row["flat_on"]) <= workloads


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boost-stump", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
