import json

import pytest

from resmoteboost import load_csv, mix_seed
from resmoteboost.cli import main


def run_cli(args):
    return main(list(args))


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    assert run_cli(["gen", "--n-maj", "60", "--n-min", "20", "--dim", "2",
                    "--sep", "2.0", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_csv(self, blob_csv):
        lines = blob_csv.read_text().splitlines()
        assert len(lines) == 81  # header + 80 rows
        assert lines[0] == "f0,f1,label"

    def test_byte_identical_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for p in (a, b):
            run_cli(["gen", "--n-maj", "30", "--n-min", "10",
                     "--seed", "3", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["gen", "--n-maj", "30", "--n-min", "10", "--seed", "3", "--out", str(a)])
        run_cli(["gen", "--n-maj", "30", "--n-min", "10", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_bad_count_errors(self, tmp_path, capsys):
        code = run_cli(["gen", "--n-maj", "0", "--n-min", "5",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestRun:
    def run_small(self, blob_csv, tmp_path, *extra, name="report.json"):
        out = tmp_path / name
        code = run_cli(["run", "--data", str(blob_csv), "--method", "re_smoteboost",
                        "--replications", "5", "--t-max", "3", "--k", "4",
                        "--seed", "11", "--out", str(out), *extra])
        assert code == 0
        return out

    def test_report_structure(self, blob_csv, tmp_path):
        out = self.run_small(blob_csv, tmp_path)
        report = json.loads(out.read_text())
        assert report["config"]["method"] == "re_smoteboost"
        assert len(report["replications"]) == 5
        rep = report["replications"][0]
        assert set(rep["metrics"]) >= {"positive_class", "macro", "auc"}
        assert "positive_class.recall" in report["summaries"]
        for summary in report["summaries"].values():
            assert {"mean", "std_dev"} <= set(summary)

    def test_replications_csv(self, blob_csv, tmp_path):
        out = self.run_small(blob_csv, tmp_path)
        csv_path = tmp_path / "report_replications.csv"
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].split(",")[0] == "replication"
        assert lines[0].split(",")[-1] == "auc"

    def test_rerun_determinism_except_timing(self, blob_csv, tmp_path):
        a = json.loads(self.run_small(blob_csv, tmp_path, name="a.json").read_text())
        b = json.loads(self.run_small(blob_csv, tmp_path, name="b.json").read_text())
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_dump_resampled(self, blob_csv, tmp_path):
        dump = tmp_path / "resampled.csv"
        self.run_small(blob_csv, tmp_path, "--dump-resampled", str(dump))
        assert dump.exists()
        sidecar = json.loads((tmp_path / "resampled.csv.provenance.json").read_text())
        assert "synthetics" in sidecar
        for entry in sidecar["synthetics"]:
            assert 0.0 <= entry["alpha"] <= 1.0

    def run_cv(self, blob_csv, tmp_path, *extra):
        out = tmp_path / "cv.json"
        code = run_cli(["run", "--data", str(blob_csv), "--method", "smote",
                        "--cv", "4", "--t-max", "2", "--k", "4",
                        "--seed", "1", "--out", str(out), *extra])
        assert code == 0
        return json.loads(out.read_text())

    def test_cv_mode(self, blob_csv, tmp_path):
        report = self.run_cv(blob_csv, tmp_path)
        assert len(report["replications"]) == 4
        folds = [rep["test_indices"] for rep in report["replications"]]
        assert sorted(i for fold in folds for i in fold) == list(range(80))
        assert [rep["seed"] for rep in report["replications"]] == [mix_seed(1, i)
                                                                   for i in range(4)]

    def test_cv_dump_resampled_is_fold_zero(self, blob_csv, tmp_path):
        dump = tmp_path / "resampled.csv"
        report = self.run_cv(blob_csv, tmp_path, "--dump-resampled", str(dump))
        fold0 = report["replications"][0]
        data = load_csv(blob_csv, "label", "pos")
        held_out = {tuple(row) for row in data.X[fold0["test_indices"]]}
        dumped = load_csv(dump, "label", "pos")
        assert len(dumped) == fold0["model"]["train_size_after_resampling"]
        assert held_out.isdisjoint(tuple(row) for row in dumped.X)

    def test_missing_file_errors(self, tmp_path, capsys):
        code = run_cli(["run", "--data", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_method_rejected_by_parser(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["run", "--data", str(blob_csv), "--method", "bogus",
                     "--out", str(tmp_path / "o.json")])


class TestCompareOverlap:
    def test_self_comparison_all_ties(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "overlap.json"
        code = run_cli(["compare-overlap", str(blob_csv), str(blob_csv),
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ties"] == 2
        assert payload["count_a_smaller"] == 0
        assert payload["count_b_smaller"] == 0

    def test_counts_partition_dimension(self, blob_csv, tmp_path):
        other = tmp_path / "other.csv"
        run_cli(["gen", "--n-maj", "60", "--n-min", "20", "--sep", "5.0",
                 "--seed", "1", "--out", str(other)])
        out = tmp_path / "overlap.json"
        run_cli(["compare-overlap", str(blob_csv), str(other), "--out", str(out)])
        payload = json.loads(out.read_text())
        total = (payload["count_a_smaller"] + payload["count_b_smaller"]
                 + payload["ties"])
        assert total == 2

    def test_dimension_mismatch_errors(self, blob_csv, tmp_path, capsys):
        other = tmp_path / "d3.csv"
        run_cli(["gen", "--n-maj", "20", "--n-min", "10", "--dim", "3",
                 "--seed", "1", "--out", str(other)])
        code = run_cli(["compare-overlap", str(blob_csv), str(other),
                        "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
