import json

import pytest

from resmoteboost import POSITIVE, load_csv, mix_seed
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

    def test_gen_reports_ir_below_one_when_positives_outnumber(self, tmp_path, capsys):
        assert run_cli(["gen", "--n-maj", "10", "--n-min", "40",
                        "--out", str(tmp_path / "g.csv")]) == 0
        assert capsys.readouterr().out.endswith("(IR 0.25)\n")

    def test_negative_seed_errors(self, tmp_path, capsys):
        code = run_cli(["gen", "--n-maj", "10", "--n-min", "5", "--seed", "-1",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"

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

    @pytest.mark.parametrize("fresh", [False, True])
    def test_sidecar_records_each_dumped_synthetic(self, tmp_path, fresh):
        # one provenance record per synthetic row of the dumped pool, in row
        # order, also when --fresh-pools drops each round's synthetics
        data_csv, out, dump = tmp_path / "blobs.csv", tmp_path / "r.json", tmp_path / "pool.csv"
        run_cli(["gen", "--n-maj", "120", "--n-min", "30", "--seed", "0", "--out", str(data_csv)])
        assert run_cli(["run", "--data", str(data_csv), "--method", "re_smoteboost",
                        "--replications", "1", "--seed", "0", "--out", str(out),
                        "--dump-resampled", str(dump)] + ["--fresh-pools"] * fresh) == 0
        data = load_csv(data_csv, "label", "pos")
        test_idx = json.loads(out.read_text())["replications"][0]["test_indices"]
        n_train_min = data.n_positive - int((data.y[test_idx] == POSITIVE).sum())
        dumped = load_csv(dump, "label", "pos")
        synthetic = dumped.X[dumped.y == POSITIVE][n_train_min:]
        records = json.loads((tmp_path / "pool.csv.provenance.json").read_text())["synthetics"]
        assert len(synthetic) > 0
        assert [r["x"] for r in records] == synthetic.tolist()

    @pytest.mark.parametrize("method", ["re_smoteboost", "smote"])
    def test_dump_resampled_runs_each_replication_once(self, blob_csv, tmp_path,
                                                        started_replications, method):
        dump = tmp_path / "resampled.csv"
        assert run_cli(["run", "--data", str(blob_csv), "--method", method,
                        "--replications", "3", "--t-max", "3", "--k", "4",
                        "--out", str(tmp_path / "r.json"), "--dump-resampled", str(dump)]) == 0
        assert started_replications == [0, 1, 2]
        assert dump.exists() and (tmp_path / "resampled.csv.provenance.json").exists()

    def test_positive_majority_errors_in_one_line(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--positive-label", "neg",
                        "--replications", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the positive class (60 rows) outnumbers")
        assert "--positive-label" in err and err.count("\n") == 1
        assert not out.exists()

    def test_positive_majority_with_k_fraction_errors_in_one_line(self, blob_csv, tmp_path,
                                                                  capsys):
        # the gap is negative here; k is still converted, and the run still refuses
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--positive-label", "neg",
                        "--method", "re_smoteboost", "--k-fraction", "0.5",
                        "--replications", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the positive class (60 rows) outnumbers")
        assert err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("cv", [[], ["--cv", "3"]])
    def test_negative_seed_errors_before_any_replication(self, blob_csv, tmp_path, capsys, cv):
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--replications", "2", "--seed", "-1",
                        *cv, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_cv_out_of_range_errors(self, blob_csv, tmp_path, capsys):
        for folds in ("1", "21"):    # the fixture has 20 minority rows
            code = run_cli(["run", "--data", str(blob_csv), "--cv", folds,
                            "--out", str(tmp_path / "r.json")])
            assert code == 1
            assert "cv_folds" in capsys.readouterr().err

    def test_one_class_split_leaves_auc_blank(self, tmp_path):
        data = tmp_path / "few.csv"
        run_cli(["gen", "--n-maj", "200", "--n-min", "6", "--sep", "1.5", "--seed", "0",
                 "--out", str(data)])
        out = tmp_path / "r.json"
        assert run_cli(["run", "--data", str(data), "--no-stratify", "--replications", "30",
                        "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        missing = {r["replication"] for r in report["replications"] if "auc" not in r["metrics"]}
        assert missing
        rows = (tmp_path / "r_replications.csv").read_text().splitlines()[1:]
        assert {int(row.split(",")[0]) for row in rows if row.endswith(",")} == missing

    def test_missing_file_errors(self, tmp_path, capsys):
        code = run_cli(["run", "--data", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_method_rejected_by_parser(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["run", "--data", str(blob_csv), "--method", "bogus",
                     "--out", str(tmp_path / "o.json")])

    def test_k_and_k_fraction_are_exclusive(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--data", str(blob_csv), "--k", "3", "--k-fraction", "0.5",
                     "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (("--k-fraction", "0"), "--k-fraction must be > 0"),
        (("--k-fraction", "-1"), "--k-fraction must be > 0"),
        (("--k-fraction", "nan"), "--k-fraction must be > 0"),
        (("--k", "0"), "k must be None or >= 1"),
        (("--k-neighbors", "0"), "k_neighbors must be >= 1"),
    ])
    def test_bad_k_values_error_in_one_line(self, blob_csv, tmp_path, capsys, extra, message):
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--method", "smote",
                        "--replications", "2", *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["inf", "1e308"])
    def test_k_fraction_whose_k_overflows_errors_in_one_line(self, blob_csv, tmp_path, capsys,
                                                             fraction):
        # round(fraction * gap) would raise OverflowError
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--method", "smote",
                        "--replications", "2", "--k-fraction", fraction, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: --k-fraction must be > 0 and finite, got {float(fraction)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method, k, n_maj, n_min", [
        # round 0 prunes the 48 training majority rows to 9 and adds 39 synthetics
        ("re_smoteboost", "39", 9, 16 + 39),
        ("rusboost", "100", 1, 16),
    ])
    def test_failed_boosting_names_round_k_and_pool(self, blob_csv, tmp_path, capsys,
                                                    method, k, n_maj, n_min):
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--method", method,
                        "--replications", "1", "--k", k, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: boosting failed: no base learner achieved error < 0.5 in round 0 "
                       f"(k={k}, pool of {n_maj} majority and {n_min} minority rows)\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["re_smoteboost", "smote"])
    @pytest.mark.parametrize("extra, message", [
        (("--t-max", "abc"), "error: --t-max must be 'heuristic' or an integer >= 1, got 'abc'"),
        (("--t-max", "0"), "error: --t-max must be 'heuristic' or an integer >= 1, got '0'"),
        (("--t-max", "2.5"), "error: --t-max must be"),
        (("--replications", "0"), "error: replications must be an integer >= 1, got 0"),
    ])
    def test_bad_rounds_and_replications_error_in_one_line(self, blob_csv, tmp_path, capsys,
                                                           method, extra, message):
        out = tmp_path / "o.json"
        code = run_cli(["run", "--data", str(blob_csv), "--method", method,
                        "--replications", "2", *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()


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
