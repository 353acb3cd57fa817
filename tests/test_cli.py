"""CLI subcommands: exit codes, artifacts, manifests, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from sdecub import TestBasis, degree5_formula, make_partition, preprocess
from sdecub.cli import EXIT_CONFIG, EXIT_OK, main


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


class TestFormulaCommand:
    def test_degree3_passes(self, tmp_path, capsys):
        code = main(["formula", "--degree", "3", "--dim", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["passed"] is True
        assert report["max_defect"] <= 1e-12
        assert (tmp_path / "formula.json").exists()

    def test_degree5_path_count(self, tmp_path):
        code = main(["formula", "--degree", "5", "--dim", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["path_count"] == 3

    def test_even_degree_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["formula", "--degree", "4", "--dim", "1", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestPreprocessCommand:
    def test_pipeline(self, tmp_path):
        fdir = tmp_path / "f"
        assert main(["formula", "--degree", "5", "--dim", "1", "--out", str(fdir)]) == EXIT_OK
        pdir = tmp_path / "p"
        code = main(
            [
                "preprocess", "--formula", str(fdir / "formula.json"),
                "--k", "6", "--out", str(pdir),
            ]
        )
        assert code == EXIT_OK
        manifest = read_manifest(pdir)
        assert manifest["results"]["n_leaves"] < 3**6
        assert (pdir / "weight_table.json").exists()

    def test_missing_formula_file(self, tmp_path, capsys):
        code = main(
            ["preprocess", "--formula", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "ManifestMismatch" in capsys.readouterr().err

    def test_k2_identity_weights(self, tmp_path):
        fdir = tmp_path / "f"
        main(["formula", "--degree", "3", "--dim", "1", "--out", str(fdir)])
        pdir = tmp_path / "p"
        main(
            ["preprocess", "--formula", str(fdir / "formula.json"), "--k", "2",
             "--gamma", "1.0", "--out", str(pdir)]
        )
        table = json.loads((pdir / "weight_table.json").read_text())
        weights = sorted(w for _, w in table["intervals"][-1])
        assert weights == [0.25, 0.25, 0.25, 0.25]


class TestEstimateCommand:
    def test_zero_sigma_arms_agree(self, tmp_path):
        code = main(
            ["estimate", "--field", "drift_only", "--k", "3", "--mc-paths", "4",
             "--mc-grid", "800", "--steps-per-segment", "16", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "estimate.csv").read_text().splitlines()[1:]
        values = {r.split(",")[0]: float(r.split(",")[2]) for r in rows}
        assert values["cubature"] == pytest.approx(values["mc"], abs=5e-3)

    def test_manifest_records_interval_solves(self, tmp_path):
        code = main(
            ["estimate", "--field", "brownian", "--k", "4", "--mc-paths", "4",
             "--mc-grid", "8", "--steps-per-segment", "2", "--workers", "1",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        results = read_manifest(tmp_path)["results"]
        # the same table as the command builds with its defaults; one solve
        # per distinct leaf prefix
        table = preprocess(
            degree5_formula(1), make_partition(1.0, 4, 0.6), TestBasis(1, 4), p_star=2
        )
        leaves = table.leaf_weights()
        prefixes = sum(len({iv[:i] for iv in leaves}) for i in range(1, 5))
        assert results["n_leaves"] == len(leaves)
        assert results["interval_solves"] == prefixes < 4 * len(leaves)

    def test_zero_steps_per_segment_is_config_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--field", "brownian", "--k", "2", "--mc-paths", "4",
             "--mc-grid", "8", "--steps-per-segment", "0", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "InvalidParameter" in capsys.readouterr().err

    def test_rerun_reproducible_apart_from_timing(self, tmp_path):
        args = ["estimate", "--field", "brownian", "--k", "4", "--mc-paths", "200",
                "--mc-grid", "32"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK

        def stripped(path):
            rows = (path / "estimate.csv").read_text().splitlines()
            return [",".join(r.split(",")[:3]) for r in rows]

        assert stripped(a) == stripped(b)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "gamma": 1.0}))
        fdir = tmp_path / "f"
        main(["formula", "--degree", "3", "--dim", "1", "--out", str(fdir)])
        pdir = tmp_path / "p"
        code = main(
            ["preprocess", "--formula", str(fdir / "formula.json"),
             "--config", str(cfg), "--k", "4", "--out", str(pdir)]
        )
        assert code == EXIT_OK
        settings = read_manifest(pdir)["settings"]
        assert settings["k"] == 4  # flag wins
        assert settings["gamma"] == 1.0  # file value kept

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        fdir = tmp_path / "f"
        main(["formula", "--degree", "3", "--dim", "1", "--out", str(fdir)])
        code = main(
            ["preprocess", "--formula", str(fdir / "formula.json"),
             "--config", str(cfg), "--out", str(tmp_path / "p")]
        )
        assert code == EXIT_CONFIG


class TestTrainCommand:
    def test_smoke_run_row_count(self, tmp_path):
        code = main(
            ["train", "--epochs", "5", "--k", "3", "--width", "4", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,arm,loss,seconds,peak_bytes"
        assert len(lines) == 1 + 10  # 5 epochs x 2 arms
        assert (tmp_path / "params.json").exists()
        assert (tmp_path / "data.csv").exists()

    def test_cubature_losses_reproducible(self, tmp_path):
        args = ["train", "--epochs", "3", "--k", "3", "--width", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK

        def losses(path):
            rows = (path / "train_log.csv").read_text().splitlines()[1:]
            return [r.split(",")[2] for r in rows]

        assert losses(a) == losses(b)

    def test_zero_mc_grid_is_config_error(self, tmp_path, capsys):
        args = ["train", "--mc-grid", "0", "--epochs", "1", "--k", "3", "--width", "4"]
        assert main(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert "InvalidParameter" in capsys.readouterr().err


class TestBenchCommand:
    def test_tiny_bench(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mc_ns": [10, 100],
                    "mc_replicates": 3,
                    "mc_grid": 64,
                    "cub_ks": [1, 2, 3],
                    "field": "brownian",
                    "sigma": 1.0,
                    "steps_per_segment": 8,
                }
            )
        )
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert code == EXIT_OK
        rows = (tmp_path / "b" / "bench.csv").read_text().splitlines()
        assert rows[0] == "method,n,error,seconds"
        assert len(rows) == 1 + 2 + 3
        manifest = read_manifest(tmp_path / "b")
        assert "mc_slope" in manifest["results"]
