"""CLI subcommands: exit codes, artifacts, manifests, reproducibility."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sdecub import (
    TestBasis,
    degree5_formula,
    make_partition,
    mc_estimate,
    preprocess,
    sine_tracking_functional,
)
from sdecub.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _stage_seed, main
from sdecub.fields import brownian_field


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
        first, *middle, last = manifest["results"]["moment_defects"]
        assert first is None and last is None
        assert len(middle) == 4 and all(d < 1e-10 for d in middle)

    def test_missing_formula_file(self, tmp_path, capsys):
        code = main(
            ["preprocess", "--formula", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "ManifestMismatch" in capsys.readouterr().err

    def test_formula_file_failing_its_degree_is_config_error(self, tmp_path, capsys):
        fdir = tmp_path / "f"
        assert main(["formula", "--degree", "5", "--dim", "1", "--out", str(fdir)]) == EXIT_OK
        doc = json.loads((fdir / "formula.json").read_text())
        doc["paths"][0]["values"][1][1] += 0.1  # move one interior knot
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        pdir = tmp_path / "p"
        code = main(["preprocess", "--formula", str(bad), "--k", "4", "--out", str(pdir)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ManifestMismatch: ") and "fails its degree 5" in err
        assert "defect 8.387e-03 at word (0, 1, 1)" in err
        assert not (pdir / "weight_table.json").exists()

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
        # the same table as the command builds with its defaults; it reduces
        # nothing at k=4, so the q children of each kept prefix, one solve
        # each, are exactly the distinct leaf prefixes
        table = preprocess(
            degree5_formula(1), make_partition(1.0, 4, 0.6), TestBasis(1, 4), p_star=2
        )
        leaves = [tuple(p) for p in table.prefixes(4).tolist()]
        prefixes = sum(len({iv[:i] for iv in leaves}) for i in range(1, 5))
        assert results["n_leaves"] == len(leaves)
        assert results["interval_solves"] == prefixes < 4 * len(leaves)
        # each interval's weighted share of the estimate, beside its row weights
        assert len(results["interval_costs"]) == len(results["interval_weight_range"]) == 4
        assert math.fsum(results["interval_costs"]) == pytest.approx(
            results["cubature"], rel=1e-14
        )

    def test_manifest_records_mc_stderr(self, tmp_path):
        code = main(
            ["estimate", "--field", "brownian", "--k", "2", "--mc-paths", "40",
             "--mc-grid", "8", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        results = read_manifest(tmp_path)["results"]
        mc = mc_estimate(
            sine_tracking_functional(), brownian_field(1.0), 40, 8, seed=_stage_seed(5, "estimate")
        )
        assert (results["mc"], results["mc_stderr"]) == (mc.value, mc.stderr)

    def test_zero_steps_per_segment_is_config_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--field", "brownian", "--k", "2", "--mc-paths", "4",
             "--mc-grid", "8", "--steps-per-segment", "0", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "InvalidParameter" in capsys.readouterr().err

    def test_zero_mc_paths_is_config_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--field", "brownian", "--k", "2", "--mc-paths", "0",
             "--mc-grid", "8", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "InvalidParameter: n_paths must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("T, analytic", [(1.0, 1.0), (2.0, None)])
    def test_analytic_value_only_on_unit_horizon(self, tmp_path, T, analytic):
        # the preset's exact value is for [0, 1]; on [0, 2] brownian sigma=1 gives 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": T}))
        code = main(
            ["estimate", "--config", str(cfg), "--field", "brownian", "--k", "2",
             "--mc-paths", "4", "--mc-grid", "8", "--out", str(tmp_path / "e")]
        )
        assert code == EXIT_OK
        assert read_manifest(tmp_path / "e")["results"]["analytic"] == analytic

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
        assert lines[0] == "epoch,arm,loss,seconds,peak_bytes,reconstruction,mismatch,grad_norm"
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

    def test_divergence_is_numerical_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "n_data": 2, "mc_grid": 20}))
        code = main(["train", "--config", str(cfg), "--lr", "50", "--out", str(tmp_path / "t")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("DivergenceDetected: cubature loss ")
        assert not (tmp_path / "t" / "train_log.csv").exists()

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

    def test_analytic_oracle_on_other_horizon_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"T": 2.0, "mc_ns": [10], "mc_replicates": 1, "mc_grid": 8,
                        "cub_ks": [1], "field": "brownian", "sigma": 1.0})
        )
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("OracleUnavailable: ") and "horizon T = 1 only, got T = 2.0" in err
        assert not (tmp_path / "b" / "bench.csv").exists()


class TestNonPositiveSizesRejected:
    """A size below one or a horizon at or below zero is a config error,
    raised before the first output is written."""

    TRAIN = {"k": 2, "width": 2, "epochs": 1, "n_data": 2, "mc_grid": 8, "data_grid": 8}
    BENCH = {"mc_ns": [10], "mc_replicates": 1, "mc_grid": 8, "cub_ks": [1],
             "field": "brownian", "sigma": 1.0, "steps_per_segment": 2}

    def run(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        return main([command, "--config", str(cfg), "--out", str(out)]), out

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", 0), ("epochs", -1), ("n_data", 0), ("n_data", -1), ("d_x", -1), ("T", -1.0),
         ("width", 0), ("k", 0), ("mc_grid", 0), ("steps_per_segment", 0),
         ("basis_degree", 0), ("p_star", 0), ("gamma", 0), ("gamma", -1.0), ("lr", -1.0),
         ("kl_weight", -1.0)],
    )
    def test_train(self, tmp_path, capsys, key, value):
        code, out = self.run(tmp_path, "train", self.TRAIN | {key: value})
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameter: ") and f"{key} must be" in err
        assert not (out / "data.csv").exists()

    def test_train_at_k1(self, tmp_path):
        # one interval: the table is the formula's two paths, never reduced
        code, out = self.run(tmp_path, "train", self.TRAIN | {"k": 1})
        assert code == EXIT_OK
        assert read_manifest(out)["results"]["n_paths"] == 2

    @pytest.mark.parametrize(
        "key, value", [("T", -1.0), ("mc_replicates", 0), ("mc_replicates", -1)]
    )
    def test_bench(self, tmp_path, capsys, key, value):
        code, out = self.run(tmp_path, "bench", self.BENCH | {key: value})
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameter: ") and f"{key} must be" in err
        assert not (out / "bench.csv").exists()


class TestUnbuiltDegreeRejected:
    """A config file may not ask for a degree no formula is built for: the
    run would solve a degree-3 tree and record the degree asked for."""

    def run(self, tmp_path, command, config, flags=()):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        return main([command, "--config", str(cfg), *flags, "--out", str(out)]), out

    @pytest.mark.parametrize("degree", [1, 4, 7])
    def test_estimate(self, tmp_path, capsys, degree):
        config = {"degree": degree, "k": 2, "mc_paths": 4, "mc_grid": 8, "field": "brownian"}
        code, out = self.run(tmp_path, "estimate", config)
        assert code == EXIT_CONFIG
        assert f"cubature degree must be 3 or 5, got {degree}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_bench(self, tmp_path, capsys):
        config = {"degree": 4, "mc_ns": [10], "mc_replicates": 1, "mc_grid": 8,
                  "cub_ks": [1], "field": "brownian", "sigma": 1.0}
        code, out = self.run(tmp_path, "bench", config)
        assert code == EXIT_CONFIG
        assert "cubature degree must be 3 or 5, got 4" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("degree", [4, 5])
    def test_train(self, tmp_path, capsys, degree):
        code, out = self.run(tmp_path, "train", {"degree": degree, "k": 2, "epochs": 1})
        assert code == EXIT_CONFIG
        assert f"degree-3 formula only, got {degree}" in capsys.readouterr().err
        assert not (out / "train_log.csv").exists()

    def test_estimate_degree3_config_runs(self, tmp_path):
        config = {"degree": 3, "k": 2, "mc_paths": 4, "mc_grid": 8, "field": "brownian"}
        code, out = self.run(tmp_path, "estimate", config)
        assert code == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["settings"]["degree"] == 3
        assert manifest["results"]["n_leaves"] == 4  # 2 paths per interval, k=2
