"""CLI settings: one table per command types its config values and flags."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from sdecub.cli import (
    _BENCH_DEFAULTS,
    _ESTIMATE_DEFAULTS,
    _PREPROCESS_DEFAULTS,
    _TRAIN_DEFAULTS,
    EXIT_CONFIG,
    EXIT_OK,
    build_parser,
    main,
)

# a bench sweep small enough for a unit test
BENCH = {"mc_ns": [10], "mc_replicates": 1, "mc_grid": 8, "cub_ks": [1],
         "field": "brownian", "sigma": 1.0, "steps_per_segment": 2}


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


class TestConfigTyping:
    """Each config-file value takes its setting's type, which the setting's
    default gives; a value of another type is a config error, raised before
    the first output is written."""

    def run(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        return main([command, "--config", str(cfg), "--out", str(out)]), out

    def test_non_integral_k_is_config_error(self, tmp_path, capsys):
        config = {"k": 2.5, "mc_paths": 4, "mc_grid": 8, "field": "brownian"}
        code, out = self.run(tmp_path, "estimate", config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameter: ")
        assert "'k' takes an integral number, got 2.5" in err
        assert not (out / "manifest.json").exists()

    def test_integral_float_runs_as_int(self, tmp_path):
        config = {"k": 2.0, "mc_paths": 4.0, "mc_grid": 8, "field": "brownian",
                  "steps_per_segment": 2}
        code, out = self.run(tmp_path, "estimate", config)
        assert code == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["settings"]["k"] == 2
        assert manifest["results"]["n_leaves"] == 9  # 3 paths per interval, k=2

    def test_string_lr_is_config_error(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "train", {"lr": "abc", "k": 2, "epochs": 1})
        assert code == EXIT_CONFIG
        assert "'lr' takes a finite number, got \"abc\"" in capsys.readouterr().err
        assert not (out / "data.csv").exists()

    def test_string_mc_replicates_is_config_error(self, tmp_path, capsys):
        config = BENCH | {"mc_replicates": "x"}
        code, out = self.run(tmp_path, "bench", config)
        assert code == EXIT_CONFIG
        assert "'mc_replicates' takes an integral number, got \"x\"" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize(
        "key, value", [("mc_ns", [10, 2.5]), ("mc_ns", 10), ("cub_ks", [True]), ("sigma", "1")]
    )
    def test_bench_values_of_another_type(self, tmp_path, capsys, key, value):
        config = BENCH | {key: value}
        code, _ = self.run(tmp_path, "bench", config)
        assert code == EXIT_CONFIG
        assert f"config key {key!r} takes " in capsys.readouterr().err

    def test_boolean_oracle_is_config_error(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "bench", BENCH | {"oracle": True})
        assert code == EXIT_CONFIG
        assert "OracleUnavailable: unknown oracle mode True" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    def test_malformed_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 3,')
        code = main(["estimate", "--config", str(bad), "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: config file {bad} is not valid JSON: ")
        assert "line 1 column 9" in err
        assert not (tmp_path / "e" / "manifest.json").exists()


class TestFieldPresets:
    def test_bench_on_drift_only_preset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": "drift_only", "oracle": 0.5, "mc_ns": [10],
                                   "mc_replicates": 1, "cub_ks": [1], "mc_grid": 8}))
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert code == EXIT_OK
        rows = (tmp_path / "b" / "bench.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [["mc", "10"], ["cubature", "3"]]

    def test_unknown_preset_of_another_type_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": ["brownian"]}))
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert "unknown field preset ['brownian']" in capsys.readouterr().err


def subcommand_parsers() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestWorkerCount:
    """0 workers means all cores; a negative count is a config error, raised
    before the first output is written."""

    def test_negative_estimate_workers_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["estimate", "--field", "brownian", "--k", "2", "--mc-paths", "4",
                     "--mc-grid", "8", "--workers", "-3", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameter: ") and "got -3" in err
        assert not (out / "manifest.json").exists()

    def test_negative_bench_workers_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BENCH | {"workers": -1}))
        out = tmp_path / "out"
        code = main(["bench", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "workers must be >= 0 (0 means all cores), got -1" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()


class TestSettingFlags:
    TABLES = {
        "preprocess": (_PREPROCESS_DEFAULTS, 6),
        "estimate": (_ESTIMATE_DEFAULTS, 12),
        "bench": (_BENCH_DEFAULTS, 11),
        "train": (_TRAIN_DEFAULTS, 14),
    }

    @pytest.mark.parametrize("command", sorted(TABLES))
    def test_every_flag_is_a_typed_setting(self, command):
        defaults, count = self.TABLES[command]
        actions = [
            a for a in subcommand_parsers()[command]._actions
            if a.dest not in ("help", "config", "out", "formula")
        ]
        assert len(actions) == count
        for action in actions:
            assert action.dest in defaults
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
            assert action.type is type(defaults[action.dest])
            assert action.default is None  # an absent flag leaves the table's value
            for choice in action.choices or ():
                assert type(choice) is type(defaults[action.dest])


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" examples."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["sdecub"]:
            commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert [c[0] for c in commands] == ["formula", "preprocess", "estimate", "bench", "train"]
    for argv in commands:
        build_parser().parse_args(argv)  # exits 2 on a flag that does not exist
