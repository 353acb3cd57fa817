"""Experiment runner: every pipeline stage as a reproducible subcommand.

Each subcommand reads an optional JSON config file, lets explicit flags win,
writes its results as CSV/JSON plus a manifest sufficient to rerun it, and
uses exit codes 0 (success), 2 (configuration error), 3 (numerical failure).
All randomness derives from one root seed split per stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidParameter, ManifestMismatch, NumericalError
from .estimator import (
    BenchConfig,
    convergence_experiment,
    cubature_estimate,
    mc_estimate,
    sine_tracking_functional,
)
from .fields import PRESETS, FieldSpec, make_field
from .formulas import CubatureFormula, cubature_formula, dumps_17g, verify_cubature
from .partition import make_partition
from .recombination import TestBasis, preprocess
from .training import TrainConfig, make_training_data, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _resolve_workers(workers: int) -> int:
    """0 means all available cores; results are worker-count independent."""
    if workers < 0:
        raise InvalidParameter(f"workers must be >= 0 (0 means all cores), got {workers}")
    return workers or (os.cpu_count() or 1)


def _stage_seed(root: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the single root seed."""
    digest = zlib.crc32(stage.encode())
    return int(np.random.SeedSequence([root, digest]).generate_state(1)[0])


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _integral(value) -> bool:
    return type(value) is int or type(value) is float and value.is_integer()


_TYPE_NAMES = {int: "an integral number", float: "a finite number",
               tuple: "a list of integral numbers"}


def _typed(source: str, value, default):
    """A config-file or flag value as its setting's type, which its default gives.

    ``source`` names the value in the error.  A str setting passes as given:
    the code that reads it checks it, and the bench oracle may also be a number.
    """
    if isinstance(default, str):
        return value
    if isinstance(default, tuple):
        if type(value) is list and all(_integral(v) for v in value):
            return tuple(int(v) for v in value)
    elif isinstance(default, int) and _integral(value):
        return int(value)
    elif isinstance(default, float) and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:  # finite, and an int that fits a float
            return float(value)
    raise InvalidParameter(f"{source} takes {_TYPE_NAMES[type(default)]}, got {json.dumps(value)}")


def _merge(defaults: dict, config: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, each typed as its default."""
    merged = dict(defaults)
    for key, value in config.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _typed(f"config key {key!r}", value, defaults[key])
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _typed(f"flag --{key.replace('_', '-')}", flag, defaults[key])
    return merged


def _field(settings: dict) -> FieldSpec:
    """The field preset the settings name, given their sigma if it takes one."""
    if settings["field"] == "drift_only":
        return make_field("drift_only")
    return make_field(settings["field"], sigma=settings["sigma"])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, stage: str, settings: dict, results: dict):
    doc = {"stage": stage, "settings": settings, "results": results}
    (out / "manifest.json").write_text(dumps_17g(doc))


def cmd_formula(args) -> int:
    tol = _typed("flag --tol", args.tol, 0.0)  # the 0.0 types the flag as a float
    out = _out_dir(args)
    formula = cubature_formula(args.degree, args.dim)
    report = verify_cubature(formula, m=args.degree, tol=tol)
    (out / "formula.json").write_text(formula.to_json())
    (out / "verification.json").write_text(
        dumps_17g(
            {
                "degree": report.degree_checked,
                "dim": formula.dim,
                "passed": report.passed,
                "max_defect": report.max_defect,
                "worst_word": list(report.worst_word) if report.worst_word else None,
                "words_checked": report.words_checked,
                "tol": report.tol,
                "path_count": formula.q,
            }
        )
    )
    _write_manifest(
        out,
        "formula",
        {"degree": args.degree, "dim": args.dim, "tol": tol},
        {"passed": report.passed, "max_defect": report.max_defect,
         "path_count": formula.q, "formula_hash": formula.formula_hash()},
    )
    print(report.summary())
    if not report.passed:
        print(f"offending word: {report.worst_word}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# Each command's settings table is its defaults, which also give each
# setting's type, beside the settings it exposes as flags, in flag order, each
# with its choices (None: any value of its type); the rest are set by the
# config file only.

_PREPROCESS_DEFAULTS = {
    "T": 1.0,
    "k": 10,
    "gamma": 0.6,
    "basis_degree": 4,
    "p_star": 2,
    "radius_mode": "schedule",
}
_PREPROCESS_FLAGS = dict.fromkeys(_PREPROCESS_DEFAULTS) | {
    "radius_mode": ("schedule", "singleton")}


def cmd_preprocess(args) -> int:
    out = _out_dir(args)
    settings = _merge(_PREPROCESS_DEFAULTS, _load_config(args.config), args)
    if args.formula is None:
        raise ManifestMismatch("no formula file given (--formula)")
    formula_path = Path(args.formula)
    if not formula_path.exists():
        raise ManifestMismatch(f"formula file {formula_path} does not exist")
    formula = CubatureFormula.from_json(formula_path.read_text())
    report = verify_cubature(formula)
    if not report.passed:
        raise ManifestMismatch(
            f"formula file {formula_path} fails its degree {formula.degree}: defect "
            f"{report.max_defect:.3e} at word {report.worst_word}"
        )
    partition = make_partition(settings["T"], settings["k"], settings["gamma"])
    basis = TestBasis(dim=formula.dim, degree=settings["basis_degree"])
    table = preprocess(
        formula,
        partition,
        basis,
        p_star=settings["p_star"],
        radius_mode=settings["radius_mode"],
    )
    (out / "weight_table.json").write_text(table.to_json())
    _write_manifest(
        out,
        "preprocess",
        settings | {"formula": str(formula_path)},
        {
            "seconds": table.seconds,
            "survivor_counts": list(table.survivor_counts),
            "moment_defects": list(table.moment_defects),
            "n_leaves": table.n_leaves,
            "formula_hash": formula.formula_hash(),
        },
    )
    print(
        f"pre-processing: k={partition.k}, leaves={table.n_leaves}, "
        f"{table.seconds:.3f}s, survivors per interval {list(table.survivor_counts)}"
    )
    return EXIT_OK


_ESTIMATE_DEFAULTS = {
    "field": "brownian",
    "sigma": 1.0,
    "T": 1.0,
    "degree": 5,
    "k": 8,
    "gamma": 0.6,
    "basis_degree": 4,
    "p_star": 2,
    "steps_per_segment": 32,
    "mc_paths": 100000,
    "mc_grid": 512,
    "seed": 2024,
    "workers": 1,
}
_ESTIMATE_FLAGS = dict.fromkeys(k for k in _ESTIMATE_DEFAULTS if k != "T") | {
    "field": tuple(PRESETS), "degree": (3, 5)}


def cmd_estimate(args) -> int:
    out = _out_dir(args)
    settings = _merge(_ESTIMATE_DEFAULTS, _load_config(args.config), args)
    workers = _resolve_workers(settings["workers"])
    spec = _field(settings)
    functional = sine_tracking_functional()
    formula = cubature_formula(settings["degree"], spec.d_b)
    partition = make_partition(settings["T"], settings["k"], settings["gamma"])
    basis = TestBasis(dim=spec.d_b, degree=settings["basis_degree"])
    table = preprocess(formula, partition, basis, p_star=settings["p_star"])
    cub = cubature_estimate(
        functional,
        spec.stratonovich(),
        formula,
        partition,
        table,
        x0=spec.x0,
        steps_per_segment=settings["steps_per_segment"],
        workers=workers,
    )
    mc = mc_estimate(
        functional,
        spec,
        settings["mc_paths"],
        settings["mc_grid"],
        seed=_stage_seed(settings["seed"], "estimate"),
        T=settings["T"],
    )
    lines = ["method,n,value,seconds"]
    lines.append(f"cubature,{cub.n_paths},{format(cub.value, '.17g')},{cub.seconds:.6f}")
    lines.append(f"mc,{mc.n_paths},{format(mc.value, '.17g')},{mc.seconds:.6f}")
    (out / "estimate.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(
        out,
        "estimate",
        settings,
        {
            "cubature": cub.value,
            "mc": mc.value,
            "mc_stderr": mc.stderr,
            # the preset's exact value holds on [0, 1] only
            "analytic": spec.sine_tracking_value if settings["T"] == 1.0 else None,
            "n_leaves": cub.n_paths,
            "interval_solves": cub.interval_solves,
            "interval_costs": list(cub.interval_costs),
            "interval_weight_range": [list(r) for r in cub.interval_weight_range],
        },
    )
    print(f"cubature {cub.value:.6f} (n={cub.n_paths})  mc {mc.value:.6f} (n={mc.n_paths})")
    return EXIT_OK


# the field and its sigma, then every BenchConfig field but the spec and the
# functional, which the command builds, in declaration order
_BENCH_DEFAULTS = {"field": "scaled_diffusion", "sigma": 0.6} | {
    f.name: f.default
    for f in dataclasses.fields(BenchConfig)
    if f.name not in ("spec", "functional")
}
_BENCH_FLAGS = dict.fromkeys(
    k for k in _BENCH_DEFAULTS if k not in ("T", "oracle", "mc_ns", "cub_ks")
) | {"field": ("brownian", "scaled_diffusion"), "degree": (3, 5)}


def cmd_bench(args) -> int:
    out = _out_dir(args)
    settings = _merge(_BENCH_DEFAULTS, _load_config(args.config), args)
    values = {k: v for k, v in settings.items() if k not in ("field", "sigma")}
    values["seed"] = _stage_seed(values["seed"], "bench")
    values["workers"] = _resolve_workers(values["workers"])
    config = BenchConfig(spec=_field(settings), functional=sine_tracking_functional(), **values)
    rows, summary = convergence_experiment(config)
    lines = ["method,n,error,seconds"]
    for r in rows:
        lines.append(f"{r.method},{r.n},{format(r.error, '.17g')},{r.seconds:.6f}")
    (out / "bench.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "bench", settings, summary)
    print(
        f"mc slope {summary['mc_slope']:.3f}; cubature pre-plateau slope "
        f"{summary['cubature_slope_pre_plateau']:.3f}; "
        f"dominates={summary['cubature_dominates_mc']}"
    )
    return EXIT_OK


# every TrainConfig field, in declaration order
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
_TRAIN_FLAGS = dict.fromkeys(
    k for k in _TRAIN_DEFAULTS
    if k not in ("T", "obs_noise", "n_data", "data_grid", "data_rate", "data_mean", "data_sigma")
) | {"degree": (3,)}


def cmd_train(args) -> int:
    out = _out_dir(args)
    settings = _merge(_TRAIN_DEFAULTS, _load_config(args.config), args)
    config = TrainConfig(**settings)
    spec = make_training_data(config)
    data_lines = ["path,t," + ",".join(f"y_{i}" for i in range(config.d_x))]
    for j in range(spec.data_values.shape[0]):
        for i, t in enumerate(spec.data_times):
            vals = ",".join(format(v, ".17g") for v in spec.data_values[j, i])
            data_lines.append(f"{j},{format(t, '.17g')},{vals}")
    (out / "data.csv").write_text("\n".join(data_lines) + "\n")
    log = train(config, spec)
    (out / "train_log.csv").write_text(log.to_csv())
    (out / "params.json").write_text(
        dumps_17g({"theta_cubature": list(log.theta_cubature), "theta_mc": list(log.theta_mc)})
    )
    cub = log.losses("cubature")
    mc = log.losses("mc")
    _write_manifest(
        out,
        "train",
        settings,
        {
            "n_paths": log.n_paths,
            "cubature_loss_first": float(cub[0]),
            "cubature_loss_last": float(cub[-1]),
            "mc_loss_first": float(mc[0]),
            "mc_loss_last": float(mc[-1]),
            "cubature_median_epoch_seconds": float(np.median(log.seconds("cubature"))),
            "mc_median_epoch_seconds": float(np.median(log.seconds("mc"))),
        },
    )
    print(
        f"trained {config.epochs} epochs, n={log.n_paths}: cubature "
        f"{cub[0]:.4f}->{cub[-1]:.4f}, mc {mc[0]:.4f}->{mc[-1]:.4f}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdecub",
        description="Deterministic cubature estimation and training for SDE path functionals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="construct and verify a cubature formula")
    p.add_argument("--degree", type=int, choices=(3, 5), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_formula)

    for name, help_text, func, defaults, flags in (
        ("preprocess", "build a recombined weight table", cmd_preprocess,
         _PREPROCESS_DEFAULTS, _PREPROCESS_FLAGS),
        ("estimate", "one cubature and one MC estimate", cmd_estimate,
         _ESTIMATE_DEFAULTS, _ESTIMATE_FLAGS),
        ("bench", "convergence-rate benchmark sweeps", cmd_bench, _BENCH_DEFAULTS, _BENCH_FLAGS),
        ("train", "cubature vs MC training comparison", cmd_train, _TRAIN_DEFAULTS, _TRAIN_FLAGS),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--out", default="runs", help="output directory")
        if name == "preprocess":
            p.add_argument("--formula", help="formula JSON written by the formula command")
        for key, choices in flags.items():
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=type(defaults[key]), choices=choices
            )
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
