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

from .errors import ConfigError, ManifestMismatch, NumericalError
from .estimator import (
    BenchConfig,
    convergence_experiment,
    cubature_estimate,
    mc_estimate,
    sine_tracking_functional,
)
from .fields import make_field
from .formulas import (
    CubatureFormula,
    degree3_formula,
    degree5_formula,
    dumps_17g,
    verify_cubature,
)
from .partition import make_partition
from .recombination import TestBasis, preprocess
from .training import TrainConfig, make_training_data, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _resolve_workers(value) -> int:
    """0 means all available cores; results are worker-count independent."""
    workers = int(value)
    return workers if workers > 0 else (os.cpu_count() or 1)


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
    with open(p) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _merge(defaults: dict, config: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    for key, value in config.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text)


def _write_manifest(out: Path, stage: str, settings: dict, results: dict):
    doc = {"stage": stage, "settings": settings, "results": results}
    _write(out / "manifest.json", dumps_17g(doc))


def _build_formula(degree: int, dim: int) -> CubatureFormula:
    return degree5_formula(dim) if degree == 5 else degree3_formula(dim)


def cmd_formula(args) -> int:
    out = _out_dir(args)
    formula = _build_formula(args.degree, args.dim)
    report = verify_cubature(formula, m=args.degree, tol=args.tol)
    _write(out / "formula.json", formula.to_json())
    _write(
        out / "verification.json",
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
        ),
    )
    _write_manifest(
        out,
        "formula",
        {"degree": args.degree, "dim": args.dim, "tol": args.tol},
        {"passed": report.passed, "max_defect": report.max_defect,
         "path_count": formula.q, "formula_hash": formula.formula_hash()},
    )
    print(report.summary())
    if not report.passed:
        print(f"offending word: {report.worst_word}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_PREPROCESS_DEFAULTS = {
    "T": 1.0,
    "k": 10,
    "gamma": 0.6,
    "basis_degree": 4,
    "p_star": 2,
    "radius_mode": "schedule",
}


def cmd_preprocess(args) -> int:
    out = _out_dir(args)
    settings = _merge(_PREPROCESS_DEFAULTS, _load_config(args.config), args)
    if args.formula is None:
        raise ManifestMismatch("no formula file given (--formula)")
    formula_path = Path(args.formula)
    if not formula_path.exists():
        raise ManifestMismatch(f"formula file {formula_path} does not exist")
    formula = CubatureFormula.from_json(formula_path.read_text())
    partition = make_partition(settings["T"], int(settings["k"]), settings["gamma"])
    basis = TestBasis(dim=formula.dim, degree=int(settings["basis_degree"]))
    table = preprocess(
        formula,
        partition,
        basis,
        p_star=int(settings["p_star"]),
        radius_mode=settings["radius_mode"],
    )
    _write(out / "weight_table.json", table.to_json())
    _write_manifest(
        out,
        "preprocess",
        settings | {"formula": str(formula_path)},
        {
            "seconds": table.seconds,
            "survivor_counts": list(table.survivor_counts),
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
    "workers": 0,
}


def cmd_estimate(args) -> int:
    out = _out_dir(args)
    settings = _merge(_ESTIMATE_DEFAULTS, _load_config(args.config), args)
    kwargs = {} if settings["field"] == "drift_only" else {"sigma": settings["sigma"]}
    spec = make_field(settings["field"], **kwargs)
    functional = sine_tracking_functional()
    formula = _build_formula(int(settings["degree"]), spec.d_b)
    partition = make_partition(settings["T"], int(settings["k"]), settings["gamma"])
    table = None
    if partition.k >= 2:
        basis = TestBasis(dim=spec.d_b, degree=int(settings["basis_degree"]))
        table = preprocess(formula, partition, basis, p_star=int(settings["p_star"]))
    cub = cubature_estimate(
        functional,
        spec.stratonovich(),
        formula,
        partition,
        table,
        x0=spec.x0,
        steps_per_segment=int(settings["steps_per_segment"]),
        workers=_resolve_workers(settings["workers"]),
    )
    mc = mc_estimate(
        functional,
        spec,
        int(settings["mc_paths"]),
        int(settings["mc_grid"]),
        seed=_stage_seed(int(settings["seed"]), "estimate"),
        T=settings["T"],
    )
    lines = ["method,n,value,seconds"]
    lines.append(f"cubature,{cub.n_paths},{format(cub.value, '.17g')},{cub.seconds:.6f}")
    lines.append(f"mc,{mc.n_paths},{format(mc.value, '.17g')},{mc.seconds:.6f}")
    _write(out / "estimate.csv", "\n".join(lines) + "\n")
    _write_manifest(
        out,
        "estimate",
        settings,
        {
            "cubature": cub.value,
            "mc": mc.value,
            "analytic": spec.sine_tracking_value,
            "n_leaves": cub.n_paths,
            "interval_solves": cub.interval_solves,
        },
    )
    print(f"cubature {cub.value:.6f} (n={cub.n_paths})  mc {mc.value:.6f} (n={mc.n_paths})")
    return EXIT_OK


_BENCH_DEFAULTS = {
    "field": "scaled_diffusion",
    "sigma": 0.6,
    "T": 1.0,
    "oracle": "analytic",
    "mc_ns": (10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000),
    "mc_replicates": 20,
    "mc_grid": 512,
    "cub_ks": (1, 2, 3, 4, 5, 6, 8),
    "degree": 5,
    "gamma": 0.6,
    "basis_degree": 4,
    "p_star": 2,
    "steps_per_segment": 32,
    "seed": 2024,
    "workers": 0,
}


def cmd_bench(args) -> int:
    out = _out_dir(args)
    settings = _merge(_BENCH_DEFAULTS, _load_config(args.config), args)
    spec = make_field(settings["field"], sigma=settings["sigma"])
    config = BenchConfig(
        spec=spec,
        functional=sine_tracking_functional(),
        oracle=settings["oracle"],
        T=settings["T"],
        mc_ns=tuple(int(n) for n in settings["mc_ns"]),
        mc_replicates=int(settings["mc_replicates"]),
        mc_grid=int(settings["mc_grid"]),
        cub_ks=tuple(int(k) for k in settings["cub_ks"]),
        degree=int(settings["degree"]),
        gamma=settings["gamma"],
        basis_degree=int(settings["basis_degree"]),
        p_star=int(settings["p_star"]),
        steps_per_segment=int(settings["steps_per_segment"]),
        seed=_stage_seed(int(settings["seed"]), "bench"),
        workers=_resolve_workers(settings["workers"]),
    )
    rows, summary = convergence_experiment(config)
    lines = ["method,n,error,seconds"]
    for r in rows:
        lines.append(f"{r.method},{r.n},{format(r.error, '.17g')},{r.seconds:.6f}")
    _write(out / "bench.csv", "\n".join(lines) + "\n")
    _write_manifest(out, "bench", settings, summary)
    print(
        f"mc slope {summary['mc_slope']:.3f}; cubature pre-plateau slope "
        f"{summary['cubature_slope_pre_plateau']:.3f}; "
        f"dominates={summary['cubature_dominates_mc']}"
    )
    return EXIT_OK


# every TrainConfig field but the divergence guard, in declaration order
_TRAIN_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(TrainConfig) if f.name != "divergence_threshold"
}


def cmd_train(args) -> int:
    out = _out_dir(args)
    settings = _merge(_TRAIN_DEFAULTS, _load_config(args.config), args)
    config = TrainConfig(**{k: type(_TRAIN_DEFAULTS[k])(v) for k, v in settings.items()})
    spec = make_training_data(config)
    data_lines = ["path,t," + ",".join(f"y_{i}" for i in range(config.d_x))]
    for j in range(spec.data_values.shape[0]):
        for i, t in enumerate(spec.data_times):
            vals = ",".join(format(v, ".17g") for v in spec.data_values[j, i])
            data_lines.append(f"{j},{format(t, '.17g')},{vals}")
    _write(out / "data.csv", "\n".join(data_lines) + "\n")
    log = train(config, spec)
    _write(out / "train_log.csv", log.to_csv())
    _write(
        out / "params.json",
        dumps_17g(
            {
                "theta_cubature": list(log.theta_cubature),
                "theta_mc": list(log.theta_mc),
            }
        ),
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


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--out", default="runs", help="output directory")


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

    p = sub.add_parser("preprocess", help="build a recombined weight table")
    _add_common(p)
    p.add_argument("--formula", help="formula JSON written by the formula command")
    p.add_argument("--T", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--basis-degree", dest="basis_degree", type=int)
    p.add_argument("--p-star", dest="p_star", type=int)
    p.add_argument("--radius-mode", dest="radius_mode", choices=("schedule", "singleton"))
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("estimate", help="one cubature and one MC estimate")
    _add_common(p)
    p.add_argument("--field", choices=("brownian", "scaled_diffusion", "ou", "drift_only"))
    p.add_argument("--sigma", type=float)
    p.add_argument("--degree", type=int, choices=(3, 5))
    p.add_argument("--k", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--basis-degree", dest="basis_degree", type=int)
    p.add_argument("--p-star", dest="p_star", type=int)
    p.add_argument("--steps-per-segment", dest="steps_per_segment", type=int)
    p.add_argument("--mc-paths", dest="mc_paths", type=int)
    p.add_argument("--mc-grid", dest="mc_grid", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="convergence-rate benchmark sweeps")
    _add_common(p)
    p.add_argument("--field", choices=("brownian", "scaled_diffusion"))
    p.add_argument("--sigma", type=float)
    p.add_argument("--mc-replicates", dest="mc_replicates", type=int)
    p.add_argument("--mc-grid", dest="mc_grid", type=int)
    p.add_argument("--degree", type=int, choices=(3, 5))
    p.add_argument("--gamma", type=float)
    p.add_argument("--basis-degree", dest="basis_degree", type=int)
    p.add_argument("--p-star", dest="p_star", type=int)
    p.add_argument("--steps-per-segment", dest="steps_per_segment", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="cubature vs MC training comparison")
    _add_common(p)
    p.add_argument("--d-x", dest="d_x", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--degree", type=int, choices=(3,))
    p.add_argument("--k", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--basis-degree", dest="basis_degree", type=int)
    p.add_argument("--p-star", dest="p_star", type=int)
    p.add_argument("--steps-per-segment", dest="steps_per_segment", type=int)
    p.add_argument("--mc-grid", dest="mc_grid", type=int)
    p.add_argument("--kl-weight", dest="kl_weight", type=float)
    p.add_argument("--data-seed", dest="data_seed", type=int)
    p.set_defaults(func=cmd_train)

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
