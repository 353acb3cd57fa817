"""The benchmark's three workloads: set-up, one timed pass, output checks.

Every workload has a cubature arm and a Monte Carlo arm, so the
end-to-end metrics ``cubature_s`` and ``mc_s`` exist on each of them.

- table_reuse: a fixed set of recombined weight tables is built and each is
  reused across several dynamics (the paper's "one table serves every
  parameterization"); Monte Carlo estimates the same dynamics.
  Recombination does most of the cubature arm's work.
- raw_vs_mc: the full degree-5 tree at k=10 is solved without a table, beside
  a 100,000-path Monte Carlo run.  Large-batch RK4, Euler-Maruyama and the
  functional do the work; recombination does none.
- train_d8: ``train()`` in the 8-d setting; tape recording, backward and the
  networks do the work, and at k=2 recombination does nothing.

The workload seed drives the Monte Carlo noise and the training
initialisation and noise; the package receives only the generated inputs.
Each pass repeats the same inputs, so counts repeat from pass to pass.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

import tracing


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes; the smoke test shrinks them."""

    tables_1d: tuple[int, ...] = (8, 12, 14)
    table_2d_k: int = 8
    reuse_mc_paths: int = 10_000
    reuse_mc_grid: int = 256
    raw_k: int = 10
    raw_mc_paths: int = 100_000
    raw_mc_grid: int = 512
    train_d_x: int = 8
    train_width: int = 8
    train_epochs: int = 10
    train_mc_grid: int = 200


STEPS_PER_SEGMENT = 4
GAMMA = 0.6
P_STAR = 2
MC_SIGMAS = 5.0  # an MC estimate must lie this many standard errors from the oracle
MASS_TOL = 1e-12


@dataclasses.dataclass
class PassResult:
    """What one pass did, how long its parts took, and what failed."""

    wall_s: float = 0.0
    cubature_s: list[float] = dataclasses.field(default_factory=list)
    mc_s: list[float] = dataclasses.field(default_factory=list)
    detail: dict = dataclasses.field(default_factory=dict)
    frontier: list[dict] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)


def _oracle_ou(rate: float, mean: float, sigma: float, x0: float) -> float:
    """E int_0^1 (X^1_t - sin 2 pi t)^2 dt for an OU coordinate.

    Mean m(t) = mean + (x0 - mean) e^{-rate t}, variance
    v(t) = sigma^2 (1 - e^{-2 rate t}) / (2 rate); Gauss-Legendre quadrature
    of (m - sin)^2 + v, exact to roundoff for this smooth integrand.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1.0)
    m = mean + (x0 - mean) * np.exp(-rate * t)
    v = sigma * sigma * (1.0 - np.exp(-2.0 * rate * t)) / (2.0 * rate)
    return float(0.5 * weights @ ((m - np.sin(2.0 * math.pi * t)) ** 2 + v))


@dataclasses.dataclass(frozen=True)
class Dynamics:
    label: str
    spec: object
    fields: object
    oracle: float
    mc_seed: int


def _dynamics(sc, label, name, seed, oracle=None, **kwargs) -> Dynamics:
    spec = sc.make_field(name, **kwargs)
    if oracle is None:
        oracle = spec.sine_tracking_value
    return Dynamics(label, spec, spec.stratonovich(), oracle, seed)


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _check_formula(sc, formula):
    report = sc.verify_cubature(formula)
    if not report.passed:
        raise SystemExit(f"cubature formula failed verification: {report.summary()}")


def _capturing(functional):
    """The functional, plus the per-path values it returns (for the MC error bar)."""
    values: list[np.ndarray] = []

    def evaluate_batch(times, states):
        out = functional.evaluate_batch(times, states)
        values.append(np.array(out))
        return out

    return dataclasses.replace(functional, evaluate_batch=evaluate_batch), values


def _mc_point(sc, tracer, result, functional, dyn, paths, grid):
    """One MC estimate with its checks; returns (seconds, stderr) or None."""
    captured, values = _capturing(tracing.traced_functional(tracer, functional))
    spec = tracing.traced_spec(tracer, dyn.spec)
    result.attempted += 1
    start = time.perf_counter()
    try:
        report = sc.mc_estimate(captured, spec, paths, grid, seed=dyn.mc_seed)
    except sc.SdeCubError as exc:
        result.failures.append(f"mc {dyn.label}: {exc!r}")
        return None
    seconds = time.perf_counter() - start
    sample = np.concatenate(values)
    stderr = float(np.std(sample, ddof=1) / math.sqrt(sample.shape[0]))
    if not math.isfinite(report.value) or not math.isfinite(stderr):
        result.failures.append(f"mc {dyn.label}: non-finite estimate {report.value}")
    elif abs(report.value - dyn.oracle) > MC_SIGMAS * stderr:
        result.failures.append(
            f"mc {dyn.label}: {report.value} is more than {MC_SIGMAS} standard "
            f"errors ({stderr}) from the oracle {dyn.oracle}"
        )
    result.frontier.append(
        dict(arm="mc", dynamics=dyn.label, k=0, paths=paths, seconds=seconds,
             error=abs(report.value - dyn.oracle), stderr=stderr)
    )
    return seconds, stderr


def _cubature_point(sc, tracer, result, functional, dyn, formula, partition, table, arm, workers):
    """One cubature estimate with its checks; returns (seconds, error) or None."""
    fields = tracing.traced_fields(tracer, dyn.fields)
    result.attempted += 1
    start = time.perf_counter()
    try:
        report = sc.cubature_estimate(
            tracing.traced_functional(tracer, functional), fields, formula, partition,
            table, x0=dyn.spec.x0, steps_per_segment=STEPS_PER_SEGMENT, workers=workers,
        )
    except sc.SdeCubError as exc:
        result.failures.append(f"{arm} {dyn.label} k={partition.k}: {exc!r}")
        return None
    seconds = time.perf_counter() - start
    error = abs(report.value - dyn.oracle)
    if not math.isfinite(report.value):
        result.failures.append(f"{arm} {dyn.label} k={partition.k}: non-finite estimate")
    result.frontier.append(
        dict(arm=arm, dynamics=dyn.label, k=partition.k, paths=report.n_paths,
             seconds=seconds, error=error, stderr=0.0)
    )
    return seconds, error


# ---------------------------------------------------------------- table_reuse


def setup_table_reuse(sc, sizes: Sizes, seed: int) -> dict:
    f5, f3 = sc.degree5_formula(1), sc.degree3_formula(2)
    _check_formula(sc, f5)
    _check_formula(sc, f3)
    tables = [
        (f5, sc.make_partition(1.0, k, GAMMA), sc.TestBasis(1, 4)) for k in sizes.tables_1d
    ] + [(f3, sc.make_partition(1.0, sizes.table_2d_k, GAMMA), sc.TestBasis(2, 2))]
    s = iter(_seeds(seed, 7))
    one_d = [
        _dynamics(sc, f"scaled_diffusion(sigma={v})", "scaled_diffusion", next(s), sigma=v)
        for v in (0.3, 0.6, 0.9)
    ] + [_dynamics(sc, f"brownian(sigma={v})", "brownian", next(s), sigma=v) for v in (0.5, 1.0)]
    two_d = [
        _dynamics(sc, f"ou(rate={r},mean={m},sigma={v})", "ou", next(s),
                  oracle=_oracle_ou(r, m, v, 0.0), rate=r, mean=m, sigma=v, d=2, x0=0.0)
        for r, m, v in ((1.0, 0.5, 0.5), (2.0, -0.5, 0.8))
    ]
    return dict(
        sc=sc, sizes=sizes, tables=tables, dynamics={1: one_d, 2: two_d},
        functional=sc.sine_tracking_functional(),
    )


def pass_table_reuse(st: dict, tracer) -> PassResult:
    sc, sizes, functional = st["sc"], st["sizes"], st["functional"]
    result = PassResult()
    start = time.perf_counter()
    built = []
    for formula, partition, basis in st["tables"]:
        result.attempted += 1
        try:
            built.append((formula, partition, sc.preprocess(formula, partition, basis, p_star=P_STAR)))
        except sc.SdeCubError as exc:
            result.failures.append(f"table dim {formula.dim} k={partition.k}: {exc!r}")
    table_s = time.perf_counter() - start
    for formula, partition, table in built:
        masses = [table.interval_mass(i) for i in range(1, table.k + 1)]
        if max(abs(m - 1.0) for m in masses) > MASS_TOL:
            result.failures.append(f"table dim {formula.dim} k={table.k}: interval masses {masses}")
    estimate_s, errors = 0.0, []
    for formula, partition, table in built:
        for dyn in st["dynamics"][formula.dim]:
            point = _cubature_point(
                sc, tracer, result, functional, dyn, formula, partition, table, "table", 1
            )
            if point is not None:
                estimate_s += point[0]
                errors.append(point[1])
                result.frontier[-1]["table_seconds"] = table.seconds
    mc_s, stderrs = 0.0, []
    for dyn in st["dynamics"][1] + st["dynamics"][2]:
        point = _mc_point(sc, tracer, result, functional, dyn, sizes.reuse_mc_paths, sizes.reuse_mc_grid)
        if point is not None:
            mc_s += point[0]
            stderrs.append(point[1])
    result.wall_s = time.perf_counter() - start
    result.cubature_s.append(table_s + estimate_s)
    result.mc_s.append(mc_s)
    result.detail.update(table_s=table_s, estimate_s=estimate_s)
    if errors:
        result.detail["estimate_err"] = max(errors)
    if stderrs:
        result.detail["mc_stderr"] = max(stderrs)
    return result


# ------------------------------------------------------------------ raw_vs_mc


def setup_raw_vs_mc(sc, sizes: Sizes, seed: int) -> dict:
    formula = sc.degree5_formula(1)
    _check_formula(sc, formula)
    dyn = _dynamics(sc, "scaled_diffusion(sigma=0.6)", "scaled_diffusion", _seeds(seed, 1)[0], sigma=0.6)
    return dict(
        sc=sc, sizes=sizes, formula=formula, partition=sc.make_partition(1.0, sizes.raw_k, GAMMA),
        dynamics=dyn, functional=sc.sine_tracking_functional(),
    )


def pass_raw_vs_mc(st: dict, tracer) -> PassResult:
    sc, sizes, dyn, functional = st["sc"], st["sizes"], st["dynamics"], st["functional"]
    result = PassResult()
    start = time.perf_counter()
    # workers=2: the CLI's default of all cores on the 2-core reference machine
    raw = _cubature_point(
        sc, tracer, result, functional, dyn, st["formula"], st["partition"], None, "raw", 2
    )
    mc = _mc_point(sc, tracer, result, functional, dyn, sizes.raw_mc_paths, sizes.raw_mc_grid)
    result.wall_s = time.perf_counter() - start
    if raw is not None:
        result.cubature_s.append(raw[0])
        result.detail.update(estimate_s=raw[0], estimate_err=raw[1])
    if mc is not None:
        result.mc_s.append(mc[0])
        result.detail.update(mc_stderr=mc[1])
    return result


# ------------------------------------------------------------------- train_d8


def setup_train_d8(sc, sizes: Sizes, seed: int) -> dict:
    config = sc.TrainConfig(
        d_x=sizes.train_d_x, k=2, basis_degree=1, width=sizes.train_width,
        epochs=sizes.train_epochs, mc_grid=sizes.train_mc_grid, seed=_seeds(seed, 1)[0],
    )
    _check_formula(sc, sc.degree3_formula(config.d_x))
    data = sc.make_training_data(config)
    sc.training.build_tree(config)  # train() builds the same tree again each pass
    return dict(sc=sc, config=config, data=data)


def pass_train_d8(st: dict, tracer) -> PassResult:
    sc, config = st["sc"], st["config"]
    result = PassResult()
    epochs: dict[str, list] = {"cubature": [], "mc": []}

    def timing(arm):
        def make(original):
            def gradient(*args, **kwargs):
                start = time.perf_counter()
                report = original(*args, **kwargs)
                epochs[arm].append((time.perf_counter() - start, report))
                return report

            return gradient

        return make

    start = time.perf_counter()
    try:
        with tracing.patched(sc.training, "loss_and_gradient_cubature", timing("cubature")), \
                tracing.patched(sc.training, "loss_and_gradient_mc", timing("mc")):
            sc.train(config, st["data"])
    except sc.SdeCubError as exc:
        result.failures.append(f"train: {exc!r}")
    result.wall_s = time.perf_counter() - start
    result.attempted += len(epochs["cubature"]) + len(epochs["mc"]) + len(result.failures)
    for arm, records in epochs.items():
        losses = [report.loss for _, report in records]
        if not all(math.isfinite(loss) for loss in losses):
            result.failures.append(f"train {arm}: non-finite loss")
        elif len(losses) == config.epochs and not losses[-1] < losses[0]:
            result.failures.append(f"train {arm}: loss {losses[-1]} at the last epoch is not below {losses[0]}")
        if records:
            result.detail[f"epoch_s.{arm}"] = float(np.median([s for s, _ in records]))
            result.detail[f"tape_mb.{arm}"] = records[-1][1].tape_bytes / 1e6
            result.detail[f"loss.{arm}"] = losses
    result.cubature_s.extend(s for s, _ in epochs["cubature"])
    result.mc_s.extend(s for s, _ in epochs["mc"])
    return result


WORKLOADS = {
    "table_reuse": (setup_table_reuse, pass_table_reuse),
    "raw_vs_mc": (setup_raw_vs_mc, pass_raw_vs_mc),
    "train_d8": (setup_train_d8, pass_train_d8),
}
