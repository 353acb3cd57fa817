"""Cubature and Monte Carlo estimators of expected path functionals.

The cubature estimator walks the prefix trie of the surviving tree leaves:
each distinct index-vector prefix of length i has interval i solved once, as
a controlled ODE started from its parent prefix's end state, and each leaf's
whole trajectory is gathered from its ancestors' solves before the functional
sees it.  It returns the weighted sum of functional values; the Monte Carlo
estimator averages the functional over seeded Euler-Maruyama paths.  The
convergence experiment sweeps both against an oracle and fits log-log error
slopes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteState, OracleUnavailable
from .fields import FieldSpec
from .formulas import CubatureFormula
from .ode import solve_controlled_ode_batch, solve_sde_mc_batch
from .partition import TimePartition, enumerate_leaves, leaf_derivatives
from .recombination import WeightTable


@dataclass(frozen=True)
class PathFunctional:
    """A real functional of trajectories.

    ``evaluate_batch(times, values)`` consumes augmented states of shape
    (B, n, d_x+1) and returns (B,); time integrals use the composite
    trapezoid rule on the trajectory grid.
    """

    name: str
    evaluate_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sine_tracking_functional() -> PathFunctional:
    """Integral of the squared distance to sin(2*pi*t) on [0, 1].

    Acts on the first spatial component; trapezoid rule on the given grid.
    """

    def evaluate_batch(times, values):
        residual = values[:, :, 1] - np.sin(2.0 * math.pi * times)[None, :]
        return np.trapezoid(residual * residual, times, axis=1)

    return PathFunctional(name="sine_tracking", evaluate_batch=evaluate_batch)


def terminal_functional(component: int = 0) -> PathFunctional:
    """Value of one spatial component at the final time (linear functional)."""

    def evaluate_batch(times, values):
        return values[:, -1, 1 + component]

    return PathFunctional(name=f"terminal_x{component}", evaluate_batch=evaluate_batch)


@dataclass(frozen=True)
class EstimateReport:
    """A single estimate with its path count and wall time.

    ``interval_solves`` counts the trie nodes the cubature estimator solved,
    one controlled ODE over one interval each; Monte Carlo reports 0.
    """

    value: float
    n_paths: int
    seconds: float
    interval_solves: int = 0


def _solve_over_trie(fields, formula, partition, ivs, x0_aug, steps_per_segment):
    """Trajectories of the leaves ``ivs``, each shared prefix solved once.

    Leaves sharing a length-i prefix share their path up to knot i, so
    interval i is solved once per distinct length-i prefix (a trie node),
    from the end state of its length-(i-1) parent.  Equal prefixes must be
    adjacent to be shared, which sorted leaves guarantee.  Returns the step
    grid, the augmented states (n_leaves, n_steps+1, d_x+1) bit for bit as
    one whole-leaf solve gives them, and the number of trie nodes solved.
    """
    seg_times, derivs = leaf_derivatives(formula, partition, ivs)
    k = partition.k
    idx = np.asarray(ivs, dtype=int)
    n_seg = (seg_times.shape[0] - 1) // k
    # first[r]: the first interval (0-based) where leaf r leaves leaf r-1's path
    differs = idx[1:] != idx[:-1]
    first = np.concatenate([[0], np.where(differs.any(axis=1), differs.argmax(axis=1), k)])
    times = states = None
    solved = 0
    for i in range(k):
        new = first <= i
        starts = np.flatnonzero(new)
        x_start = x0_aug if i == 0 else ends[node[starts]]
        node = np.cumsum(new) - 1
        lo, hi = i * n_seg, (i + 1) * n_seg
        try:
            level_times, level = solve_controlled_ode_batch(
                fields, seg_times[lo : hi + 1], derivs[starts, lo:hi], x_start, steps_per_segment
            )
        except NonFiniteState as err:
            seg = lo + err.segment
            raise NonFiniteState(
                f"state left the finite range in interval {i + 1} of {k}, segment {seg}",
                segment=seg,
            ) from err
        m = level.shape[1] - 1
        if states is None:
            times = np.empty(k * m + 1)
            states = np.empty((idx.shape[0], k * m + 1, level.shape[2]))
            times[0] = level_times[0]
            states[:, 0] = x0_aug
        times[1 + i * m : 1 + (i + 1) * m] = level_times[1:]
        states[:, 1 + i * m : 1 + (i + 1) * m] = level[node, 1:]
        ends = level[:, -1]
        solved += starts.size
    return times, states, solved


def cubature_estimate(
    functional: PathFunctional,
    fields,
    formula: CubatureFormula,
    partition: TimePartition,
    table: WeightTable | None = None,
    x0: np.ndarray | None = None,
    steps_per_segment: int = 32,
    workers: int = 1,
) -> EstimateReport:
    """Weighted functional sum over the cubature tree.

    With a weight table only surviving leaves are solved; without one the full
    q**k tree is enumerated.  Either way the leaves are solved over their
    prefix trie, each chunk of leaves on its own.  The reduction is a
    compensated sum, so the result is independent of worker count.
    """
    start = time.perf_counter()
    if table is not None:
        table.check_inputs(formula, partition)
        leaves = sorted(table.leaf_weights().items())
    else:
        leaves = list(enumerate_leaves(formula, partition))
    if not leaves:
        return EstimateReport(value=0.0, n_paths=0, seconds=time.perf_counter() - start)
    if x0 is None:
        x0 = np.zeros(fields.state_dim)
    x0_aug = np.zeros(fields.state_dim + 1)
    x0_aug[1:] = np.asarray(x0, dtype=float)
    ivs = [iv for iv, _ in leaves]
    weights = np.array([w for _, w in leaves])

    def solve_chunk(chunk_ivs):
        times, states, solved = _solve_over_trie(
            fields, formula, partition, chunk_ivs, x0_aug, steps_per_segment
        )
        return functional.evaluate_batch(times, states), solved

    n = len(ivs)
    if workers <= 1 or n < 2 * workers:
        parts = [solve_chunk(ivs)]
    else:
        chunks = np.array_split(np.arange(n), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(solve_chunk, (ivs[c[0] : c[-1] + 1] for c in chunks)))
    values = np.concatenate([v for v, _ in parts])
    total = math.fsum(weights * values)
    return EstimateReport(
        value=total,
        n_paths=n,
        seconds=time.perf_counter() - start,
        interval_solves=sum(solved for _, solved in parts),
    )


def mc_estimate(
    functional: PathFunctional,
    spec: FieldSpec,
    n_paths: int,
    grid: int,
    seed: int,
    T: float = 1.0,
    chunk: int = 20000,
) -> EstimateReport:
    """Mean functional value over seeded Euler-Maruyama sample paths."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    values = np.empty(n_paths)
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        times, paths = solve_sde_mc_batch(spec.mu, spec.sigma, spec.x0, T, grid, rng, m)
        states = np.empty((m, grid + 1, spec.d_x + 1))
        states[:, :, 0] = times
        states[:, :, 1:] = paths
        values[done : done + m] = functional.evaluate_batch(times, states)
        done += m
    mean = math.fsum(values) / n_paths
    return EstimateReport(value=mean, n_paths=n_paths, seconds=time.perf_counter() - start)


@dataclass
class BenchConfig:
    """Configuration of the convergence benchmark sweeps."""

    spec: FieldSpec
    functional: PathFunctional
    oracle: float | str = "analytic"
    T: float = 1.0
    mc_ns: tuple[int, ...] = (10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000)
    mc_replicates: int = 20
    mc_grid: int = 512
    mc_fit_range: tuple[float, float] = (100.0, 100000.0)
    cub_ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8)
    degree: int = 5
    gamma: float = 0.6
    basis_degree: int = 4
    p_star: int = 2
    steps_per_segment: int = 32
    seed: int = 2024
    oracle_mc_paths: int = 100000
    oracle_mc_grid: int = 4000
    workers: int = 1


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    error: float
    seconds: float


def _resolve_oracle(config: BenchConfig) -> tuple[float, float | None]:
    """Oracle value and (for an MC oracle) its declared standard-error band."""
    if isinstance(config.oracle, (int, float)):
        return float(config.oracle), None
    if config.oracle == "analytic":
        value = config.spec.sine_tracking_value
        if value is None or config.functional.name != "sine_tracking":
            raise OracleUnavailable(
                f"no analytic value for field {config.spec.name!r} "
                f"with functional {config.functional.name!r}"
            )
        return value, None
    if config.oracle == "mc":
        report = mc_estimate(
            config.functional,
            config.spec,
            config.oracle_mc_paths,
            config.oracle_mc_grid,
            seed=config.seed + 999_983,
            T=config.T,
        )
        band = 4.0 / math.sqrt(config.oracle_mc_paths)
        return report.value, band
    raise OracleUnavailable(f"unknown oracle mode {config.oracle!r}")


def fit_slope(ns, errors) -> float:
    """Least-squares slope of log10(error) against log10(n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log10(ns[mask]), np.log10(errors[mask]), 1)[0])


def plateau_cut(ns, errors, min_gain: float = 0.05) -> int:
    """Index one past the last pre-plateau point.

    Walking up in n, the sweep is cut at the first step whose per-doubling
    error decay falls below ``min_gain``.
    """
    count = 1
    for i in range(1, len(ns)):
        if errors[i - 1] <= 0 or errors[i] <= 0 or ns[i] <= ns[i - 1]:
            break
        per_doubling = (errors[i] / errors[i - 1]) ** (1.0 / math.log2(ns[i] / ns[i - 1]))
        if per_doubling > 1.0 - min_gain:
            break
        count = i + 1
    return count


def interp_loglog(x, xs, ys) -> float:
    """Piecewise-linear interpolation in log-log space, clamped outside."""
    lx = math.log10(x)
    lxs = np.log10(np.asarray(xs, dtype=float))
    lys = np.log10(np.asarray(ys, dtype=float))
    return 10.0 ** float(np.interp(lx, lxs, lys))


def convergence_experiment(config: BenchConfig):
    """Sweep both estimators against the oracle; emit rows and fitted slopes.

    Monte Carlo points report the RMS error over seeded replicates; cubature
    is deterministic and needs no replication.  Returns (rows, summary).
    """
    from .formulas import degree3_formula, degree5_formula
    from .partition import make_partition
    from .recombination import TestBasis, preprocess

    oracle, oracle_band = _resolve_oracle(config)
    rows: list[BenchRow] = []
    seeds = np.random.SeedSequence(config.seed).generate_state(
        len(config.mc_ns) * config.mc_replicates
    )
    mc_ns, mc_rms = [], []
    pos = 0
    for n in config.mc_ns:
        errors = []
        seconds = []
        for _ in range(config.mc_replicates):
            report = mc_estimate(
                config.functional,
                config.spec,
                n,
                config.mc_grid,
                seed=int(seeds[pos]),
                T=config.T,
            )
            pos += 1
            errors.append(report.value - oracle)
            seconds.append(report.seconds)
        rms = math.sqrt(math.fsum(e * e for e in errors) / len(errors))
        rows.append(BenchRow("mc", n, rms, float(np.mean(seconds))))
        mc_ns.append(n)
        mc_rms.append(rms)

    formula = (
        degree5_formula(config.spec.d_b)
        if config.degree == 5
        else degree3_formula(config.spec.d_b)
    )
    basis = TestBasis(dim=config.spec.d_b, degree=config.basis_degree)
    strat = config.spec.stratonovich()
    cub_ns, cub_errors, preprocess_seconds = [], [], []
    for k in config.cub_ks:
        partition = make_partition(config.T, k, config.gamma)
        # k=1 has no interior knot to recombine at; solve the raw tree
        table = (
            preprocess(formula, partition, basis, p_star=config.p_star)
            if k >= 2
            else None
        )
        report = cubature_estimate(
            config.functional,
            strat,
            formula,
            partition,
            table,
            x0=config.spec.x0,
            steps_per_segment=config.steps_per_segment,
            workers=config.workers,
        )
        error = abs(report.value - oracle)
        rows.append(BenchRow("cubature", report.n_paths, error, report.seconds))
        cub_ns.append(report.n_paths)
        cub_errors.append(error)
        preprocess_seconds.append(table.seconds if table is not None else 0.0)

    lo, hi = config.mc_fit_range
    fit_mask = [lo <= n <= hi for n in mc_ns]
    if sum(fit_mask) < 2:
        fit_mask = [True] * len(mc_ns)
    mc_slope = fit_slope(
        [n for n, m in zip(mc_ns, fit_mask) if m],
        [e for e, m in zip(mc_rms, fit_mask) if m],
    )
    cut = plateau_cut(cub_ns, cub_errors)
    cub_slope = fit_slope(cub_ns[:cut], cub_errors[:cut])
    dominated = all(
        err <= interp_loglog(n, mc_ns, mc_rms) for n, err in zip(cub_ns, cub_errors)
    )
    summary = {
        "oracle": oracle,
        "oracle_band": oracle_band,
        "mc_slope": mc_slope,
        "cubature_slope_pre_plateau": cub_slope,
        "cubature_points_pre_plateau": cut,
        "cubature_dominates_mc": dominated,
        "preprocess_seconds": preprocess_seconds,
        "field": config.spec.name,
        "functional": config.functional.name,
        "degree": config.degree,
        "gamma": config.gamma,
        "basis_degree": config.basis_degree,
        "p_star": config.p_star,
    }
    return rows, summary
