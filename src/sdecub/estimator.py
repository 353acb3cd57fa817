"""Cubature and Monte Carlo estimators of expected path functionals.

A path functional is a running cost integrated over time plus a terminal
cost.  The cubature estimator walks the tree level by level: level i holds
the children (p, j) of the prefixes the weight table keeps at knot i-1,
each solved over interval i from p's end state, and its running cost over
the interval is weighted by p's table weight times formula weight j.
Recombination keeps moments at the knots only, so no whole leaf path is
ever weighted.  :func:`tree_levels` is the one definition of the levels
(each row's interval grid and path slopes, its weight, and the parent row
whose end state starts it), for a table and for the raw tree alike; the
training arm's :func:`sdecub.training.loss_and_gradient_cubature` walks the
same ones on the tape.  The Monte Carlo estimator averages whole-path
values over seeded Euler-Maruyama paths.  The convergence experiment sweeps
both against an oracle and fits log-log error slopes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteState, OracleUnavailable
from .fields import FieldSpec
from .formulas import CubatureFormula
from .ode import solve_controlled_ode_batch, solve_sde_mc_batch
from .partition import TimePartition, enumerate_leaves, interval_slopes
from .recombination import WeightTable

MC_BLOCK_BYTES = 8 << 20  # size of the block mc_estimate evaluates paths in
MC_CHUNK_PATHS = 20000  # paths per Euler-Maruyama solve in mc_estimate
MC_FIT_RANGE = (100.0, 100000.0)  # path counts the bench's MC slope is fitted on
ORACLE_MC_PATHS = 100000  # paths and grid of the bench's Monte Carlo oracle
ORACLE_MC_GRID = 4000


@dataclass(frozen=True)
class PathFunctional:
    """A running cost c(t, x) integrated over [0, T] plus a terminal cost h(x_T).

    ``running(times, states)`` maps augmented states (B, n, d_x+1) on the
    grid ``times`` (n,) to cost rates (B, n); ``terminal(states)`` maps
    augmented end states (B, d_x+1) to (B,).  Either may be omitted, not
    both.  ``evaluate_batch(times, states)``, the whole-path value (B,) that
    Monte Carlo uses, is the trapezoid rule of c plus h at the last state,
    unless a callable is passed in its place.
    """

    name: str
    running: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    terminal: Callable[[np.ndarray], np.ndarray] | None = None
    evaluate_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.running is None and self.terminal is None:
            raise InvalidParameter(f"functional {self.name!r} has no running or terminal cost")
        if self.evaluate_batch is None:
            object.__setattr__(self, "evaluate_batch", self._whole_path)

    def running_integral(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Trapezoid rule of the running cost over ``times``, shape (B,)."""
        if self.running is None:
            return np.zeros(states.shape[0])
        return np.trapezoid(self.running(times, states), times, axis=1)

    def _whole_path(self, times, states):
        value = self.running_integral(times, states)
        return value if self.terminal is None else value + self.terminal(states[:, -1])


def sine_tracking_functional() -> PathFunctional:
    """Integral of the squared distance to sin(2*pi*t) on [0, 1].

    Acts on the first spatial component.
    """

    def running(times, values):
        residual = values[:, :, 1] - np.sin(2.0 * math.pi * times)[None, :]
        return residual * residual

    return PathFunctional(name="sine_tracking", running=running)


@dataclass(frozen=True)
class EstimateReport:
    """A single estimate with its path count and wall time.

    ``interval_solves`` counts the rows the cubature estimator solved, one
    controlled ODE over one interval each; Monte Carlo reports 0.
    ``interval_costs[i-1]`` is interval i's weighted share of the cubature
    value (the last one includes the terminal cost), and
    ``interval_weight_range[i-1]`` the smallest and largest row weight of
    level i; Monte Carlo reports both empty.
    """

    value: float
    n_paths: int
    seconds: float
    interval_solves: int = 0
    interval_costs: tuple[float, ...] = ()
    interval_weight_range: tuple[tuple[float, float], ...] = ()


def tree_levels(
    formula: CubatureFormula, partition: TimePartition, table: WeightTable | None = None
):
    """The cubature tree's leaf count, and its levels one at a time.

    Level i, for interval i, is ``(times, slopes, weights, rows)``: the
    interval's segment grid, each row's formula path slopes on it
    (n_rows, n_seg, d_b), the row weights, and each row's parent row in the
    level before, whose end state starts it.  The rows are the q children
    of each row of T_{i-1} (the prefixes kept at knot i-1; the root for
    i=1), weighted by the parent's weight times w_j.  A table keeps its
    level i-1, rows ``parent * q + j`` of walk level i-1, and is checked
    against the formula and partition first; without one every row is kept.
    A table without leaves has no levels.
    """
    if table is None:
        # draining the leaves guards the tree size and counts it
        n_leaves = sum(1 for _ in enumerate_leaves(formula, partition))
    else:
        table.check_inputs(formula, partition)
        n_leaves = table.n_leaves

    def walk():
        seg_times, slopes = interval_slopes(formula, partition)
        n_seg, q, w = slopes.shape[2], formula.q, np.asarray(formula.weights)
        kept, weights = np.zeros(1, dtype=int), np.ones(1)  # T_0, the root
        for i in range(partition.k):
            if i and table is None:
                kept = np.arange(weights.size)
            elif i:
                level = table.levels[i - 1]
                kept, weights = level.parent * q + level.j, level.weight
            weights = np.multiply.outer(weights, w).ravel()
            times = seg_times[i * n_seg : (i + 1) * n_seg + 1]
            yield times, np.tile(slopes[i], (kept.size, 1, 1)), weights, np.repeat(kept, q)

    return n_leaves, walk() if n_leaves else iter(())


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
    """Weighted sum of interval costs over the levels of :func:`tree_levels`.

    With a weight table, level i solves the children of the table's
    interval i-1; without one, the full q**i level.  Each level is one
    batched solve per worker chunk of its rows, started from the parents'
    end states.  The value is one compensated sum over every weighted row
    cost, so it does not depend on the worker count (at least 1).
    ``DimensionMismatch`` is raised before any solve if the formula's
    driving dimension or ``x0``'s length does not match the fields.
    """
    start = time.perf_counter()
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    if formula.dim != fields.driving_dim:
        raise DimensionMismatch(f"formula dim {formula.dim} != driving dim {fields.driving_dim}")
    x0 = np.zeros(fields.state_dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (fields.state_dim,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, the state is {fields.state_dim}-d")
    n_paths, levels = tree_levels(formula, partition, table)
    ends = np.zeros((1, fields.state_dim + 1))
    ends[0, 1:] = x0

    def solve_rows(i, times, x_start, derivs):
        try:
            out_times, states = solve_controlled_ode_batch(
                fields, times, derivs, x_start, steps_per_segment
            )
        except NonFiniteState as err:
            seg = i * (times.size - 1) + err.segment
            raise NonFiniteState(
                f"state left the finite range in interval {i + 1} of {partition.k}, segment {seg}",
                segment=seg,
            ) from err
        return functional.running_integral(out_times, states), states[:, -1]

    terms, interval_costs, weight_range, solves = [], [], [], 0
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for i, (times, derivs, weights, rows) in enumerate(levels):
            x_start = ends[rows]
            chunks = max(1, min(workers, weights.size))
            bounds = np.linspace(0, weights.size, chunks + 1).astype(int)
            parts = list(
                run(
                    lambda lo, hi: solve_rows(i, times, x_start[lo:hi], derivs[lo:hi]),
                    bounds[:-1],
                    bounds[1:],
                )
            )
            level = weights * np.concatenate([c for c, _ in parts])
            ends = np.concatenate([e for _, e in parts])
            if i == partition.k - 1 and functional.terminal is not None:
                level = np.concatenate([level, weights * functional.terminal(ends)])
            terms.append(level.tolist())
            interval_costs.append(math.fsum(terms[-1]))
            weight_range.append((float(weights.min()), float(weights.max())))
            solves += weights.size
    return EstimateReport(
        value=math.fsum(chain.from_iterable(terms)),
        n_paths=n_paths,
        seconds=time.perf_counter() - start,
        interval_solves=solves,
        interval_costs=tuple(interval_costs),
        interval_weight_range=tuple(weight_range),
    )


def mc_estimate(
    functional: PathFunctional,
    spec: FieldSpec,
    n_paths: int,
    grid: int,
    seed: int,
    T: float = 1.0,
) -> EstimateReport:
    """Mean functional value over seeded Euler-Maruyama sample paths.

    The paths are solved in chunks of ``MC_CHUNK_PATHS``, which fixes the
    Gaussian stream, so a result is reproducible per seed and chunk size.
    Memory is one chunk's trajectory, one reused block (about
    ``MC_BLOCK_BYTES``) of whole augmented paths, and the solver's two
    noise buffers (about ``ode.NOISE_BLOCK_BYTES`` each); each value comes
    from its own path's row, so neither block size enters a result.  A
    ``NonFiniteState`` names the chunk's path range.
    """
    if n_paths < 1:
        raise InvalidParameter(f"n_paths must be >= 1, got {n_paths}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    values = np.empty(n_paths)
    for done in range(0, n_paths, MC_CHUNK_PATHS):
        m = min(MC_CHUNK_PATHS, n_paths - done)
        try:
            times, paths = solve_sde_mc_batch(spec.mu, spec.sigma, spec.x0, T, grid, rng, m)
        except NonFiniteState as err:
            raise NonFiniteState(
                f"{err} (chunk of paths {done} to {done + m - 1} of {n_paths})",
                segment=err.segment,
            ) from err
        if done == 0:
            shape = (times.size, paths.shape[2] + 1)
            rows = max(1, min(m, MC_BLOCK_BYTES // (8 * shape[0] * shape[1])))
            block = np.empty((rows, *shape))
            block[:, :, 0] = times
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            states = block[: hi - lo]
            states[:, :, 1:] = paths[lo:hi]
            values[done + lo : done + hi] = functional.evaluate_batch(times, states)
        del paths  # free this chunk's trajectory before the next one is allocated
    mean = math.fsum(values) / n_paths
    return EstimateReport(value=mean, n_paths=n_paths, seconds=time.perf_counter() - start)


@dataclass
class BenchConfig:
    """Configuration of the convergence benchmark sweeps."""

    spec: FieldSpec
    functional: PathFunctional
    T: float = 1.0
    oracle: float | str = "analytic"
    mc_ns: tuple[int, ...] = (10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000)
    mc_replicates: int = 20
    mc_grid: int = 512
    cub_ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8)
    degree: int = 5
    gamma: float = 0.6
    basis_degree: int = 4
    p_star: int = 2
    steps_per_segment: int = 32
    seed: int = 2024
    workers: int = 1

    def __post_init__(self):
        if self.T <= 0:
            raise InvalidParameter(f"horizon T must be positive, got {self.T}")
        if self.mc_replicates < 1:
            raise InvalidParameter(f"mc_replicates must be >= 1, got {self.mc_replicates}")
        if self.workers < 1:
            raise InvalidParameter(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    error: float
    seconds: float


def _resolve_oracle(config: BenchConfig) -> tuple[float, float | None]:
    """Oracle value and (for an MC oracle) its declared standard-error band."""
    if isinstance(config.oracle, (int, float)) and not isinstance(config.oracle, bool):
        return float(config.oracle), None
    if config.oracle == "analytic":
        value = config.spec.sine_tracking_value
        if value is None or config.functional.name != "sine_tracking":
            raise OracleUnavailable(
                f"no analytic value for field {config.spec.name!r} "
                f"with functional {config.functional.name!r}"
            )
        if config.T != 1.0:
            raise OracleUnavailable(
                f"the analytic value holds for horizon T = 1 only, got T = {config.T}"
            )
        return value, None
    if config.oracle == "mc":
        report = mc_estimate(
            config.functional,
            config.spec,
            ORACLE_MC_PATHS,
            ORACLE_MC_GRID,
            seed=config.seed + 999_983,
            T=config.T,
        )
        band = 4.0 / math.sqrt(ORACLE_MC_PATHS)
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
    from .formulas import cubature_formula
    from .partition import make_partition
    from .recombination import TestBasis, preprocess

    formula = cubature_formula(config.degree, config.spec.d_b)
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

    lo, hi = MC_FIT_RANGE
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
