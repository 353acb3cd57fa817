"""Toy latent-SDE training: cubature and Monte Carlo gradient arms.

Both arms minimise the same variational objective: a Gaussian reconstruction
log-density against data paths plus a drift-mismatch penalty between the
generative and variational drifts sharing one diagonal diffusion.  The
cubature arm walks the pre-processed tree level by level through the
estimator's :func:`sdecub.estimator.tree_levels` (the same weight table
serves every epoch): level i gathers its rows' start states from the
parents' end states with one tape node, solves interval i along each row's
formula path with the package's one RK4 core, :func:`sdecub.ode.rk4_steps`,
stepping tape nodes, and adds the interval's misfit and mismatch weighted
by the level's row weights.  The Monte Carlo arm differentiates pathwise
through Euler-Maruyama solves with frozen per-epoch noise.  Gradients come
from the recorded tape in both cases, where each network call is one fused
node.

Each network is evaluated once per state: the variational drift and the
diffusion that a solver evaluates at a state (RK4's first stage, the Euler
step) are handed to the loss graph through a per-call dict keyed on
(state node, t), so the loss graph evaluates only the generative drift there,
and all three networks only at the last state of each level or path.

The two arms do not yet integrate the same SDE: RK4 along bounded-variation
paths gives the Stratonovich reading of ``dz = f dt + g dW``, Euler-Maruyama
the Ito one, and no drift correction bridges them (ROADMAP item 3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tape
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidParameter,
    NonFiniteGradient,
    SingularDiffusion,
)
from .estimator import tree_levels
from .fields import ou_field
from .formulas import CubatureFormula, degree3_formula
from .nets import NetworkFields
from .ode import rk4_steps, solve_sde_mc_batch
from .partition import TimePartition, make_partition
from .recombination import TestBasis, WeightTable, preprocess
from .tape import Var

DIVERGENCE_THRESHOLD = 1e6  # a loss above this in either arm stops training


@dataclass(frozen=True)
class VariationalLossSpec:
    """Observation model and data for the variational objective.

    ``data_values`` holds one or more observed paths, shape
    (n_paths, n_times, d_x); the decoder is Gaussian with fixed noise.
    """

    data_times: np.ndarray
    data_values: np.ndarray
    obs_noise: float
    kl_weight: float = 1.0

    def __post_init__(self):
        if self.data_values.ndim != 3:
            raise InvalidParameter("data_values must have shape (paths, times, d)")
        if self.data_values.shape[1] != self.data_times.shape[0]:
            raise InvalidParameter("data grid and values disagree")
        if self.obs_noise <= 0:
            raise InvalidParameter("observation noise must be positive")

    @property
    def d_x(self) -> int:
        return self.data_values.shape[2]


def _resampled_stats(spec: VariationalLossSpec, times: np.ndarray):
    """Mean data path and across-path spread on the solver grid.

    The Gaussian reconstruction term only needs the data mean and the
    (state-independent) spread: mean_j |y_j - z|^2 = |ybar - z|^2 + c.
    """
    n_paths, _, d = spec.data_values.shape
    resampled = np.empty((n_paths, times.shape[0], d))
    for j in range(n_paths):
        for c in range(d):
            resampled[j, :, c] = np.interp(
                times, spec.data_times, spec.data_values[j, :, c]
            )
    ybar = resampled.mean(axis=0)
    spread = np.sum((resampled - ybar) ** 2, axis=(0, 2)) / n_paths
    return ybar, spread


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    dt = np.diff(times)
    w = np.zeros_like(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _posterior_fields(
    nets: NetworkFields, leaves: dict[str, Var], evaluated: dict, z: Var, t
) -> tuple[Var, Var]:
    """(variational drift, diffusion) at state node ``z`` and time ``t``.

    ``evaluated`` belongs to one loss call and maps (state node, t) to the
    pair, so the solver and the loss graph share each evaluation.
    """
    key = (z, t)
    pair = evaluated.get(key)
    if pair is None:
        pair = evaluated[key] = (
            nets.drift_posterior(leaves, z, t),
            nets.diffusion_diag(leaves, z, t),
        )
    return pair


def _loss_graph(
    nets: NetworkFields,
    leaves: dict[str, Var],
    pieces: list[tuple[np.ndarray, list[Var], np.ndarray]],
    spec: VariationalLossSpec,
    evaluated: dict,
):
    """Misfit node, drift-mismatch node and the constant part of the loss.

    A piece is (times, states, batch weights w): one level of the cubature
    walk over its interval, or the whole Monte Carlo grid.  The misfit is
    sum_j w_j int |z_j - ybar|^2 / (2 obs_noise^2) dt and the mismatch K is
    sum_j w_j int |(f_prior - f_post) / g|^2 / 2 dt, both trapezoid
    integrals on each piece's grid, summed over the pieces; K is ``None``
    when the KL weight is zero.  The loss is misfit + const + kl_weight * K,
    and the reconstruction log-density R is -(misfit + const).  The
    variational drift and the diffusion come from ``evaluated`` where the
    solver already evaluated them (see :func:`_posterior_fields`).
    """
    inv_two_var = 1.0 / (2.0 * spec.obs_noise**2)
    log_norm = 0.5 * nets.d_x * math.log(2.0 * math.pi * spec.obs_noise**2)
    misfit: Var | None = None
    mismatch: Var | None = None
    const = 0.0
    for times, states, batch_weights in pieces:
        ybar, spread = _resampled_stats(spec, times)
        tau = _trapezoid_weights(times)
        for i, (t, z) in enumerate(zip(times, states)):
            w = tau[i] * batch_weights
            term = tape.wsum(tape.row_sumsq(tape.cadd(z, -ybar[i])), w * inv_two_var)
            misfit = term if misfit is None else misfit + term
            if spec.kl_weight != 0.0:
                f_prior = nets.drift_prior(leaves, z, t)
                f_post, g = _posterior_fields(nets, leaves, evaluated, z, t)
                smallest = float(np.min(np.abs(g.value)))
                if smallest < 1e-10:
                    raise SingularDiffusion(
                        f"diffusion magnitude {smallest:.2e} below 1e-10 at t={t:.6g}"
                    )
                diff = tape.mul(tape.sub(f_prior, f_post), tape.reciprocal(g))
                term = tape.wsum(tape.row_sumsq(diff), 0.5 * w)
                mismatch = term if mismatch is None else mismatch + term
        const += float(batch_weights.sum()) * float(np.dot(tau, log_norm + spread * inv_two_var))
    return misfit, mismatch, const


@dataclass(frozen=True)
class GradientReport:
    """One loss-and-gradient call: the loss is -R + kl_weight * K."""

    loss: float
    gradient: np.ndarray
    n_paths: int
    tape_bytes: int
    reconstruction: float  # R, the weighted reconstruction log-density
    mismatch: float  # K, the weighted drift-mismatch penalty (0 without KL)
    grad_norm: float


def _gradient_report(
    nets: NetworkFields,
    leaves: dict[str, Var],
    pieces: list[tuple[np.ndarray, list[Var], np.ndarray]],
    spec: VariationalLossSpec,
    evaluated: dict,
    n_paths: int,
) -> GradientReport:
    """Loss graph over the solved pieces, reverse pass and finite check;
    no pieces (an empty table) give zero loss and gradient."""
    misfit, mismatch, const = _loss_graph(nets, leaves, pieces, spec, evaluated)
    if misfit is None:
        return GradientReport(0.0, np.zeros(nets.n_params), n_paths, 0, 0.0, 0.0, 0.0)
    root = misfit if mismatch is None else misfit + spec.kl_weight * mismatch
    order = tape.backward(root)
    grad = nets.collect_grad(leaves)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains NaN or infinity")
    return GradientReport(
        loss=float(root.value) + const,
        gradient=grad,
        n_paths=n_paths,
        tape_bytes=tape.tape_bytes(order),
        reconstruction=-(float(misfit.value) + const),
        mismatch=0.0 if mismatch is None else float(mismatch.value),
        grad_norm=float(np.linalg.norm(grad)),
    )


def loss_and_gradient_cubature(
    nets: NetworkFields,
    theta: np.ndarray,
    table: WeightTable,
    formula: CubatureFormula,
    partition: TimePartition,
    spec: VariationalLossSpec,
    steps_per_segment: int = 8,
) -> GradientReport:
    """Reverse-mode gradient of the variational loss over the tree's levels.

    The estimator's level walk on the tape (see
    :func:`sdecub.estimator.tree_levels`): level i solves interval i for
    every child row from its parent's end state, one batch, and its misfit
    and mismatch over the interval are weighted by the level's row weights.
    """
    if nets.d_b != formula.dim:
        raise DimensionMismatch(f"formula dim {formula.dim} != driving dim {nets.d_b}")
    if spec.d_x != nets.d_x:
        raise DimensionMismatch(f"data dim {spec.d_x} != state dim {nets.d_x}")
    n_paths, levels = tree_levels(formula, partition, table)
    leaves = nets.wrap(theta)
    evaluated: dict = {}

    def rhs(t, z, g):
        f_post, diffusion = _posterior_fields(nets, leaves, evaluated, z, t)
        return f_post + diffusion * g

    z = nets.initial_state(leaves, batch=1)
    pieces = []
    for interval, derivs, weights, rows in levels:
        z = z[rows]
        times, states = [interval[0]], [z]
        for t, z in rk4_steps(rhs, interval, derivs, z, steps_per_segment):
            times.append(t)
            states.append(z)
        pieces.append((np.array(times), states, weights))
    return _gradient_report(nets, leaves, pieces, spec, evaluated, n_paths)


def loss_and_gradient_mc(
    nets: NetworkFields,
    theta: np.ndarray,
    n_paths: int,
    grid: int,
    seed,
    spec: VariationalLossSpec,
    T: float = 1.0,
) -> GradientReport:
    """Pathwise Monte Carlo gradient through Euler-Maruyama with frozen noise.

    The noise is one whole ``(grid, n_paths, d_x)`` draw, not
    :func:`sdecub.ode.gaussian_increments`: the tape holds ``noise[step]``
    until the backward pass, and that source overwrites its buffers.
    """
    if n_paths < 1:
        raise InvalidParameter("n_paths must be >= 1")
    if grid < 1:
        raise InvalidParameter("grid size must be >= 1")
    if T <= 0:
        raise InvalidParameter(f"horizon T must be positive, got {T}")
    if spec.d_x != nets.d_x:
        raise DimensionMismatch(f"data dim {spec.d_x} != state dim {nets.d_x}")
    rng = np.random.default_rng(seed)
    h = T / grid
    noise = rng.standard_normal((grid, n_paths, nets.d_x)) * math.sqrt(h)
    leaves = nets.wrap(theta)
    evaluated: dict = {}
    z = nets.initial_state(leaves, batch=n_paths)
    times = np.linspace(0.0, T, grid + 1)
    states = [z]
    for step in range(grid):
        f, g = _posterior_fields(nets, leaves, evaluated, z, times[step])
        z = z + (f * h + g * noise[step])
        states.append(z)
    weights = np.full(n_paths, 1.0 / n_paths)
    return _gradient_report(nets, leaves, [(times, states, weights)], spec, evaluated, n_paths)


@dataclass
class TrainConfig:
    """Everything needed to reproduce one training comparison run."""

    d_x: int = 1
    width: int = 8
    epochs: int = 200
    lr: float = 1e-2
    seed: int = 7
    degree: int = 3
    k: int = 5
    gamma: float = 0.6
    basis_degree: int = 2
    p_star: int = 2
    T: float = 1.0
    steps_per_segment: int = 8
    mc_grid: int = 200
    obs_noise: float = 0.4
    kl_weight: float = 1.0
    n_data: int = 4
    data_grid: int = 64
    data_rate: float = 1.5
    data_mean: float = 0.5
    data_sigma: float = 0.3
    data_seed: int = 1234

    def __post_init__(self):
        if self.degree != 3:
            raise InvalidParameter(f"training builds the degree-3 formula only, got {self.degree}")
        for name in ("d_x", "epochs", "n_data"):
            if getattr(self, name) < 1:
                raise InvalidParameter(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainRow:
    epoch: int
    arm: str
    loss: float
    seconds: float
    peak_bytes: int  # the call's tape.tape_bytes: node values and saved arrays, not gradients
    reconstruction: float
    mismatch: float
    grad_norm: float

    @classmethod
    def of(cls, epoch: int, arm: str, rep: GradientReport, seconds: float) -> "TrainRow":
        return cls(
            epoch, arm, rep.loss, seconds, rep.tape_bytes,
            rep.reconstruction, rep.mismatch, rep.grad_norm,
        )


@dataclass
class TrainingLog:
    rows: list[TrainRow]
    n_paths: int
    theta_cubature: np.ndarray
    theta_mc: np.ndarray

    def losses(self, arm: str) -> np.ndarray:
        return np.array([r.loss for r in self.rows if r.arm == arm])

    def seconds(self, arm: str) -> np.ndarray:
        return np.array([r.seconds for r in self.rows if r.arm == arm])

    def to_csv(self) -> str:
        lines = ["epoch,arm,loss,seconds,peak_bytes,reconstruction,mismatch,grad_norm"]
        for r in self.rows:
            lines.append(
                f"{r.epoch},{r.arm},{format(r.loss, '.17g')},"
                f"{format(r.seconds, '.6f')},{r.peak_bytes},"
                f"{format(r.reconstruction, '.17g')},{format(r.mismatch, '.17g')},"
                f"{format(r.grad_norm, '.17g')}"
            )
        return "\n".join(lines) + "\n"


def make_training_data(config: TrainConfig) -> VariationalLossSpec:
    """Seeded Ornstein-Uhlenbeck data paths from 0, stored on a fixed grid."""
    ou = ou_field(config.data_rate, config.data_mean, config.data_sigma, config.d_x)
    rng = np.random.default_rng(config.data_seed)
    times, paths = solve_sde_mc_batch(
        ou.mu, ou.sigma, ou.x0, config.T, config.data_grid, rng, config.n_data
    )
    return VariationalLossSpec(
        data_times=times,
        data_values=paths,
        obs_noise=config.obs_noise,
        kl_weight=config.kl_weight,
    )


def build_tree(config: TrainConfig):
    """Formula, partition, and weight table shared by every training epoch."""
    formula = degree3_formula(config.d_x)
    partition = make_partition(config.T, config.k, config.gamma)
    basis = TestBasis(dim=config.d_x, degree=config.basis_degree)
    table = preprocess(formula, partition, basis, p_star=config.p_star)
    return formula, partition, table


def train(config: TrainConfig, spec: VariationalLossSpec | None = None) -> TrainingLog:
    """Gradient descent with both estimators from one shared initialisation.

    The Monte Carlo arm redraws its driving noise every epoch; the cubature
    arm reuses the weight table built once up front, so its log is
    reproducible bit for bit.
    """
    if spec is None:
        spec = make_training_data(config)
    if spec.d_x != config.d_x:
        raise DimensionMismatch(f"data dim {spec.d_x} != config d_x {config.d_x}")
    formula, partition, table = build_tree(config)
    n_paths = table.n_leaves
    nets = NetworkFields(config.d_x, width=config.width)
    theta0 = nets.init_params(config.seed)
    theta_cub = theta0.copy()
    theta_mc = theta0.copy()
    rows: list[TrainRow] = []
    mc_seeds = np.random.SeedSequence(config.seed).generate_state(config.epochs)
    for epoch in range(config.epochs):
        start = time.perf_counter()
        rep = loss_and_gradient_cubature(
            nets, theta_cub, table, formula, partition, spec,
            steps_per_segment=config.steps_per_segment,
        )
        theta_cub -= config.lr * rep.gradient
        rows.append(TrainRow.of(epoch, "cubature", rep, time.perf_counter() - start))
        if abs(rep.loss) > DIVERGENCE_THRESHOLD:
            raise DivergenceDetected(f"cubature loss {rep.loss:.3e} at epoch {epoch}")
        start = time.perf_counter()
        rep = loss_and_gradient_mc(
            nets, theta_mc, n_paths, config.mc_grid, int(mc_seeds[epoch]), spec, T=config.T
        )
        theta_mc -= config.lr * rep.gradient
        rows.append(TrainRow.of(epoch, "mc", rep, time.perf_counter() - start))
        if abs(rep.loss) > DIVERGENCE_THRESHOLD:
            raise DivergenceDetected(f"mc loss {rep.loss:.3e} at epoch {epoch}")
    return TrainingLog(rows=rows, n_paths=n_paths, theta_cubature=theta_cub, theta_mc=theta_mc)
