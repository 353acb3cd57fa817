"""Toy latent-SDE training: cubature and Monte Carlo gradient arms.

Both arms minimise the same variational objective: a Gaussian reconstruction
log-density against data paths plus a drift-mismatch penalty between the
generative and variational drifts sharing one diagonal diffusion.  The
cubature arm solves deterministic controlled ODEs along pre-processed tree
paths (the same weight table serves every epoch) with the package's one RK4
core, :func:`sdecub.ode.rk4_steps`, stepping tape nodes; the Monte Carlo arm
differentiates pathwise through Euler-Maruyama solves with frozen per-epoch
noise.  Gradients come from the recorded tape in both cases.

The two arms do not yet integrate the same SDE: RK4 along bounded-variation
paths gives the Stratonovich reading of ``dz = f dt + g dW``, Euler-Maruyama
the Ito one, and no drift correction bridges them (ROADMAP item 2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tape
from .errors import DivergenceDetected, InvalidParameter, SingularDiffusion
from .formulas import CubatureFormula, degree3_formula
from .nets import NetworkFields
from .ode import rk4_steps, solve_sde_mc_batch
from .partition import TimePartition, leaf_derivatives, make_partition
from .recombination import TestBasis, WeightTable, preprocess
from .tape import Var


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


def _loss_graph(
    nets: NetworkFields,
    leaves: dict[str, Var],
    times: np.ndarray,
    states: list[Var],
    batch_weights: np.ndarray,
    spec: VariationalLossSpec,
):
    """Misfit node, drift-mismatch node and the constant part of the loss.

    The misfit is sum_j w_j int |z_j - ybar|^2 / (2 obs_noise^2) dt and the
    mismatch K is sum_j w_j int |(f_prior - f_post) / g|^2 / 2 dt, both
    trapezoid integrals on the solver grid; K is ``None`` when the KL weight
    is zero.  The loss is misfit + const + kl_weight * K, and the
    reconstruction log-density R is -(misfit + const).
    """
    ybar, spread = _resampled_stats(spec, times)
    tau = _trapezoid_weights(times)
    inv_two_var = 1.0 / (2.0 * spec.obs_noise**2)
    d = nets.d_x
    misfit: Var | None = None
    mismatch: Var | None = None
    for i, (t, z) in enumerate(zip(times, states)):
        w = tau[i] * batch_weights
        term = tape.wsum(tape.row_sumsq(tape.cadd(z, -ybar[i])), w * inv_two_var)
        misfit = term if misfit is None else misfit + term
        if spec.kl_weight != 0.0:
            f_prior = nets.drift_prior(leaves, z, t)
            f_post = nets.drift_posterior(leaves, z, t)
            g = nets.diffusion_diag(leaves, z, t)
            smallest = float(np.min(np.abs(g.value)))
            if smallest < 1e-10:
                raise SingularDiffusion(
                    f"diffusion magnitude {smallest:.2e} below 1e-10 at t={t:.6g}"
                )
            diff = tape.mul(tape.sub(f_prior, f_post), tape.reciprocal(g))
            term = tape.wsum(tape.row_sumsq(diff), 0.5 * w)
            mismatch = term if mismatch is None else mismatch + term
    mass = float(batch_weights.sum())
    const = mass * float(
        np.dot(tau, 0.5 * d * math.log(2.0 * math.pi * spec.obs_noise**2) + spread * inv_two_var)
    )
    return misfit, mismatch, const


def variational_loss_terms(
    nets: NetworkFields,
    theta: np.ndarray,
    times: np.ndarray,
    states: np.ndarray,
    spec: VariationalLossSpec,
) -> tuple[float, float]:
    """(reconstruction log-density R, drift-mismatch penalty K) of one path.

    ``states`` holds the path's latent state at ``times``, shape (n, d_x).
    """
    nodes = [tape.const(z[None]) for z in states]
    misfit, mismatch, const = _loss_graph(nets, nets.wrap(theta), times, nodes, np.ones(1), spec)
    kl = 0.0 if mismatch is None else float(mismatch.value)
    return -(float(misfit.value) + const), kl


@dataclass(frozen=True)
class GradientReport:
    loss: float
    gradient: np.ndarray
    n_paths: int
    tape_bytes: int


def _gradient_report(
    nets: NetworkFields,
    leaves: dict[str, Var],
    times: np.ndarray,
    states: list[Var],
    batch_weights: np.ndarray,
    spec: VariationalLossSpec,
) -> GradientReport:
    """Loss graph over the solved states, reverse pass and finite check."""
    misfit, mismatch, const = _loss_graph(nets, leaves, times, states, batch_weights, spec)
    root = misfit if mismatch is None else misfit + spec.kl_weight * mismatch
    order = tape.backward(root)
    grad = nets.collect_grad(leaves)
    tape.check_finite_gradient(grad)
    return GradientReport(
        loss=float(root.value) + const,
        gradient=grad,
        n_paths=batch_weights.shape[0],
        tape_bytes=tape.tape_bytes(order),
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
    """Reverse-mode gradient of the weighted per-leaf variational loss.

    One controlled ODE per surviving leaf, batched; the gradient is the
    weighted sum of per-leaf gradients by linearity of the tape.
    """
    table.check_inputs(formula, partition)
    leaves_sorted = sorted(table.leaf_weights().items())
    if not leaves_sorted:
        return GradientReport(0.0, np.zeros(nets.n_params), 0, 0)
    seg_times, derivs = leaf_derivatives(formula, partition, [iv for iv, _ in leaves_sorted])
    weights = np.array([w for _, w in leaves_sorted])
    leaves = nets.wrap(theta)

    def rhs(t, z, g):
        return nets.drift_posterior(leaves, z, t) + nets.diffusion_diag(leaves, z, t) * g

    z0 = nets.initial_state(leaves, batch=derivs.shape[0])
    times, states = [seg_times[0]], [z0]
    for t, z in rk4_steps(rhs, seg_times, derivs, z0, steps_per_segment):
        times.append(t)
        states.append(z)
    return _gradient_report(nets, leaves, np.array(times), states, weights, spec)


def loss_and_gradient_mc(
    nets: NetworkFields,
    theta: np.ndarray,
    n_paths: int,
    grid: int,
    seed,
    spec: VariationalLossSpec,
    T: float = 1.0,
) -> GradientReport:
    """Pathwise Monte Carlo gradient through Euler-Maruyama with frozen noise."""
    if n_paths < 1:
        raise InvalidParameter("n_paths must be >= 1")
    if grid < 1:
        raise InvalidParameter("grid size must be >= 1")
    rng = np.random.default_rng(seed)
    h = T / grid
    noise = rng.standard_normal((grid, n_paths, nets.d_x)) * math.sqrt(h)
    leaves = nets.wrap(theta)
    z = nets.initial_state(leaves, batch=n_paths)
    times = np.linspace(0.0, T, grid + 1)
    states = [z]
    for step in range(grid):
        t = times[step]
        f = nets.drift_posterior(leaves, z, t)
        g = nets.diffusion_diag(leaves, z, t)
        z = z + (f * h + g * noise[step])
        states.append(z)
    weights = np.full(n_paths, 1.0 / n_paths)
    return _gradient_report(nets, leaves, times, states, weights, spec)


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
    divergence_threshold: float = 1e6


@dataclass(frozen=True)
class TrainRow:
    epoch: int
    arm: str
    loss: float
    seconds: float
    peak_bytes: int


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

    def peak_bytes(self, arm: str) -> np.ndarray:
        return np.array([r.peak_bytes for r in self.rows if r.arm == arm])

    def to_csv(self) -> str:
        lines = ["epoch,arm,loss,seconds,peak_bytes"]
        for r in self.rows:
            lines.append(
                f"{r.epoch},{r.arm},{format(r.loss, '.17g')},"
                f"{format(r.seconds, '.6f')},{r.peak_bytes}"
            )
        return "\n".join(lines) + "\n"


def make_training_data(config: TrainConfig) -> VariationalLossSpec:
    """Seeded mean-reverting data paths stored on a fixed grid."""
    d = config.d_x

    def mu(t, x):
        return config.data_rate * (config.data_mean - x)

    def sigma(t, x):
        out = np.zeros((x.shape[0], d, d))
        idx = np.arange(d)
        out[:, idx, idx] = config.data_sigma
        return out

    rng = np.random.default_rng(config.data_seed)
    times, paths = solve_sde_mc_batch(
        mu, sigma, np.zeros(d), config.T, config.data_grid, rng, config.n_data
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
        raise InvalidParameter("data dimension does not match config")
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
        rows.append(
            TrainRow(epoch, "cubature", rep.loss, time.perf_counter() - start, rep.tape_bytes)
        )
        if abs(rep.loss) > config.divergence_threshold:
            raise DivergenceDetected(f"cubature loss {rep.loss:.3e} at epoch {epoch}")
        start = time.perf_counter()
        rep = loss_and_gradient_mc(
            nets, theta_mc, n_paths, config.mc_grid, int(mc_seeds[epoch]), spec, T=config.T
        )
        theta_mc -= config.lr * rep.gradient
        rows.append(
            TrainRow(epoch, "mc", rep.loss, time.perf_counter() - start, rep.tape_bytes)
        )
        if abs(rep.loss) > config.divergence_threshold:
            raise DivergenceDetected(f"mc loss {rep.loss:.3e} at epoch {epoch}")
    return TrainingLog(rows=rows, n_paths=n_paths, theta_cubature=theta_cub, theta_mc=theta_mc)
