"""Experiment sweeps: qubit scaling, depth scaling, PDE comparison,
entanglement entropy, training convergence, and scaling-exponent fits.

Every result is a deterministic function of its seed: sample i of cell
(n, L) is the draw of (seed, n, L, i) for every configuration, so the rows
of a cell are paired. Rows and traces hold computed values only, not the
sample count K or the seed they were called with.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gradients
from .ansatz import CircuitSpec, Topology, entangler_pairs, entangler_permutation
from .gradients import draw_params, gradient_variance
from .losses import (
    DEFAULT_PHYSICS_WEIGHT,
    Burgers,
    Heat,
    LossConfig,
    LossKind,
    SaintVenant,
    _check_configs,
    all_configs,
)
from .statevector import _check_count, _check_real, reduced_density_matrix, von_neumann_entropy

# Unused here, kept as bindings that bench/tracer.py wraps.
from .ansatz import run_circuit  # noqa: F401
from .gradients import loss_gradient  # noqa: F401
from .losses import total_loss  # noqa: F401

# Every protocol default, read by the signatures below and by the CLI.
QUBIT_GRID = (4, 6, 8)
DEPTH_GRID = (1, 2, 3, 4, 5)
ENTANGLEMENT_DEPTHS = (1, 3, 5)
DEFAULT_LAYERS = 3
DEFAULT_QUBITS = 6  # depth and PDE sweeps
PER_PARAM_QUBITS = 8  # per-param subcommand
TRAIN_QUBITS = 4
DEFAULT_SEED = 0
DEFAULT_PDES = (Heat(), Burgers(), SaintVenant())

DEFAULT_VARIANCE_SAMPLES = 25
MIN_ENTROPY_SAMPLES = 1
DEFAULT_ENTROPY_SAMPLES = 20
DEFAULT_EPOCHS = 50
DEFAULT_LEARNING_RATE = 0.01


@dataclass(frozen=True)
class SweepRow:
    n: int
    layers: int
    config_name: str
    pde_name: Optional[str]
    per_param_variance: np.ndarray

    @property
    def mean_variance(self) -> float:
        """Plain mean of the per-parameter variances."""
        return float(np.mean(self.per_param_variance))

    @property
    def stderr_of_mean(self) -> float:
        """Standard error of the mean over parameters: std(var_j)/sqrt(p)."""
        v = self.per_param_variance
        return float(np.std(v, ddof=1) / np.sqrt(v.size))


@dataclass(frozen=True)
class EntropyRow:
    n: int
    layers: int
    topology: str
    entropy_bits: np.ndarray

    @property
    def mean_entropy_bits(self) -> float:
        """Plain mean of the per-draw entropies."""
        return float(np.mean(self.entropy_bits))

    @property
    def ratio_to_max(self) -> float:
        """Mean entropy over its floor(n/2)-bit maximum for the half cut."""
        return self.mean_entropy_bits / (self.n // 2)


@dataclass
class TrainTrace:
    """Loss and gradient norm of one config per epoch; entry i is epoch i."""

    config_name: str
    losses: list[float]
    grad_norms: list[float]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def final_grad_norm(self) -> float:
        return self.grad_norms[-1]


class ScalingModel(enum.Enum):
    """Decay law that ``fit_scaling`` fits to variance against qubit count."""

    EXP_IN_QUBITS = "exp_in_qubits"      # var ~ 2^(-b n)
    POWER_IN_QUBITS = "power_in_qubits"  # var ~ n^(-a)


@dataclass(frozen=True)
class ScalingFit:
    """Fitted decay exponent and the norm of the fit's log-space residuals."""

    exponent: float
    residual_norm: float


def _variance_sweep(
    cells: Sequence[tuple[int, int]], configs: Sequence[LossConfig],
    n_samples: int, seed: int,
) -> list[SweepRow]:
    """One row per config per (n, layers) cell, cell-major, then config order."""
    rows = []
    for n, layers in cells:
        variances = gradient_variance(configs, n, layers, n_samples, seed)
        for config, variance in zip(configs, variances):
            rows.append(SweepRow(n, layers, config.name, config.pde_name, variance))
    return rows


def sweep_qubits(
    ns: Sequence[int] = QUBIT_GRID,
    layers: int = DEFAULT_LAYERS,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = DEFAULT_SEED,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> list[SweepRow]:
    """Gradient variance of all four configurations across qubit counts."""
    return _variance_sweep([(n, layers) for n in ns],
                           all_configs(physics_weight), n_samples, seed)


def sweep_depth(
    depths: Sequence[int] = DEPTH_GRID,
    n: int = DEFAULT_QUBITS,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = DEFAULT_SEED,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> list[SweepRow]:
    """Gradient variance of all four configurations across circuit depths."""
    return _variance_sweep([(n, layers) for layers in depths],
                           all_configs(physics_weight), n_samples, seed)


def sweep_pde(
    n: int = DEFAULT_QUBITS,
    layers: int = DEFAULT_LAYERS,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = DEFAULT_SEED,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> list[SweepRow]:
    """Gradient variance of the residual-based loss for each of DEFAULT_PDES."""
    configs = [LossConfig(LossKind.PDE_CONSTRAINED, pde=pde,
                          physics_weight=physics_weight) for pde in DEFAULT_PDES]
    return _variance_sweep([(n, layers)], configs, n_samples, seed)


def entanglement_sweep(
    ns: Sequence[int] = QUBIT_GRID,
    depths: Sequence[int] = ENTANGLEMENT_DEPTHS,
    n_samples: int = DEFAULT_ENTROPY_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[EntropyRow]:
    """Mean half-cut entanglement entropy over random initializations.

    The cut keeps the first floor(n/2) qubits; the ratio divides by their
    floor(n/2)-bit maximum. Both topologies of a cell reuse the same angle
    draws, run as the rows of ``gradients._blocks`` blocks with one live row
    per draw, one partial-trace and one entropy call per block. One
    ``entangler_permutation`` per (n, topology) serves every depth. Rows come
    n-major, then depth, then topology. ``n_samples`` must be an integer >=
    MIN_ENTROPY_SAMPLES; a cell's CircuitSpecs check its n and layers before
    it draws.
    """
    _check_count("n_samples", n_samples, MIN_ENTROPY_SAMPLES)
    rows = []
    for n in ns:
        perms = [entangler_permutation(n, entangler_pairs(CircuitSpec(n, 1, topology)))
                 for topology in Topology]
        for layers in depths:
            specs = [CircuitSpec(n, layers, topology) for topology in Topology]
            draws = np.stack([draw_params(seed, n, layers, k) for k in range(n_samples)])
            blocks = gradients._blocks(draws, 1)
            for spec, perm in zip(specs, perms):
                # gradients.run_circuit_batch is the binding bench/tracer.py counts.
                entropies = np.concatenate([
                    von_neumann_entropy(reduced_density_matrix(
                        gradients.run_circuit_batch(spec, angles, perm), range(n // 2)))
                    for angles in blocks])
                rows.append(EntropyRow(n, layers, spec.topology.value, entropies))
    return rows


def train(
    configs: Sequence[LossConfig],
    n: int = TRAIN_QUBITS,
    layers: int = DEFAULT_LAYERS,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    seed: int = DEFAULT_SEED,
) -> list[TrainTrace]:
    """Plain gradient descent of every config in lockstep, one trace each.

    Epoch 0 is the seeded starting point before any update; a trace
    therefore holds epochs + 1 entries and its final row is the state after
    the last update. Every config starts from the one draw of (seed, n,
    layers). Each epoch every config takes its step, then one run of one
    adjoint plan, built before epoch 0, gives every config's loss and
    gradient. A trace has the same bits as training its config alone. A
    non-finite step or gradient raises ArithmeticError naming the first
    failing epoch; within it, steps are checked before gradients, each in
    config order. ``configs`` must be nonempty LossConfigs, ``epochs`` an
    integer >= 1 and ``learning_rate`` a finite real number.
    """
    if not configs:
        raise ValueError("need at least one config")
    _check_configs(configs)
    _check_count("epochs", epochs, 1)
    _check_real("learning_rate", learning_rate)
    params = np.tile(draw_params(seed, n, layers, 0), (len(configs), 1))
    values = np.empty((epochs + 1, len(configs)))
    norms = np.empty_like(values)
    run = gradients._adjoint_plan([configs], n, layers)
    for epoch in range(epochs + 1):
        if epoch:
            params -= learning_rate * grads
            _check_finite(params, configs, "step", epoch)
        losses, stacks = run(params)
        values[epoch], grads = losses[0], stacks[0]
        _check_finite(grads, configs, "gradient", epoch)
        # One norm per row, np.linalg.norm's own sqrt(g . g) for a real
        # vector: norm(axis=1) sums in another order.
        norms[epoch] = [math.sqrt(grad.dot(grad)) for grad in grads]
    return [TrainTrace(c.name, v, g)
            for c, v, g in zip(configs, values.T.tolist(), norms.T.tolist())]


def _check_finite(rows: np.ndarray, configs: Sequence[LossConfig], what: str,
                  epoch: int) -> None:
    if not np.isfinite(rows).all():
        bad = next(c for c, row in zip(configs, rows) if not np.isfinite(row).all())
        raise ArithmeticError(f"non-finite {what} of {bad.name} at epoch {epoch}")


def fit_scaling(points: Sequence[tuple], model: ScalingModel) -> ScalingFit:
    """Least-squares exponent fit of variance-vs-qubit-count data: EXP_IN_QUBITS
    fits log2(var) against n (exponent b), POWER_IN_QUBITS log(var) against
    log(n) (exponent a). The residual norm of exactly two points is 0.0: the
    line passes through both, and the norm would otherwise hold rounding
    noise. A ``model`` that is not a ScalingModel, fewer than 2 distinct n,
    or an n that is not finite and positive raise ValueError; a variance
    that is not finite and positive raises ArithmeticError."""
    if not isinstance(model, ScalingModel):
        raise ValueError(f"model must be a ScalingModel, got {model!r}")
    # A set, not np.unique: that one imports numpy.ma on first use (about 1 MB RSS).
    if len({p[0] for p in points}) < 2:
        raise ValueError("need points at 2 or more distinct qubit counts to fit")
    ns = np.array([p[0] for p in points], dtype=np.float64)
    if not np.all(np.isfinite(ns) & (ns > 0)):
        raise ValueError(f"qubit counts must be finite and positive, got {ns.tolist()}")
    variances = np.array([p[1] for p in points], dtype=np.float64)
    if not np.all(np.isfinite(variances) & (variances > 0)):
        raise ArithmeticError("all variances must be finite and positive for a log fit")
    if model is ScalingModel.EXP_IN_QUBITS:
        x, y = ns, np.log2(variances)
    else:
        x, y = np.log(ns), np.log(variances)
    slope, intercept = np.polyfit(x, y, 1)
    residual = 0.0 if len(points) == 2 else np.linalg.norm(y - (slope * x + intercept))
    return ScalingFit(exponent=float(-slope), residual_norm=float(residual))
