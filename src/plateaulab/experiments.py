"""Experiment sweeps: qubit scaling, depth scaling, PDE comparison,
entanglement entropy, training convergence, and scaling-exponent fits.

Every sweep is a deterministic function of its seed. Sample i of cell (n, L)
always uses the draw from (seed, n, L, i) regardless of configuration, so
rows of the same cell are paired and directly comparable.

A sweep returns a list of rows and training a list of traces; both hold only
computed values. The sample count K and the seed are the caller's arguments,
so a row does not repeat them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gradients
from .ansatz import CircuitSpec, Topology
from .gradients import draw_params, gradient_variance
from .losses import (
    DEFAULT_PHYSICS_WEIGHT,
    Burgers,
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    PdeKind,
    SaintVenant,
    all_configs,
)
from .statevector import reduced_density_matrix, von_neumann_entropy

# Unused here, kept as bindings that bench/tracer.py wraps.
from .ansatz import run_circuit  # noqa: F401
from .gradients import loss_gradient  # noqa: F401
from .losses import total_loss  # noqa: F401

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
    mean_entropy_bits: float

    @property
    def ratio_to_max(self) -> float:
        """Mean entropy over its floor(n/2)-bit maximum for the half cut."""
        return self.mean_entropy_bits / (self.n // 2)


@dataclass(frozen=True)
class TrainEpoch:
    """One entry of a trace; its epoch number is its position in the list."""

    loss_value: float
    gradient_norm: float


@dataclass
class TrainTrace:
    config_name: str
    epochs: list[TrainEpoch]

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss_value

    @property
    def final_grad_norm(self) -> float:
        return self.epochs[-1].gradient_norm


class ScalingModel(enum.Enum):
    EXP_IN_QUBITS = "exp_in_qubits"      # var ~ 2^(-b n)
    POWER_IN_QUBITS = "power_in_qubits"  # var ~ n^(-a)


@dataclass(frozen=True)
class ScalingFit:
    model: ScalingModel
    exponent: float
    residual_norm: float


def _variance_sweep(
    cells: Sequence[tuple[int, int]], configs: Sequence[LossConfig],
    n_samples: int, seed: int,
) -> list[SweepRow]:
    """One row per config per (n, layers) cell, cell-major, then config order."""
    rows = []
    for n, layers in cells:
        n, layers = int(n), int(layers)
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
    pdes: Sequence[PdeKind] = DEFAULT_PDES,
    n: int = DEFAULT_QUBITS,
    layers: int = DEFAULT_LAYERS,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = DEFAULT_SEED,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> list[SweepRow]:
    """Gradient variance of the residual-based loss across PDE kinds."""
    configs = [LossConfig(LossKind.PDE_CONSTRAINED, pde=pde,
                          physics_weight=physics_weight) for pde in pdes]
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
    draws; they run as rows of batches of at most p draws, and each batch
    takes one partial-trace and one entropy call.
    """
    if n_samples < 1:
        raise ValueError("need at least 1 sample")
    rows = []
    for n in ns:
        n = int(n)
        half = n // 2
        for layers in depths:
            layers = int(layers)
            draws = np.stack([draw_params(seed, n, layers, k) for k in range(n_samples)])
            for topology in (Topology.NEAREST_NEIGHBOR, Topology.ALL_TO_ALL):
                spec = CircuitSpec(n, layers, topology)
                p = spec.param_count
                # One live row per draw: at most p live rows per block, the
                # rule of gradient_variance. gradients.run_circuit_batch is
                # the binding bench/tracer.py counts.
                entropies = np.concatenate([
                    von_neumann_entropy(reduced_density_matrix(
                        gradients.run_circuit_batch(spec, angles), range(half)))
                    for angles in np.split(draws, range(p, n_samples, p))])
                rows.append(EntropyRow(n=n, layers=layers, topology=topology.value,
                                       mean_entropy_bits=float(np.mean(entropies))))
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
    layers). Each epoch, every config takes its step; then each topology
    runs one adjoint forward and backward sweep with its configs' angles as
    rows and one lambda row per config, so config k of a topology reads its
    loss and gradient at its own row. A trace has the same bits as training
    its config alone. A non-finite step or gradient raises ArithmeticError
    naming the first failing epoch; within it, steps are checked before
    gradients, each in config order.
    """
    if not configs:
        raise ValueError("need at least one config")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not np.isfinite(learning_rate):
        raise ValueError(f"learning_rate must be finite, got {learning_rate}")
    disc = Discretization(n)
    groups = [(CircuitSpec(n, layers, topology), members)
              for topology, members in gradients._members_by_topology(configs).items()]
    params = np.tile(draw_params(seed, n, layers, 0), (len(configs), 1))
    grads = np.empty_like(params)
    values = np.empty(len(configs))
    traces = [TrainTrace(config_name=c.name, epochs=[]) for c in configs]
    for epoch in range(epochs + 1):
        if epoch:
            params -= learning_rate * grads
            _check_finite(params, configs, "step", epoch)
        for spec, members in groups:
            losses, stacks = gradients._adjoint_gradients(
                [[configs[i] for i in members]], spec, params[members], disc)
            values[members], grads[members] = losses[0], stacks[0]
        _check_finite(grads, configs, "gradient", epoch)
        for trace, value, grad in zip(traces, values, grads):
            trace.epochs.append(TrainEpoch(value, float(np.linalg.norm(grad))))
    return traces


def _check_finite(rows: np.ndarray, configs: Sequence[LossConfig], what: str,
                  epoch: int) -> None:
    if not np.isfinite(rows).all():
        bad = next(c for c, row in zip(configs, rows) if not np.isfinite(row).all())
        raise ArithmeticError(f"non-finite {what} of {bad.name} at epoch {epoch}")


def fit_scaling(points: Sequence[tuple], model: ScalingModel) -> ScalingFit:
    """Least-squares exponent fit of variance-vs-qubit-count data.

    EXP_IN_QUBITS fits log2(var) against n (var ~ 2^(-b n), exponent b);
    POWER_IN_QUBITS fits log(var) against log(n) (var ~ n^(-a), exponent a).
    Fewer than 2 distinct n, or an n that is not finite and positive, raise
    ValueError; a variance that is not finite and positive raises
    ArithmeticError.
    """
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
    residual = y - (slope * x + intercept)
    return ScalingFit(
        model=model,
        exponent=float(-slope),
        residual_norm=float(np.linalg.norm(residual)),
    )
