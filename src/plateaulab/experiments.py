"""Experiment sweeps: qubit scaling, depth scaling, PDE comparison,
entanglement entropy, training convergence, and scaling-exponent fits.

Every sweep is a deterministic function of its seed. Sample i of cell (n, L)
always uses the draw from (seed, n, L, i) regardless of configuration, so
rows of the same cell are paired and directly comparable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ansatz import CircuitSpec, Topology, run_circuit
from .gradients import draw_params, gradient_variance, loss_and_gradient
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
from .gradients import loss_gradient  # noqa: F401
from .losses import total_loss  # noqa: F401

QUBIT_GRID = (4, 6, 8)
DEPTH_GRID = (1, 2, 3, 4, 5)
ENTANGLEMENT_DEPTHS = (1, 3, 5)
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
    mean_variance: float
    per_param_variance: np.ndarray
    n_samples: int
    seed: int

    @property
    def stderr_of_mean(self) -> float:
        """Standard error of the mean over parameters: std(var_j)/sqrt(p)."""
        v = self.per_param_variance
        return float(np.std(v, ddof=1) / np.sqrt(v.size))


@dataclass
class SweepResult:
    experiment: str
    rows: list[SweepRow] = field(default_factory=list)


@dataclass(frozen=True)
class EntropyRow:
    n: int
    layers: int
    topology: str
    mean_entropy_bits: float
    ratio_to_max: float
    n_samples: int
    seed: int


@dataclass
class EntropyResult:
    experiment: str
    rows: list[EntropyRow] = field(default_factory=list)


@dataclass(frozen=True)
class TrainEpoch:
    epoch_index: int
    loss_value: float
    gradient_norm: float


@dataclass
class TrainTrace:
    config_name: str
    seed: int
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


def _variance_row(
    config: LossConfig, n: int, layers: int, n_samples: int, seed: int
) -> SweepRow:
    n, layers = int(n), int(layers)
    spec = CircuitSpec(n, layers, config.required_topology())
    report = gradient_variance(config, spec, Discretization(n), n_samples, seed)
    return SweepRow(
        n=n,
        layers=layers,
        config_name=config.name,
        pde_name=config.pde_name,
        mean_variance=report.mean_variance,
        per_param_variance=report.per_param_variance,
        n_samples=n_samples,
        seed=seed,
    )


def sweep_qubits(
    ns: Sequence[int] = QUBIT_GRID,
    layers: int = 3,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = 0,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> SweepResult:
    """Gradient variance of all four configurations across qubit counts."""
    result = SweepResult("sweep_qubits")
    for n in ns:
        for config in all_configs(physics_weight):
            result.rows.append(_variance_row(config, n, layers, n_samples, seed))
    return result


def sweep_depth(
    depths: Sequence[int] = DEPTH_GRID,
    n: int = 6,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = 0,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> SweepResult:
    """Gradient variance of all four configurations across circuit depths."""
    result = SweepResult("sweep_depth")
    for layers in depths:
        for config in all_configs(physics_weight):
            result.rows.append(_variance_row(config, n, layers, n_samples, seed))
    return result


def sweep_pde(
    pdes: Sequence[PdeKind] = DEFAULT_PDES,
    n: int = 6,
    layers: int = 3,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = 0,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> SweepResult:
    """Gradient variance of the residual-based loss across PDE kinds."""
    result = SweepResult("sweep_pde")
    for pde in pdes:
        config = LossConfig(
            LossKind.PDE_CONSTRAINED, pde=pde, physics_weight=physics_weight
        )
        result.rows.append(_variance_row(config, n, layers, n_samples, seed))
    return result


def per_param_distribution(
    n: int = 8,
    layers: int = 3,
    n_samples: int = DEFAULT_VARIANCE_SAMPLES,
    seed: int = 0,
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT,
) -> SweepResult:
    """Full per-parameter variance vectors of all four configurations."""
    result = SweepResult("per_param")
    for config in all_configs(physics_weight):
        result.rows.append(_variance_row(config, n, layers, n_samples, seed))
    return result


def entanglement_sweep(
    ns: Sequence[int] = QUBIT_GRID,
    depths: Sequence[int] = ENTANGLEMENT_DEPTHS,
    n_samples: int = DEFAULT_ENTROPY_SAMPLES,
    seed: int = 0,
) -> EntropyResult:
    """Mean half-cut entanglement entropy over random initializations.

    The cut keeps the first floor(n/2) qubits; the ratio divides by the
    n/2-bit maximum. Both topologies of a cell reuse the same angle draws.
    """
    if n_samples < 1:
        raise ValueError("need at least 1 sample")
    result = EntropyResult("entanglement")
    for n in ns:
        n = int(n)
        half = n // 2
        for layers in depths:
            layers = int(layers)
            draws = [draw_params(seed, n, layers, k) for k in range(n_samples)]
            for topology in (Topology.NEAREST_NEIGHBOR, Topology.ALL_TO_ALL):
                spec = CircuitSpec(n, layers, topology)
                entropies = []
                for angles in draws:
                    state = run_circuit(spec, angles)
                    rho = reduced_density_matrix(state, range(half))
                    entropies.append(von_neumann_entropy(rho))
                mean_bits = float(np.mean(entropies))
                result.rows.append(
                    EntropyRow(
                        n=n,
                        layers=layers,
                        topology=topology.value,
                        mean_entropy_bits=mean_bits,
                        ratio_to_max=mean_bits / (n / 2.0),
                        n_samples=n_samples,
                        seed=seed,
                    )
                )
    return result


def train(
    config: LossConfig,
    n: int = 4,
    layers: int = 3,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    seed: int = 0,
) -> TrainTrace:
    """Plain gradient descent, recording loss and gradient norm per epoch.

    Epoch 0 is the seeded starting point before any update; the trace
    therefore holds epochs + 1 entries and the final row is the state after
    the last update. The starting draw depends only on (seed, n, layers), so
    configurations of the same shape start from identical angles.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    spec = CircuitSpec(n, layers, config.required_topology())
    disc = Discretization(n)
    params = draw_params(seed, n, layers, 0)
    trace = TrainTrace(config_name=config.name, seed=seed, epochs=[])
    for epoch in range(epochs + 1):
        if epoch:
            params = params - learning_rate * grad
        value, grad = loss_and_gradient(config, spec, params, disc)
        trace.epochs.append(TrainEpoch(epoch, value, float(np.linalg.norm(grad))))
    return trace


def fit_scaling(points: Sequence[tuple], model: ScalingModel) -> ScalingFit:
    """Least-squares exponent fit of variance-vs-qubit-count data.

    EXP_IN_QUBITS fits log2(var) against n (var ~ 2^(-b n), exponent b);
    POWER_IN_QUBITS fits log(var) against log(n) (var ~ n^(-a), exponent a).
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points to fit")
    ns = np.array([p[0] for p in points], dtype=np.float64)
    variances = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(variances <= 0):
        raise ArithmeticError("all variances must be positive for a log fit")
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
