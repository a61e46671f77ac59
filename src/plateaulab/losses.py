"""Loss functions mapping circuit outputs to scalars.

Four configurations: a global parity cost, a single-qubit local cost, and
two physics-informed losses (data MSE plus a weighted physics penalty)
differing only in which entangling topology they pair with. Every physics
penalty is the mean squared local residual r(f) at the collocation points of
a periodic unit-length grid, one per qubit (dx = 1/n); residuals are
steady-state. Each term (Heat, Burgers, SaintVenant, and the
squared-gradient penalty of a config without a PDE, whose residual is df/dx)
defines ``residual(f, disc)`` and ``d_loss_d_f(f, r, disc)``, the gradient
of mean(r^2) at r = residual(f); a PDE's coefficients are class constants,
not fields. A composite checks its residual even at physics weight 0, in
its loss and its gradient alike. Every function of profiles takes a
``(..., n)`` block along the last axis, each row with the bits of its 1-D
call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union, get_args

import numpy as np

from .ansatz import CircuitSpec, Topology, _check_params, run_circuit_batch
from .statevector import _check_count, _check_real, outputs, probabilities, z_signs
# Unused here, kept as bindings that bench/tracer.py wraps.
from .ansatz import run_circuit  # noqa: F401
from .statevector import expect_z, expect_z_string  # noqa: F401


# A d_loss_d_f applies the adjoint of its residual's stencils: centered_d1 is
# antisymmetric and centered_d2 symmetric, and pointwise factors stay diagonal.
@dataclass(frozen=True)
class Heat:
    """Linear diffusion: residual kappa * d2f/dx2."""

    kappa = 0.01

    name = "heat"

    def residual(self, f, disc: Discretization) -> np.ndarray:
        return self.kappa * centered_d2(f, disc)

    def d_loss_d_f(self, f, res, disc: Discretization) -> np.ndarray:
        return (2.0 / disc.n_points) * self.kappa * centered_d2(res, disc)


@dataclass(frozen=True)
class Burgers:
    """Nonlinear advection-diffusion: residual f*df/dx - nu * d2f/dx2."""

    nu = 0.01

    name = "burgers"

    def residual(self, f, disc: Discretization) -> np.ndarray:
        return f * centered_d1(f, disc) - self.nu * centered_d2(f, disc)

    def d_loss_d_f(self, f, res, disc: Discretization) -> np.ndarray:
        d1f = centered_d1(f, disc)
        return (2.0 / disc.n_points) * (d1f * res - centered_d1(f * res, disc)
                                        - self.nu * centered_d2(res, disc))


@dataclass(frozen=True)
class SaintVenant:
    """Shallow-water continuity closed by Manning's discharge relation.

    The output profile maps to a cross-section area A = (f+1)/2 + epsilon_floor
    (the floor keeps the fractional power well defined), the wide-channel
    approximation sets the hydraulic radius equal to A, and the residual is
    the spatial divergence of the discharge Q = A^(5/3) * sqrt(S_f) / n_M.
    """

    manning_n = 0.035
    friction_slope = 0.001
    epsilon_floor = 0.05

    name = "saint_venant"

    def _area_and_coeff(self, f) -> tuple[np.ndarray, float]:
        area = (f + 1.0) / 2.0 + self.epsilon_floor
        return area, np.sqrt(self.friction_slope) / self.manning_n

    def residual(self, f, disc: Discretization) -> np.ndarray:
        area, coeff = self._area_and_coeff(f)
        with np.errstate(invalid="ignore"):
            discharge = coeff * area ** (5.0 / 3.0)
        if not np.all(np.isfinite(discharge)):
            raise ArithmeticError("non-finite discharge "
                                  "(negative area raised to fractional power)")
        return centered_d1(discharge, disc)

    def d_loss_d_f(self, f, res, disc: Discretization) -> np.ndarray:
        area, coeff = self._area_and_coeff(f)
        dq_df = coeff * (5.0 / 3.0) * area ** (2.0 / 3.0) * 0.5
        return -(2.0 / disc.n_points) * dq_df * centered_d1(res, disc)


class _GradientPenalty:
    """Squared-gradient penalty, the physics term without a PDE: residual df/dx."""

    def residual(self, f, disc: Discretization) -> np.ndarray:
        return centered_d1(f, disc)

    def d_loss_d_f(self, f, res, disc: Discretization) -> np.ndarray:
        return -(2.0 / disc.n_points) * centered_d1(res, disc)


_GRADIENT_PENALTY = _GradientPenalty()

PdeKind = Union[Heat, Burgers, SaintVenant]


@dataclass(frozen=True)
class Discretization:
    """Periodic collocation grid with one point per qubit, dx = 1/n."""

    n_points: int

    def __post_init__(self) -> None:
        # A centered +-1 stencil wants >= 3 points; n = 2 is allowed so the
        # smallest circuits can still be differentiated, with the first
        # derivative degenerating to zero there.
        _check_count("n_points", self.n_points, 2)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_points


class LossKind(enum.Enum):
    """Kind of a loss configuration; each kind requires one entangling topology."""

    GLOBAL_COST = "global_cost"
    LOCAL_COST = "local_cost"
    PDE_CONSTRAINED = "pde_constrained"
    PDE_STRUCTURED = "pde_structured"


_COST_KINDS = (LossKind.GLOBAL_COST, LossKind.LOCAL_COST)

_REQUIRED_TOPOLOGY = {
    LossKind.GLOBAL_COST: Topology.ALL_TO_ALL,
    LossKind.LOCAL_COST: Topology.ALL_TO_ALL,
    LossKind.PDE_CONSTRAINED: Topology.ALL_TO_ALL,
    LossKind.PDE_STRUCTURED: Topology.NEAREST_NEIGHBOR,
}

DEFAULT_PHYSICS_WEIGHT = 0.1


@dataclass(frozen=True)
class LossConfig:
    """One loss configuration.

    Raises ValueError unless ``kind`` is a LossKind, ``pde`` is None or a
    Heat, Burgers or SaintVenant instance (None for the two costs) and
    ``physics_weight`` a finite real number >= 0. For the two PDE kinds,
    ``pde = None`` selects the squared-gradient penalty as the physics term.
    The data term of both composite kinds fits ``default_target``.
    """

    kind: LossKind
    pde: Optional[PdeKind] = None
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT

    def __post_init__(self) -> None:
        if not isinstance(self.kind, LossKind):
            raise ValueError(f"kind must be a LossKind, got {self.kind!r}")
        if not isinstance(self.pde, get_args(Optional[PdeKind])):
            raise ValueError(f"pde must be None, Heat, Burgers or SaintVenant, got {self.pde!r}")
        if self.kind in _COST_KINDS and self.pde is not None:
            raise ValueError(f"{self.kind.value} does not take a PDE")
        _check_real("physics_weight", self.physics_weight, 0)

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def pde_name(self) -> Optional[str]:
        return None if self.pde is None else self.pde.name

    @property
    def physics(self) -> Union[PdeKind, _GradientPenalty]:
        """The physics term: the PDE kind, or the squared-gradient penalty."""
        return _GRADIENT_PENALTY if self.pde is None else self.pde

    @property
    def loss_key(self) -> Union[LossKind, tuple]:
        """Equal for configs with one loss of the outputs, which may differ
        in required topology: a cost's kind, a composite's physics term and
        weight."""
        return self.kind if self.kind in _COST_KINDS else (self.physics, self.physics_weight)

    def required_topology(self) -> Topology:
        return _REQUIRED_TOPOLOGY[self.kind]


@lru_cache(maxsize=None)
def default_target(n: int) -> np.ndarray:
    """Read-only fixed smooth data target: sin(2*pi*k/n) on the unit grid."""
    target = np.sin(2.0 * np.pi * np.arange(n) / n)
    target.flags.writeable = False
    return target


def _check_configs(configs) -> None:
    """Raise ValueError naming the first entry, ``configs[i]``, that is not a
    LossConfig; callers check before any draw or circuit."""
    for i, config in enumerate(configs):
        if not isinstance(config, LossConfig):
            raise ValueError(f"configs[{i}] must be a LossConfig, got {config!r}")


def all_configs(physics_weight: float = DEFAULT_PHYSICS_WEIGHT) -> list[LossConfig]:
    """The four standard configurations, physics term = gradient penalty."""
    return [
        LossConfig(LossKind.GLOBAL_COST),
        LossConfig(LossKind.LOCAL_COST),
        LossConfig(LossKind.PDE_CONSTRAINED, physics_weight=physics_weight),
        LossConfig(LossKind.PDE_STRUCTURED, physics_weight=physics_weight),
    ]


def observables(config: LossConfig, n: int) -> np.ndarray:
    """Diagonals, shape (m, 2^n), whose expectations are the loss outputs:
    f = outputs(observables(config, n), probs) is the parity row of the global
    cost, the Z_0 row of the local cost and every Z_k of a composite."""
    signs = z_signs(n)
    if config.kind is LossKind.GLOBAL_COST:
        return np.prod(signs, axis=0, keepdims=True)
    if config.kind is LossKind.LOCAL_COST:
        return signs[:1]
    return signs


def _check_profile(f, length: int) -> np.ndarray:
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape[-1:] != (length,):
        raise ValueError(f"expected {length} values on the last axis, got shape {arr.shape}")
    return arr


@lru_cache(maxsize=None)
def _neighbours(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only periodic indices (k+1 mod n, k-1 mod n) of every grid point k."""
    k = np.arange(n_points)
    pair = ((k + 1) % n_points, (k - 1) % n_points)
    for idx in pair:
        idx.flags.writeable = False
    return pair


# arr.take, not arr[..., idx]: the fancy index returns a block that is not
# C-contiguous, and a row's bits downstream depend on its layout.
def centered_d1(f, disc: Discretization) -> np.ndarray:
    """Periodic centered first difference (f_{k+1} - f_{k-1}) / (2 dx)."""
    arr = _check_profile(f, disc.n_points)
    up, down = _neighbours(disc.n_points)
    return (arr.take(up, axis=-1) - arr.take(down, axis=-1)) / (2.0 * disc.dx)


def centered_d2(f, disc: Discretization) -> np.ndarray:
    """Periodic centered second difference (f_{k+1} - 2 f_k + f_{k-1}) / dx^2."""
    arr = _check_profile(f, disc.n_points)
    up, down = _neighbours(disc.n_points)
    return (arr.take(up, axis=-1) - 2.0 * arr + arr.take(down, axis=-1)) / disc.dx**2


def pde_residual(f, pde: PdeKind, disc: Discretization) -> np.ndarray:
    """Steady spatial residual of the given PDE on the periodic grid."""
    res = pde.residual(_check_profile(f, disc.n_points), disc)
    if not np.all(np.isfinite(res)):
        raise ArithmeticError("non-finite PDE residual")
    return res


def loss_and_d_outputs(config: LossConfig, f,
                       disc: Discretization) -> tuple[float | np.ndarray, np.ndarray]:
    """Loss of each row of outputs f of ``observables(config, n)`` and its
    analytic gradient dL/df. A cost is its single output, with gradient ones
    shaped like f; a composite is data MSE plus the weighted physics penalty,
    both from one residual. The last axis of f must hold the m outputs: 1 for
    a cost, n for a composite."""
    if config.kind in _COST_KINDS:
        arr = _check_profile(f, 1)
        return arr[..., 0][()], np.ones(arr.shape)
    arr = _check_profile(f, disc.n_points)
    physics = config.physics
    res = pde_residual(arr, physics, disc)
    misfit = arr - default_target(disc.n_points)
    # np.mean's own arithmetic, a sum then one division, without its wrappers.
    m = disc.n_points
    loss = (np.add.reduce(misfit**2, axis=-1) / m
            + config.physics_weight * (np.add.reduce(res**2, axis=-1) / m))
    grad = ((2.0 / m) * misfit
            + config.physics_weight * physics.d_loss_d_f(arr, res, disc))
    return loss, grad


def d_loss_d_outputs(config: LossConfig, f, disc: Discretization) -> np.ndarray:
    """The gradient dL/df of ``loss_and_d_outputs``."""
    return loss_and_d_outputs(config, f, disc)[1]


def total_loss(config: LossConfig, spec: CircuitSpec, params, disc: Discretization) -> float:
    """Run the circuit, as ``run_circuit_batch`` with ``z_readout``, and
    evaluate the configured loss; ValueError unless ``params`` holds
    param_count angles."""
    check_pairing(config, spec, disc)
    angles = _check_params(spec, params)
    probs = probabilities(run_circuit_batch(spec, angles[None], z_readout=True)[0])
    f = outputs(observables(config, spec.n_qubits), probs)
    return loss_and_d_outputs(config, f, disc)[0]


def check_pairing(config: LossConfig, spec: CircuitSpec, disc: Discretization) -> None:
    """Reject mismatched config/topology/grid combinations."""
    required = config.required_topology()
    if spec.topology is not required:
        raise ValueError(
            f"{config.name} requires topology {required.value}, "
            f"got {spec.topology.value}"
        )
    if disc.n_points != spec.n_qubits:
        raise ValueError(
            f"grid has {disc.n_points} points but circuit has {spec.n_qubits} qubits"
        )
