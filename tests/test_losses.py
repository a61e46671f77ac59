"""Loss and residual checks against direct-summation stencil oracles."""

import numpy as np
import pytest

from plateaulab.ansatz import CircuitSpec, Topology, run_circuit
from plateaulab.losses import (
    Burgers,
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    SaintVenant,
    all_configs,
    centered_d1,
    centered_d2,
    d_loss_d_outputs,
    data_loss,
    default_target,
    loss_from_outputs,
    output_vector,
    pde_loss,
    pde_residual,
    physics_loss_gradient_penalty,
    total_loss,
)
from plateaulab.statevector import apply_ry, init_zero

ALL_PDES = [Heat(), Burgers(), SaintVenant()]


def stencil_d1_oracle(f, dx):
    n = len(f)
    return np.array([(f[(k + 1) % n] - f[(k - 1) % n]) / (2 * dx) for k in range(n)])


def stencil_d2_oracle(f, dx):
    n = len(f)
    return np.array(
        [(f[(k + 1) % n] - 2 * f[k] + f[(k - 1) % n]) / dx**2 for k in range(n)]
    )


class TestOutputVector:
    def test_zero_state_all_ones(self):
        np.testing.assert_allclose(output_vector(init_zero(3)), [1, 1, 1])

    def test_flipped_qubit(self):
        state = apply_ry(init_zero(3), 0, np.pi)
        np.testing.assert_allclose(output_vector(state), [-1, 1, 1], atol=1e-12)

    def test_bounded_for_random_circuits(self):
        rng = np.random.default_rng(20)
        spec = CircuitSpec(4, 2, Topology.ALL_TO_ALL)
        for _ in range(20):
            state = run_circuit(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
            f = output_vector(state)
            assert np.all(np.abs(f) <= 1 + 1e-12)


class TestStencils:
    def test_d1_constant_is_zero(self):
        disc = Discretization(6)
        np.testing.assert_array_equal(centered_d1(np.full(6, 0.7), disc), np.zeros(6))

    def test_d1_matches_oracle_on_sine(self):
        disc = Discretization(8)
        f = np.sin(2 * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(
            centered_d1(f, disc), stencil_d1_oracle(f, disc.dx), atol=1e-12
        )

    def test_d1_linearity(self):
        rng = np.random.default_rng(21)
        disc = Discretization(7)
        f, g = rng.normal(size=7), rng.normal(size=7)
        lhs = centered_d1(2.5 * f + 0.3 * g, disc)
        rhs = 2.5 * centered_d1(f, disc) + 0.3 * centered_d1(g, disc)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_d2_constant_is_zero(self):
        disc = Discretization(5)
        np.testing.assert_array_equal(centered_d2(np.full(5, -1.2), disc), np.zeros(5))

    def test_d2_matches_oracle(self):
        rng = np.random.default_rng(22)
        disc = Discretization(9)
        f = rng.normal(size=9)
        np.testing.assert_allclose(
            centered_d2(f, disc), stencil_d2_oracle(f, disc.dx), atol=1e-10
        )

    def test_d2_alternating_eigenvector(self):
        """(-1)^k profiles are -4/dx^2 eigenvectors of the second difference."""
        disc = Discretization(6)
        f = np.array([1.0, -1.0] * 3)
        np.testing.assert_allclose(centered_d2(f, disc), -4.0 / disc.dx**2 * f, atol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            centered_d1(np.zeros(5), Discretization(6))
        with pytest.raises(ValueError):
            centered_d2(np.zeros(7), Discretization(6))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            Discretization(1)


class TestGradientPenalty:
    def test_constant_is_zero(self):
        assert physics_loss_gradient_penalty(np.full(4, 0.3), Discretization(4)) == 0.0

    def test_alternating_profile_invisible_to_stencil(self):
        disc = Discretization(4)
        assert physics_loss_gradient_penalty([1, -1, 1, -1], disc) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(23)
        disc = Discretization(8)
        f = rng.uniform(-1, 1, 8)
        d1 = stencil_d1_oracle(f, disc.dx)
        want = sum(v**2 for v in d1) / 8
        assert abs(physics_loss_gradient_penalty(f, disc) - want) < 1e-12


class TestPdeResiduals:
    @pytest.mark.parametrize("pde", ALL_PDES, ids=lambda p: p.name)
    def test_constant_profile_zero_residual(self, pde):
        disc = Discretization(6)
        res = pde_residual(np.full(6, 0.25), pde, disc)
        np.testing.assert_allclose(res, np.zeros(6), atol=1e-12)

    def test_heat_residual_formula(self):
        rng = np.random.default_rng(24)
        disc = Discretization(6)
        f = rng.uniform(-1, 1, 6)
        want = 0.01 * stencil_d2_oracle(f, disc.dx)
        np.testing.assert_allclose(pde_residual(f, Heat(), disc), want, atol=1e-10)

    def test_burgers_residual_formula(self):
        rng = np.random.default_rng(25)
        disc = Discretization(6)
        f = rng.uniform(-1, 1, 6)
        want = f * stencil_d1_oracle(f, disc.dx) - 0.01 * stencil_d2_oracle(f, disc.dx)
        np.testing.assert_allclose(pde_residual(f, Burgers(), disc), want, atol=1e-10)

    def test_saint_venant_residual_formula(self):
        rng = np.random.default_rng(26)
        pde = SaintVenant()
        disc = Discretization(6)
        f = rng.uniform(-1, 1, 6)
        area = (f + 1) / 2 + pde.epsilon_floor
        q = np.sqrt(pde.friction_slope) / pde.manning_n * area ** (5 / 3)
        want = stencil_d1_oracle(q, disc.dx)
        np.testing.assert_allclose(pde_residual(f, pde, disc), want, atol=1e-10)

    def test_saint_venant_negative_area_raises(self):
        disc = Discretization(4)
        with pytest.raises(ArithmeticError):
            pde_residual(np.full(4, -3.0), SaintVenant(), disc)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            SaintVenant(epsilon_floor=0.0)

    @pytest.mark.parametrize("pde", ALL_PDES, ids=lambda p: p.name)
    def test_residual_locality(self, pde):
        """Perturbing f_m only moves residuals in {m-1, m, m+1} mod n."""
        rng = np.random.default_rng(27)
        disc = Discretization(7)
        f = rng.uniform(-0.9, 0.9, 7)
        base = pde_residual(f, pde, disc)
        for m in range(7):
            bumped = f.copy()
            bumped[m] += 1e-3
            delta = pde_residual(bumped, pde, disc) - base
            neighborhood = {(m - 1) % 7, m, (m + 1) % 7}
            for k in range(7):
                if k not in neighborhood:
                    assert delta[k] == 0.0


class TestPdeLoss:
    @pytest.mark.parametrize("pde", ALL_PDES, ids=lambda p: p.name)
    def test_constant_profile_zero(self, pde):
        assert pde_loss(np.full(5, 0.1), pde, Discretization(5)) == 0.0

    def test_heat_loss_composition(self):
        rng = np.random.default_rng(28)
        disc = Discretization(6)
        f = rng.uniform(-1, 1, 6)
        want = 0.01**2 * np.mean(stencil_d2_oracle(f, disc.dx) ** 2)
        assert abs(pde_loss(f, Heat(), disc) - want) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        disc = Discretization(6)
        for pde in ALL_PDES:
            for _ in range(5):
                assert pde_loss(rng.uniform(-1, 1, 6), pde, disc) >= 0.0


class TestDataLoss:
    def test_equal_profiles_zero(self):
        f = np.array([0.1, -0.2, 0.3])
        assert data_loss(f, f) == 0.0

    def test_constant_offset(self):
        f = np.array([0.1, -0.2, 0.3])
        assert abs(data_loss(f + 0.5, f) - 0.25) < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(30)
        f, t = rng.normal(size=6), rng.normal(size=6)
        want = sum((a - b) ** 2 for a, b in zip(f, t)) / 6
        assert abs(data_loss(f, t) - want) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            data_loss(np.zeros(3), np.zeros(4))


class TestTotalLoss:
    def test_global_cost_zero_angles(self):
        spec = CircuitSpec(4, 2, Topology.ALL_TO_ALL)
        cfg = LossConfig(LossKind.GLOBAL_COST)
        value = total_loss(cfg, spec, np.zeros(spec.param_count), Discretization(4))
        assert abs(value - 1.0) < 1e-12

    def test_local_cost_zero_angles(self):
        spec = CircuitSpec(4, 2, Topology.ALL_TO_ALL)
        cfg = LossConfig(LossKind.LOCAL_COST)
        value = total_loss(cfg, spec, np.zeros(spec.param_count), Discretization(4))
        assert abs(value - 1.0) < 1e-12

    def test_pde_loss_vanishes_when_output_equals_constant_target(self):
        # Zero angles give f = (1,...,1); a matching constant target zeroes
        # the data term and constants zero every physics term.
        spec = CircuitSpec(4, 1, Topology.ALL_TO_ALL)
        cfg = LossConfig(
            LossKind.PDE_CONSTRAINED, target_profile=(1.0, 1.0, 1.0, 1.0)
        )
        value = total_loss(cfg, spec, np.zeros(spec.param_count), Discretization(4))
        assert value == 0.0

    def test_cost_values_bounded(self):
        rng = np.random.default_rng(31)
        spec = CircuitSpec(4, 3, Topology.ALL_TO_ALL)
        disc = Discretization(4)
        for kind in (LossKind.GLOBAL_COST, LossKind.LOCAL_COST):
            cfg = LossConfig(kind)
            for _ in range(20):
                value = total_loss(cfg, spec, rng.uniform(0, 2 * np.pi, 24), disc)
                assert -1 - 1e-12 <= value <= 1 + 1e-12

    def test_mismatched_pairing_rejected(self):
        nn_spec = CircuitSpec(4, 1, Topology.NEAREST_NEIGHBOR)
        disc = Discretization(4)
        with pytest.raises(ValueError):
            total_loss(LossConfig(LossKind.GLOBAL_COST), nn_spec, np.zeros(8), disc)
        ata_spec = CircuitSpec(4, 1, Topology.ALL_TO_ALL)
        with pytest.raises(ValueError):
            total_loss(LossConfig(LossKind.PDE_STRUCTURED), ata_spec, np.zeros(8), disc)

    def test_grid_size_must_match_qubits(self):
        spec = CircuitSpec(4, 1, Topology.ALL_TO_ALL)
        with pytest.raises(ValueError):
            total_loss(LossConfig(LossKind.GLOBAL_COST), spec, np.zeros(8), Discretization(6))

    def test_global_local_reject_pde(self):
        with pytest.raises(ValueError):
            LossConfig(LossKind.GLOBAL_COST, pde=Heat())

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
    def test_physics_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ValueError):
            LossConfig(LossKind.PDE_CONSTRAINED, physics_weight=weight)


class TestOutputLossGradient:
    @pytest.mark.parametrize(
        "config",
        [
            LossConfig(LossKind.PDE_CONSTRAINED),
            LossConfig(LossKind.PDE_STRUCTURED),
            LossConfig(LossKind.PDE_CONSTRAINED, pde=Heat()),
            LossConfig(LossKind.PDE_CONSTRAINED, pde=Burgers()),
            LossConfig(LossKind.PDE_CONSTRAINED, pde=SaintVenant()),
            LossConfig(LossKind.PDE_STRUCTURED, physics_weight=0.0),
        ],
        ids=lambda c: f"{c.name}-{c.pde_name}-{c.physics_weight}",
    )
    def test_matches_numeric_derivative(self, config):
        """Analytic d(loss)/d(outputs) vs central differences in f-space."""
        rng = np.random.default_rng(32)
        disc = Discretization(6)
        f = rng.uniform(-0.9, 0.9, 6)
        got = d_loss_d_outputs(config, f, disc)
        h = 1e-6
        for m in range(6):
            up, down = f.copy(), f.copy()
            up[m] += h
            down[m] -= h
            numeric = (
                loss_from_outputs(config, up, disc)
                - loss_from_outputs(config, down, disc)
            ) / (2 * h)
            assert abs(got[m] - numeric) < 1e-7


def test_default_target_is_unit_sine():
    t = default_target(8)
    np.testing.assert_allclose(t, np.sin(2 * np.pi * np.arange(8) / 8), atol=1e-15)


def test_all_configs_lists_the_four_kinds():
    names = [c.name for c in all_configs()]
    assert names == ["global_cost", "local_cost", "pde_constrained", "pde_structured"]


class TestPhysicsTerms:
    def test_no_pde_selects_the_gradient_penalty(self):
        config = LossConfig(LossKind.PDE_CONSTRAINED)
        f = np.random.default_rng(4).uniform(-1, 1, 5)
        disc = Discretization(5)
        assert config.pde_name is None
        np.testing.assert_array_equal(config.physics.residual(f, disc),
                                      centered_d1(f, disc))
        assert LossConfig(LossKind.PDE_CONSTRAINED, pde=Heat()).physics == Heat()

    @pytest.mark.parametrize(
        "config",
        [LossConfig(LossKind.PDE_CONSTRAINED, pde=p) for p in [None, *ALL_PDES]],
        ids=lambda c: str(c.pde_name),
    )
    def test_d_loss_d_f_is_the_gradient_of_the_mean_squared_residual(self, config):
        term, disc = config.physics, Discretization(6)
        f = np.random.default_rng(33).uniform(-0.9, 0.9, 6)
        got = term.d_loss_d_f(f, term.residual(f, disc), disc)
        h = 1e-6
        for m in range(6):
            up, down = f.copy(), f.copy()
            up[m] += h
            down[m] -= h
            numeric = (pde_loss(up, term, disc) - pde_loss(down, term, disc)) / (2 * h)
            assert abs(got[m] - numeric) < 1e-7 * max(1.0, abs(numeric))
