"""Loss and residual checks against direct-summation stencil oracles."""

import numpy as np
import pytest

from plateaulab import losses
from plateaulab.ansatz import CircuitSpec, Topology, run_circuit
from plateaulab.losses import (
    DEFAULT_PHYSICS_WEIGHT,
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
    default_target,
    loss_and_d_outputs,
    observables,
    outputs,
    pde_residual,
    total_loss,
)
from plateaulab.statevector import apply_ry, init_zero, probabilities, z_signs

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
        np.testing.assert_allclose(outputs(z_signs(3), probabilities(init_zero(3))), [1, 1, 1])

    def test_flipped_qubit(self):
        state = apply_ry(init_zero(3), 0, np.pi)
        np.testing.assert_allclose(outputs(z_signs(3), probabilities(state)), [-1, 1, 1],
                                   atol=1e-12)

    def test_bounded_for_random_circuits(self):
        rng = np.random.default_rng(20)
        spec = CircuitSpec(4, 2, Topology.ALL_TO_ALL)
        for _ in range(20):
            state = run_circuit(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
            f = outputs(z_signs(4), probabilities(state))
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
        with pytest.raises(ValueError):
            Discretization(4.0)


GRADIENT_PENALTY = LossConfig(LossKind.PDE_CONSTRAINED).physics

# The data term alone: a composite at physics weight 0 fits default_target.
DATA_TERM = LossConfig(LossKind.PDE_CONSTRAINED, physics_weight=0.0)


def mean_squared_residual(f, term, disc):
    """A physics penalty as its own formula, one value per row."""
    return np.mean(pde_residual(f, term, disc) ** 2, axis=-1)


class TestGradientPenalty:
    def test_constant_is_zero(self):
        assert mean_squared_residual(np.full(4, 0.3), GRADIENT_PENALTY, Discretization(4)) == 0.0

    def test_alternating_profile_invisible_to_stencil(self):
        disc = Discretization(4)
        assert mean_squared_residual([1, -1, 1, -1], GRADIENT_PENALTY, disc) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(23)
        disc = Discretization(8)
        f = rng.uniform(-1, 1, 8)
        d1 = stencil_d1_oracle(f, disc.dx)
        want = sum(v**2 for v in d1) / 8
        assert abs(mean_squared_residual(f, GRADIENT_PENALTY, disc) - want) < 1e-12


class TestPdeResiduals:
    @pytest.mark.parametrize("pde", ALL_PDES, ids=lambda p: p.name)
    def test_constant_profile_zero_residual(self, pde):
        disc = Discretization(6)
        res = pde_residual(np.full(6, 0.25), pde, disc)
        np.testing.assert_allclose(res, np.zeros(6), atol=1e-12)

    def test_non_finite_profile_rejected(self):
        # Heat: the same profile through Burgers also warns on inf * 0.
        with pytest.raises(ArithmeticError, match="non-finite PDE residual"):
            pde_residual(np.array([np.inf, 0.0, 0.0, 0.0]), Heat(), Discretization(4))

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
        assert mean_squared_residual(np.full(5, 0.1), pde, Discretization(5)) == 0.0

    def test_heat_loss_composition(self):
        rng = np.random.default_rng(28)
        disc = Discretization(6)
        f = rng.uniform(-1, 1, 6)
        want = 0.01**2 * np.mean(stencil_d2_oracle(f, disc.dx) ** 2)
        assert abs(mean_squared_residual(f, Heat(), disc) - want) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        disc = Discretization(6)
        for pde in ALL_PDES:
            for _ in range(5):
                assert mean_squared_residual(rng.uniform(-1, 1, 6), pde, disc) >= 0.0


class TestDataLoss:
    """The data term: mean squared error to default_target."""

    def test_equal_profiles_zero(self):
        disc = Discretization(3)
        assert loss_and_d_outputs(DATA_TERM, default_target(3), disc)[0] == 0.0

    def test_constant_offset(self):
        disc = Discretization(3)
        assert abs(loss_and_d_outputs(DATA_TERM, default_target(3) + 0.5, disc)[0] - 0.25) < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(30)
        f, t = rng.normal(size=6), default_target(6)
        want = sum((a - b) ** 2 for a, b in zip(f, t)) / 6
        assert abs(loss_and_d_outputs(DATA_TERM, f, Discretization(6))[0] - want) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_and_d_outputs(DATA_TERM, np.zeros(3), Discretization(4))


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

    @pytest.mark.parametrize(
        "cfg", [LossConfig(LossKind.PDE_CONSTRAINED, pde=pde) for pde in (None, *ALL_PDES)],
        ids=lambda c: str(c.pde_name),
    )
    def test_pde_loss_at_zero_angles_is_the_data_term(self, cfg):
        # Zero angles give f = (1,...,1) exactly; a constant profile zeroes
        # every physics term, so the loss is the data MSE to the sine target.
        spec = CircuitSpec(4, 1, Topology.ALL_TO_ALL)
        disc = Discretization(4)
        assert mean_squared_residual(np.ones(4), cfg.physics, disc) == 0.0
        value = total_loss(cfg, spec, np.zeros(spec.param_count), disc)
        assert value == np.mean((np.ones(4) - default_target(4)) ** 2)

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

    @pytest.mark.parametrize("kind", ["global_cost", None, 0])
    def test_kind_must_be_a_loss_kind(self, kind):
        with pytest.raises(ValueError, match="kind must be a LossKind"):
            LossConfig(kind)

    @pytest.mark.parametrize("pde", ["heat", Heat, 0.01])
    def test_pde_must_be_none_or_a_pde_kind(self, pde):
        with pytest.raises(ValueError, match="pde must be None"):
            LossConfig(LossKind.PDE_CONSTRAINED, pde=pde)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
    def test_physics_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ValueError):
            LossConfig(LossKind.PDE_CONSTRAINED, physics_weight=weight)

    @pytest.mark.parametrize("weight", [True, "1", None])
    def test_physics_weight_must_be_a_real_number(self, weight):
        with pytest.raises(ValueError, match="^physics_weight must be a finite real number >= 0"):
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
                loss_and_d_outputs(config, up, disc)[0]
                - loss_and_d_outputs(config, down, disc)[0]
            ) / (2 * h)
            assert abs(got[m] - numeric) < 1e-7

    def test_zero_weight_still_checks_the_residual(self):
        """Value and gradient both reject a profile whose residual is undefined."""
        config = LossConfig(LossKind.PDE_CONSTRAINED, pde=SaintVenant(), physics_weight=0.0)
        f, disc = np.full(4, -3.0), Discretization(4)
        with pytest.raises(ArithmeticError):
            d_loss_d_outputs(config, f, disc)
        with pytest.raises(ArithmeticError):
            loss_and_d_outputs(config, f, disc)


def test_default_target_is_unit_sine():
    t = default_target(8)
    np.testing.assert_allclose(t, np.sin(2 * np.pi * np.arange(8) / 8), atol=1e-15)


def test_default_target_is_one_read_only_array():
    # Cached like z_signs, so a caller that wrote to it would change every loss.
    t = default_target(5)
    assert t is default_target(5)
    assert not t.flags.writeable
    assert t.tobytes() == np.sin(2.0 * np.pi * np.arange(5) / 5).tobytes()


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

    def test_loss_key_tells_apart_every_loss_of_the_outputs(self):
        # Topology is not part of the loss of the outputs, nor is a cost's weight.
        global_cost, local_cost, constrained, structured = all_configs()
        assert constrained.loss_key == structured.loss_key
        assert LossConfig(LossKind.GLOBAL_COST, physics_weight=0.5).loss_key \
            == global_cost.loss_key
        heavier = LossConfig(LossKind.PDE_STRUCTURED, physics_weight=0.2)
        heat = LossConfig(LossKind.PDE_STRUCTURED, pde=Heat())
        keys = {c.loss_key for c in (global_cost, local_cost, constrained, heavier, heat)}
        assert len(keys) == 5

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
            numeric = (mean_squared_residual(up, term, disc)
                       - mean_squared_residual(down, term, disc)) / (2 * h)
            assert abs(got[m] - numeric) < 1e-7 * max(1.0, abs(numeric))


# Every standard config and every PDE, at the default physics weight and at 0.
BLOCK_CONFIGS = list(dict.fromkeys(
    config
    for weight in (DEFAULT_PHYSICS_WEIGHT, 0.0)
    for config in [*all_configs(weight),
                   *(LossConfig(LossKind.PDE_CONSTRAINED, pde=p, physics_weight=weight)
                     for p in ALL_PDES)]
))


def _blocks(rng, m):
    """A (B, m) block and a (2, 3, m) block of profiles."""
    return [rng.uniform(-0.9, 0.9, (5, m)), rng.uniform(-0.9, 0.9, (2, 3, m))]


def _assert_rows_match_1d(fn, block):
    """Each row of fn(block) has the bytes of fn on that row alone."""
    got = fn(block)
    for idx in np.ndindex(block.shape[:-1]):
        assert np.asarray(got[idx]).tobytes() == np.asarray(fn(block[idx])).tobytes()


class TestBlocks:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize(
        "config", BLOCK_CONFIGS, ids=lambda c: f"{c.name}-{c.pde_name}-{c.physics_weight}"
    )
    def test_outputs_and_losses_are_row_wise(self, config, n):
        rng = np.random.default_rng(n)
        disc = Discretization(n)
        obs = observables(config, n)
        for probs in _blocks(rng, 2**n):
            _assert_rows_match_1d(lambda p: outputs(obs, p), probs)
        for f in _blocks(rng, len(obs)):
            _assert_rows_match_1d(lambda g: loss_and_d_outputs(config, g, disc)[0], f)
            _assert_rows_match_1d(lambda g: d_loss_d_outputs(config, g, disc), f)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stencils_and_terms_are_row_wise(self, n):
        disc = Discretization(n)
        for f in _blocks(np.random.default_rng(n), n):
            _assert_rows_match_1d(lambda g: centered_d1(g, disc), f)
            _assert_rows_match_1d(lambda g: centered_d2(g, disc), f)
            for term in (GRADIENT_PENALTY, *ALL_PDES):
                _assert_rows_match_1d(lambda g: term.residual(g, disc), f)
                _assert_rows_match_1d(
                    lambda g: term.d_loss_d_f(g, term.residual(g, disc), disc), f)


def _separate_loss(config, f, disc):
    """The loss as its own formula: a cost's output, or data MSE plus the
    weighted mean squared residual."""
    if config.kind in (LossKind.GLOBAL_COST, LossKind.LOCAL_COST):
        return np.asarray(f, dtype=np.float64)[..., 0][()]
    f = np.asarray(f, dtype=np.float64)
    physics = mean_squared_residual(f, config.physics, disc)
    data = np.mean((f - default_target(disc.n_points)) ** 2, axis=-1)
    return data + config.physics_weight * physics


def _separate_gradient(config, f, disc):
    """dL/df as its own formula, with its own residual."""
    f = np.asarray(f, dtype=np.float64)
    if config.kind in (LossKind.GLOBAL_COST, LossKind.LOCAL_COST):
        return np.ones(f.shape)
    term = config.physics
    grad = (2.0 / disc.n_points) * (f - default_target(disc.n_points))
    return grad + config.physics_weight * term.d_loss_d_f(f, pde_residual(f, term, disc), disc)


class TestLossAndDOutputs:
    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    @pytest.mark.parametrize(
        "config", BLOCK_CONFIGS, ids=lambda c: f"{c.name}-{c.pde_name}-{c.physics_weight}"
    )
    def test_bits_of_the_separate_formulas(self, config, n):
        disc = Discretization(n)
        m = len(observables(config, n))
        for block in _blocks(np.random.default_rng(n), m):
            for f in (block, *(block[idx] for idx in np.ndindex(block.shape[:-1]))):
                loss, grad = loss_and_d_outputs(config, f, disc)
                want_loss = _separate_loss(config, f, disc)
                want_grad = _separate_gradient(config, f, disc)
                assert type(loss) is type(want_loss)
                assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
                assert grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()
                assert d_loss_d_outputs(config, f, disc).tobytes() == grad.tobytes()

    def test_one_residual_per_call(self, monkeypatch):
        config = LossConfig(LossKind.PDE_CONSTRAINED, pde=Burgers())
        calls = []
        real = losses.pde_residual
        monkeypatch.setattr(losses, "pde_residual",
                            lambda *args: calls.append(args) or real(*args))
        loss_and_d_outputs(config, np.linspace(-0.5, 0.5, 5), Discretization(5))
        assert len(calls) == 1


class TestOneProfile:
    """The CLI formats and checks values only when they are float instances."""

    @pytest.mark.parametrize(
        "config", BLOCK_CONFIGS, ids=lambda c: f"{c.name}-{c.pde_name}-{c.physics_weight}"
    )
    def test_loss_of_one_profile_is_a_float(self, config):
        f = np.linspace(-0.5, 0.5, len(observables(config, 4)))
        assert isinstance(loss_and_d_outputs(config, f, Discretization(4))[0], float)

    def test_term_and_data_losses_of_one_profile_are_floats(self):
        f, disc = np.linspace(-0.5, 0.5, 4), Discretization(4)
        for term in (GRADIENT_PENALTY, *ALL_PDES):
            assert isinstance(mean_squared_residual(f, term, disc), float)
        assert isinstance(loss_and_d_outputs(DATA_TERM, f, disc)[0], float)

    def test_malformed_profiles_rejected(self):
        disc = Discretization(4)
        config = LossConfig(LossKind.PDE_CONSTRAINED, pde=Burgers())
        calls = [
            lambda g: centered_d1(g, disc),
            lambda g: centered_d2(g, disc),
            lambda g: pde_residual(g, Heat(), disc),
            lambda g: loss_and_d_outputs(DATA_TERM, g, disc)[0],
            lambda g: loss_and_d_outputs(config, g, disc)[0],
            lambda g: d_loss_d_outputs(config, g, disc),
        ]
        for bad in (np.float64(0.3), np.zeros((3, 5))):
            for call in calls:
                with pytest.raises(ValueError):
                    call(bad)
        with pytest.raises(ValueError):
            loss_and_d_outputs(DATA_TERM, np.zeros((3, 4)), Discretization(5))

    @pytest.mark.parametrize("kind", [LossKind.GLOBAL_COST, LossKind.LOCAL_COST])
    def test_cost_takes_exactly_one_output(self, kind):
        config, disc = LossConfig(kind), Discretization(4)
        for bad in ([0.3, 0.5, 0.7, 0.9, 1.1], np.zeros(4), np.float64(0.3), np.zeros((3, 2))):
            for call in (loss_and_d_outputs, d_loss_d_outputs):
                with pytest.raises(ValueError):
                    call(config, bad, disc)
        assert loss_and_d_outputs(config, [0.3], disc)[0] == 0.3
        np.testing.assert_array_equal(loss_and_d_outputs(config, [[0.3], [0.5]], disc)[0],
                                      [0.3, 0.5])
        np.testing.assert_array_equal(d_loss_d_outputs(config, np.zeros((3, 1)), disc),
                                      np.ones((3, 1)))
