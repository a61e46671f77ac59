"""Parameter-shift, chain-rule and variance-protocol checks."""

import numpy as np
import pytest

from plateaulab import gradients
from plateaulab.ansatz import CircuitSpec, Topology
from plateaulab.gradients import (
    draw_params,
    finite_difference_gradient,
    gradient_variance,
    jacobian_outputs,
    loss_and_gradient,
    loss_gradient,
)
from plateaulab.losses import (
    Burgers,
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    SaintVenant,
    all_configs,
    observables,
    total_loss,
)

ATA = Topology.ALL_TO_ALL


def spec_for(config, n, layers):
    return CircuitSpec(n, layers, config.required_topology())


class TestJacobian:
    def test_zero_angles_stationary(self):
        spec = CircuitSpec(2, 1, ATA)
        jac = jacobian_outputs(spec, np.zeros(4))
        # d<Z_0>/d(RY on qubit 0) = -sin(0) = 0
        assert abs(jac[0, 0]) < 1e-14

    def test_quarter_turn_derivative(self):
        spec = CircuitSpec(2, 1, ATA)
        jac = jacobian_outputs(spec, np.array([np.pi / 2, 0, 0, 0]))
        # d<Z_0>/d(RY on qubit 0) = -sin(pi/2) = -1
        assert abs(jac[0, 0] + 1.0) < 1e-12

    def test_final_layer_rz_columns_are_dead(self):
        # RZ just before the entangler commutes with every Z-string pulled
        # back through the CNOTs, so the last layer's RZ angles cannot move
        # any Z-diagonal output.
        rng = np.random.default_rng(40)
        spec = CircuitSpec(3, 1, ATA)
        jac = jacobian_outputs(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
        np.testing.assert_allclose(jac[:, 3:6], 0.0, atol=1e-14)

    def test_earlier_rz_columns_live_and_match_fd(self):
        rng = np.random.default_rng(41)
        spec = CircuitSpec(3, 2, ATA)
        angles = rng.uniform(0, 2 * np.pi, spec.param_count)
        jac = jacobian_outputs(spec, angles)
        assert np.max(np.abs(jac[:, 3:6])) > 1e-3  # layer-1 RZ block
        from plateaulab.ansatz import run_circuit
        from plateaulab.losses import output_vector

        for k in range(3):
            fd = finite_difference_gradient(
                lambda q: output_vector(run_circuit(spec, q))[k], angles, 1e-5
            )
            np.testing.assert_allclose(jac[k], fd, atol=1e-8)

    def test_entries_bounded_by_one(self):
        rng = np.random.default_rng(42)
        spec = CircuitSpec(4, 2, ATA)
        jac = jacobian_outputs(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
        assert np.max(np.abs(jac)) <= 1.0 + 1e-12


class TestLossGradient:
    @pytest.mark.parametrize(
        "config",
        all_configs()
        + [
            LossConfig(LossKind.PDE_CONSTRAINED, pde=Heat()),
            LossConfig(LossKind.PDE_CONSTRAINED, pde=Burgers()),
            LossConfig(LossKind.PDE_CONSTRAINED, pde=SaintVenant()),
            LossConfig(LossKind.PDE_STRUCTURED, pde=Heat()),
        ],
        ids=lambda c: f"{c.name}-{c.pde_name}",
    )
    def test_matches_finite_differences(self, config):
        disc = Discretization(4)
        spec = spec_for(config, 4, 2)
        for draw in range(3):
            params = draw_params(50, 4, 2, draw)
            got = loss_gradient(config, spec, params, disc)
            fd = finite_difference_gradient(
                lambda q: total_loss(config, spec, q, disc), params, 1e-5
            )
            np.testing.assert_allclose(got, fd, atol=1e-6)

    def test_zero_gradient_at_stationary_constant_point(self):
        # At all-zero angles the output is the constant (1,...,1) profile:
        # the physics terms are at their exact minimum and the MSE term to a
        # matching constant target vanishes, so the gradient must be zero.
        spec = CircuitSpec(4, 1, ATA)
        cfg = LossConfig(LossKind.PDE_CONSTRAINED, target_profile=(1.0,) * 4)
        grad = loss_gradient(cfg, spec, np.zeros(spec.param_count), Discretization(4))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_local_cost_direct_shift_equals_chain_rule(self):
        # The local cost is output 0 itself, so the Jacobian row must equal
        # the direct parameter-shift gradient.
        rng = np.random.default_rng(43)
        spec = CircuitSpec(3, 2, ATA)
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        direct = loss_gradient(
            LossConfig(LossKind.LOCAL_COST), spec, params, Discretization(3)
        )
        via_jacobian = jacobian_outputs(spec, params)[0]
        np.testing.assert_allclose(direct, via_jacobian, atol=1e-13)


class TestFiniteDifferenceOracle:
    def test_quadratic_function(self):
        params = np.array([0.3, -1.2, 2.0])
        grad = finite_difference_gradient(lambda q: float(np.sum(q**2)), params, 1e-5)
        np.testing.assert_allclose(grad, 2 * params, atol=1e-9)

    def test_second_order_refinement(self):
        # Central differences converge O(h^2) on smooth functions.
        params = np.array([0.7])
        errors = []
        for h in (1e-2, 1e-3):
            grad = finite_difference_gradient(lambda q: float(np.sin(q[0])), params, h)
            errors.append(abs(grad[0] - np.cos(0.7)))
        assert errors[1] < errors[0] / 50  # ~100x for a 10x smaller h

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda q: 0.0, np.zeros(2), 0.0)


class TestDrawParams:
    def test_shape_and_range(self):
        angles = draw_params(0, 4, 3, 5)
        assert angles.shape == (24,)
        assert np.all((0 <= angles) & (angles < 2 * np.pi))

    def test_deterministic_and_counter_based(self):
        a = draw_params(9, 4, 2, 3)
        b = draw_params(9, 4, 2, 3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, draw_params(9, 4, 2, 4))
        assert not np.array_equal(a, draw_params(10, 4, 2, 3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            draw_params(-1, 4, 2, 0)


class TestGradientVariance:
    def test_degenerate_stream_gives_zero_variance(self, monkeypatch):
        fixed = draw_params(0, 4, 1, 0)
        monkeypatch.setattr(gradients, "draw_params", lambda *args: fixed.copy())
        cfg = LossConfig(LossKind.GLOBAL_COST)
        report = gradient_variance(cfg, CircuitSpec(4, 1, ATA), Discretization(4), 5, 0)
        np.testing.assert_allclose(report.per_param_variance, 0.0, atol=1e-30)
        assert report.mean_variance == 0.0

    def test_reference_scale_global_cost(self):
        """Mean variance near 3.17e-2 for the global cost at n=4, L=3."""
        cfg = LossConfig(LossKind.GLOBAL_COST)
        report = gradient_variance(cfg, CircuitSpec(4, 3, ATA), Discretization(4), 25, 7)
        assert 0.5 * 3.17e-2 <= report.mean_variance <= 1.5 * 3.17e-2

    def test_estimate_self_consistent_as_samples_grow(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        spec = CircuitSpec(4, 3, ATA)
        disc = Discretization(4)
        small = gradient_variance(cfg, spec, disc, 25, 7)
        big = gradient_variance(cfg, spec, disc, 400, 7)
        stderr = np.std(small.per_param_variance, ddof=1) / np.sqrt(
            small.per_param_variance.size
        )
        assert abs(big.mean_variance - small.mean_variance) <= 3 * stderr

    def test_mean_is_exact_mean_of_per_param(self):
        cfg = LossConfig(LossKind.LOCAL_COST)
        report = gradient_variance(cfg, CircuitSpec(4, 2, ATA), Discretization(4), 10, 3)
        assert report.mean_variance == pytest.approx(
            float(np.mean(report.per_param_variance)), abs=1e-12
        )
        assert np.all(report.per_param_variance >= 0)

    def test_deterministic_reports(self):
        cfg = LossConfig(LossKind.PDE_CONSTRAINED)
        spec = CircuitSpec(4, 2, ATA)
        a = gradient_variance(cfg, spec, Discretization(4), 6, 11)
        b = gradient_variance(cfg, spec, Discretization(4), 6, 11)
        np.testing.assert_array_equal(a.per_param_variance, b.per_param_variance)
        assert a.mean_variance == b.mean_variance

    def test_too_few_samples_rejected(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        with pytest.raises(ValueError):
            gradient_variance(cfg, CircuitSpec(4, 1, ATA), Discretization(4), 1, 0)


class TestOneForwardPass:
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    @pytest.mark.parametrize("n", [4, 5])
    def test_value_and_gradient_equal_separate_calls(self, config, n):
        spec = spec_for(config, n, 2)
        disc = Discretization(n)
        for k in range(3):
            params = draw_params(17, n, 2, k)
            value, grad = loss_and_gradient(config, spec, params, disc)
            assert value == total_loss(config, spec, params, disc)
            np.testing.assert_array_equal(grad, loss_gradient(config, spec, params, disc))

    def test_observable_rows_per_config(self):
        global_cost, local_cost, constrained, structured = all_configs()
        signs = observables(constrained, 3)
        assert signs.shape == (3, 8)
        np.testing.assert_array_equal(observables(structured, 3), signs)
        np.testing.assert_array_equal(observables(local_cost, 3), signs[:1])
        np.testing.assert_array_equal(
            observables(global_cost, 3), [[1, -1, -1, 1, -1, 1, 1, -1]]
        )
