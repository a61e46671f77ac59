"""Sweep orchestration, training loop, and scaling-fit checks.

Sweeps here run with small sample counts to stay fast; the quantitative
trend assertions at protocol sample sizes live in test_acceptance.py.
"""

import numpy as np
import pytest

from plateaulab.ansatz import CircuitSpec
from plateaulab.gradients import draw_params, loss_gradient
from plateaulab.losses import Discretization, LossConfig, LossKind, total_loss
from plateaulab.experiments import (
    ScalingModel,
    entanglement_sweep,
    fit_scaling,
    per_param_distribution,
    sweep_depth,
    sweep_pde,
    sweep_qubits,
    train,
)


class TestVarianceSweeps:
    def test_qubit_sweep_covers_grid(self):
        result = sweep_qubits(ns=(4, 6, 8), layers=3, n_samples=3, seed=0)
        assert len(result) == 12
        cells = {(r.n, r.config_name) for r in result}
        assert len(cells) == 12
        for row in result:
            assert row.layers == 3
            assert row.per_param_variance.shape == (2 * row.n * 3,)
            assert row.mean_variance >= 0

    def test_depth_sweep_covers_grid(self):
        result = sweep_depth(depths=(1, 2, 3, 4, 5), n=4, n_samples=3, seed=0)
        assert len(result) == 20
        assert {(r.layers, r.config_name) for r in result} == {
            (L, c)
            for L in (1, 2, 3, 4, 5)
            for c in ("global_cost", "local_cost", "pde_constrained", "pde_structured")
        }

    def test_pde_sweep_rows(self):
        result = sweep_pde(n=4, layers=2, n_samples=3, seed=0)
        names = [r.pde_name for r in result]
        assert names == ["heat", "burgers", "saint_venant"]
        assert all(r.config_name == "pde_constrained" for r in result)

    def test_sweeps_deterministic(self):
        a = sweep_qubits(ns=(4,), layers=2, n_samples=4, seed=5)
        b = sweep_qubits(ns=(4,), layers=2, n_samples=4, seed=5)
        for ra, rb in zip(a, b):
            assert ra.mean_variance == rb.mean_variance
            np.testing.assert_array_equal(ra.per_param_variance, rb.per_param_variance)

    def test_stderr_column_definition(self):
        result = sweep_qubits(ns=(4,), layers=1, n_samples=4, seed=1)
        row = result[0]
        want = np.std(row.per_param_variance, ddof=1) / np.sqrt(
            row.per_param_variance.size
        )
        assert row.stderr_of_mean == pytest.approx(want, rel=1e-12)


class TestEntanglementSweep:
    def test_grid_and_bounds(self):
        result = entanglement_sweep(ns=(4, 6), depths=(1, 3), n_samples=4, seed=0)
        assert len(result) == 8
        for row in result:
            assert 0.0 <= row.ratio_to_max <= 1.0 + 1e-9
            assert row.mean_entropy_bits == pytest.approx(
                row.ratio_to_max * row.n / 2, rel=1e-12
            )

    def test_deterministic(self):
        a = entanglement_sweep(ns=(4,), depths=(1,), n_samples=3, seed=2)
        b = entanglement_sweep(ns=(4,), depths=(1,), n_samples=3, seed=2)
        assert a[0].mean_entropy_bits == b[0].mean_entropy_bits

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            entanglement_sweep(ns=(4,), depths=(1,), n_samples=0, seed=0)


class TestTrain:
    def test_trace_shape_and_final_fields(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        trace = train(cfg, n=4, layers=2, epochs=5, learning_rate=0.05, seed=1)
        assert len(trace.epochs) == 6
        assert [e.epoch_index for e in trace.epochs] == list(range(6))
        assert trace.final_loss == trace.epochs[-1].loss_value
        assert trace.final_grad_norm == trace.epochs[-1].gradient_norm
        assert all(np.isfinite(e.loss_value) for e in trace.epochs)

    def test_recorded_norms_match_replayed_gradients(self):
        """Replay the descent and recompute every recorded quantity."""
        cfg = LossConfig(LossKind.PDE_CONSTRAINED)
        n, layers, lr = 4, 2, 0.02
        trace = train(cfg, n=n, layers=layers, epochs=3, learning_rate=lr, seed=4)
        spec = CircuitSpec(n, layers, cfg.required_topology())
        disc = Discretization(n)
        params = draw_params(4, n, layers, 0)
        for entry in trace.epochs:
            grad = loss_gradient(cfg, spec, params, disc)
            assert entry.gradient_norm == pytest.approx(
                float(np.linalg.norm(grad)), abs=1e-12
            )
            assert entry.loss_value == pytest.approx(
                total_loss(cfg, spec, params, disc), abs=1e-12
            )
            params = params - lr * grad

    def test_descent_reduces_loss(self):
        for kind in (LossKind.GLOBAL_COST, LossKind.PDE_STRUCTURED):
            trace = train(LossConfig(kind), n=4, layers=3, epochs=20, seed=3)
            assert trace.final_loss <= trace.epochs[0].loss_value

    def test_shared_start_across_configs(self):
        a = train(LossConfig(LossKind.GLOBAL_COST), n=4, layers=2, epochs=1, seed=9)
        b = train(LossConfig(LossKind.LOCAL_COST), n=4, layers=2, epochs=1, seed=9)
        # Identical initial angles: epoch-0 global cost vs local cost evaluated
        # at the same point as a direct recomputation.
        spec = CircuitSpec(4, 2, LossConfig(LossKind.GLOBAL_COST).required_topology())
        params = draw_params(9, 4, 2, 0)
        disc = Discretization(4)
        assert a.epochs[0].loss_value == pytest.approx(
            total_loss(LossConfig(LossKind.GLOBAL_COST), spec, params, disc)
        )
        assert b.epochs[0].loss_value == pytest.approx(
            total_loss(LossConfig(LossKind.LOCAL_COST), spec, params, disc)
        )

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            train(LossConfig(LossKind.GLOBAL_COST), epochs=0)


class TestScalingFit:
    def test_recovers_exponential_generator(self):
        ns = [4, 6, 8]
        points = [(n, 2.0 ** (-0.39 * n)) for n in ns]
        fit = fit_scaling(points, ScalingModel.EXP_IN_QUBITS)
        assert fit.exponent == pytest.approx(0.39, abs=1e-9)
        assert fit.residual_norm < 1e-12

    def test_recovers_power_generator(self):
        points = [(n, float(n) ** -1.8) for n in (4, 6, 8)]
        fit = fit_scaling(points, ScalingModel.POWER_IN_QUBITS)
        assert fit.exponent == pytest.approx(1.8, abs=1e-9)
        assert fit.residual_norm < 1e-12

    def test_two_points_fit_exactly(self):
        fit = fit_scaling([(4, 0.02), (8, 0.005)], ScalingModel.EXP_IN_QUBITS)
        assert fit.residual_norm < 1e-12

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_scaling([(4, 0.1)], ScalingModel.EXP_IN_QUBITS)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ArithmeticError):
            fit_scaling([(4, 0.1), (6, 0.0)], ScalingModel.POWER_IN_QUBITS)


class TestPerParamDistribution:
    def test_vectors_complete_and_nonnegative(self):
        result = per_param_distribution(n=8, layers=3, n_samples=3, seed=0)
        assert len(result) == 4
        for row in result:
            assert row.per_param_variance.shape == (48,)
            assert np.all(row.per_param_variance >= 0)

    def test_global_cost_has_many_dead_parameters(self):
        # The all-qubit parity pulled back through the CNOT cascade is
        # supported on few qubits, so most parameters cannot move it; the
        # physics-informed loss touches every output and leaves none dead.
        result = per_param_distribution(n=8, layers=3, n_samples=10, seed=0)
        by_name = {r.config_name: r.per_param_variance for r in result}
        dead_global = np.sum(by_name["global_cost"] < 1e-20)
        dead_pde = np.sum(by_name["pde_constrained"] < 1e-20)
        assert dead_global > 24
        assert dead_pde < dead_global
