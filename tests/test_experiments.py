"""Sweep orchestration, training loop, and scaling-fit checks.

Sweeps here run with small sample counts to stay fast; the quantitative
trend assertions at protocol sample sizes live in test_acceptance.py.
"""

import numpy as np
import pytest

from plateaulab import gradients
from plateaulab.ansatz import CircuitSpec, Topology, run_circuit
from plateaulab.gradients import draw_params, loss_gradient
from plateaulab.losses import (
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    all_configs,
    total_loss,
)
from plateaulab.experiments import (
    ScalingModel,
    entanglement_sweep,
    fit_scaling,
    sweep_depth,
    sweep_pde,
    sweep_qubits,
    train,
)
from plateaulab.statevector import reduced_density_matrix, von_neumann_entropy


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

    def test_odd_n_ratio_divides_by_the_kept_qubits(self):
        # The half cut keeps floor(n/2) qubits, so that is the entropy's maximum.
        result = entanglement_sweep(ns=(3, 5), depths=(1, 5), n_samples=4, seed=0)
        assert len(result) == 8
        for row in result:
            assert row.ratio_to_max == row.mean_entropy_bits / (row.n // 2)
            assert 0.0 <= row.ratio_to_max <= 1.0 + 1e-9

    def test_deterministic(self):
        a = entanglement_sweep(ns=(4,), depths=(1,), n_samples=3, seed=2)
        b = entanglement_sweep(ns=(4,), depths=(1,), n_samples=3, seed=2)
        assert a[0].mean_entropy_bits == b[0].mean_entropy_bits

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            entanglement_sweep(ns=(4,), depths=(1,), n_samples=0, seed=0)

    def test_means_equal_single_state_entropies(self):
        # At n = 3, L = 1 a block holds p = 6 draws, so 14 draws run in three.
        rows = entanglement_sweep(ns=(3, 4), depths=(1, 2), n_samples=14, seed=6)
        for row in rows:
            spec = CircuitSpec(row.n, row.layers, Topology(row.topology))
            entropies = [
                von_neumann_entropy(reduced_density_matrix(
                    run_circuit(spec, draw_params(6, row.n, row.layers, k)), range(row.n // 2)))
                for k in range(14)
            ]
            assert row.mean_entropy_bits == float(np.mean(entropies))

    def test_draws_run_in_blocks_of_p(self, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        entanglement_sweep(ns=(3,), depths=(1,), n_samples=14, seed=0)
        assert calls == [6, 6, 2] * 2


def _count_forward_batches(monkeypatch):
    calls = []
    original = gradients.run_circuit_batch

    def counting(spec, angles_batch):
        calls.append(len(angles_batch))
        return original(spec, angles_batch)

    monkeypatch.setattr(gradients, "run_circuit_batch", counting)
    return calls


class TestTrain:
    def test_trace_shape_and_final_fields(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        [trace] = train([cfg], n=4, layers=2, epochs=5, learning_rate=0.05, seed=1)
        assert len(trace.epochs) == 6
        assert trace.final_loss == trace.epochs[-1].loss_value
        assert trace.final_grad_norm == trace.epochs[-1].gradient_norm
        assert all(np.isfinite(e.loss_value) for e in trace.epochs)

    def test_recorded_norms_match_replayed_gradients(self):
        """Replay every descent and recompute every recorded quantity.

        The replay steps with the adjoint engine's gradient, as training
        does, so it visits the trained angles; at each of them the recorded
        norm is checked against parameter shift and the loss against a
        fresh forward run.
        """
        configs = all_configs() + [LossConfig(LossKind.PDE_CONSTRAINED, pde=Heat())]
        layers, lr = 2, 0.02
        for n in (2, 4, 5):
            traces = train(configs, n=n, layers=layers, epochs=3, learning_rate=lr, seed=4)
            disc = Discretization(n)
            for cfg, trace in zip(configs, traces):
                spec = CircuitSpec(n, layers, cfg.required_topology())
                params = draw_params(4, n, layers, 0)
                for entry in trace.epochs:
                    grad = loss_gradient(cfg, spec, params, disc)
                    assert entry.gradient_norm == pytest.approx(
                        float(np.linalg.norm(grad)), abs=1e-12
                    )
                    assert entry.loss_value == total_loss(cfg, spec, params, disc)
                    _, adjoint = gradients._adjoint_gradients([[cfg]], spec, params[None], disc)
                    params = params - lr * adjoint[0, 0]

    def test_lockstep_traces_equal_training_alone(self):
        together = train(all_configs(), n=4, layers=2, epochs=4, learning_rate=0.05, seed=2)
        alone = [train([c], n=4, layers=2, epochs=4, learning_rate=0.05, seed=2)[0]
                 for c in all_configs()]
        assert together == alone

    def test_one_forward_batch_per_topology_and_epoch(self, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        epochs = 3
        train(all_configs(), n=4, layers=2, epochs=epochs, seed=0)
        # Three all-to-all configs share one batch, the chain config has its own.
        assert len(calls) == 2 * (epochs + 1)
        assert sorted(set(calls)) == [1, 3]

    def test_descent_reduces_loss(self):
        kinds = (LossKind.GLOBAL_COST, LossKind.PDE_STRUCTURED)
        for trace in train([LossConfig(k) for k in kinds], n=4, layers=3, epochs=20, seed=3):
            assert trace.final_loss <= trace.epochs[0].loss_value

    def test_shared_start_across_configs(self):
        a, b = train([LossConfig(LossKind.GLOBAL_COST), LossConfig(LossKind.LOCAL_COST)],
                     n=4, layers=2, epochs=1, seed=9)
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
            train([LossConfig(LossKind.GLOBAL_COST)], epochs=0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_learning_rate_rejected_before_any_circuit(self, lr, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        with pytest.raises(ValueError, match="learning_rate"):
            train(all_configs(), learning_rate=lr)
        assert calls == []

    def test_no_configs_rejected_before_any_circuit(self, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        with pytest.raises(ValueError, match="config"):
            train([])
        assert calls == []


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("model", list(ScalingModel), ids=lambda m: m.value)
    def test_non_finite_variance_rejected(self, bad, model):
        with pytest.raises(ArithmeticError, match="finite and positive"):
            fit_scaling([(4, bad), (6, 1e-3)], model)

    @pytest.mark.parametrize("model", list(ScalingModel), ids=lambda m: m.value)
    def test_single_qubit_count_rejected(self, model):
        # Without a second n the slope is undetermined; polyfit would only warn.
        with pytest.raises(ValueError, match="distinct qubit counts"):
            fit_scaling([(4, 0.1), (4, 0.2)], model)

    @pytest.mark.parametrize("bad", [0, -2, np.nan], ids=["0", "-2", "nan"])
    @pytest.mark.parametrize("model", list(ScalingModel), ids=lambda m: m.value)
    def test_bad_qubit_count_rejected_before_the_fit(self, bad, model, capfd):
        # Unchecked, log(n) or a NaN n reaches LAPACK, which prints to stderr
        # and fails with LinAlgError.
        with pytest.raises(ValueError, match="qubit counts must be finite and positive"):
            fit_scaling([(bad, 0.1), (4, 0.2)], model)
        assert capfd.readouterr().err == ""


class TestPerParamDistribution:
    def test_vectors_complete_and_nonnegative(self):
        result = sweep_qubits(ns=(8,), layers=3, n_samples=3, seed=0)
        assert len(result) == 4
        for row in result:
            assert row.per_param_variance.shape == (48,)
            assert np.all(row.per_param_variance >= 0)

    def test_global_cost_has_many_dead_parameters(self):
        # The all-qubit parity pulled back through the CNOT cascade is
        # supported on few qubits, so most parameters cannot move it; the
        # physics-informed loss touches every output and leaves none dead.
        result = sweep_qubits(ns=(8,), layers=3, n_samples=10, seed=0)
        by_name = {r.config_name: r.per_param_variance for r in result}
        dead_global = np.sum(by_name["global_cost"] < 1e-20)
        dead_pde = np.sum(by_name["pde_constrained"] < 1e-20)
        assert dead_global > 24
        assert dead_pde < dead_global
