"""Sweep orchestration, training loop, and scaling-fit checks.

Sweeps here run with small sample counts to stay fast; the quantitative
trend assertions at protocol sample sizes live in test_acceptance.py.
"""

import re

import numpy as np
import pytest

from plateaulab import ansatz, experiments, gradients, losses
from plateaulab.ansatz import CircuitSpec, Topology, entangler_pairs, run_circuit
from plateaulab.gradients import draw_params
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
from shift_rule import shift_gradient


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

    def test_fractional_size_rejected_before_any_circuit(self, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        for sweep in (lambda: sweep_qubits([4.5], 1, 2, 0),
                      lambda: sweep_depth([1.7], 4, 2, 0),
                      lambda: entanglement_sweep([4.5], [1], 2, 0)):
            with pytest.raises(ValueError):
                sweep()
        assert calls == []

    def test_numpy_integer_sizes_kept(self):
        [row, *_] = sweep_qubits([np.int64(4)], np.int64(1), 2, 0)
        assert type(row.n) is np.int64 and type(row.layers) is np.int64
        assert row.mean_variance == sweep_qubits([4], 1, 2, 0)[0].mean_variance


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

    def test_empty_depth_grid_gives_no_rows(self):
        assert entanglement_sweep((4,), (), 2, 0) == []

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            entanglement_sweep(ns=(4,), depths=(1,), n_samples=0, seed=0)
        with pytest.raises(ValueError):
            entanglement_sweep(ns=(4,), depths=(1,), n_samples=2.5, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            entanglement_sweep(ns=(4,), depths=(1,), n_samples=True, seed=0)

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
            assert row.entropy_bits.tolist() == entropies
            assert row.mean_entropy_bits == float(np.mean(entropies))

    @pytest.mark.parametrize("ns, cnot_calls", [((4, 6), 29), ((4, 6, 8, 10, 12), 195)])
    def test_each_entangler_walked_once_per_qubit_count(self, ns, cnot_calls,
                                                        monkeypatch):
        # One walk per (n, topology), whatever the depths: sum of both
        # topologies' pair counts, (n - 1) + n(n - 1)/2, over ns.
        counts = {"cnot": 0, "walks": []}
        real_cnot = ansatz.sv._apply_cnot_inplace
        real_walk = experiments.entangler_permutation

        def cnot(*args):
            counts["cnot"] += 1
            return real_cnot(*args)

        def walk(n, pairs):
            pairs = list(pairs)
            counts["walks"].append((n, pairs))
            return real_walk(n, pairs)

        monkeypatch.setattr(ansatz.sv, "_apply_cnot_inplace", cnot)
        monkeypatch.setattr(experiments, "entangler_permutation", walk)
        entanglement_sweep(ns, (1, 3, 5), 5, 0)
        assert counts["cnot"] == cnot_calls
        assert counts["walks"] == [(n, entangler_pairs(CircuitSpec(n, 1, t)))
                                   for n in ns for t in Topology]

    def test_draws_run_in_blocks_of_p(self, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        entanglement_sweep(ns=(3,), depths=(1,), n_samples=14, seed=0)
        assert calls == [6, 6, 2] * 2


def _count_forward_batches(monkeypatch):
    calls = []
    original = gradients.run_circuit_batch

    def counting(spec, angles_batch, *gather, **kwargs):
        calls.append(len(angles_batch))
        return original(spec, angles_batch, *gather, **kwargs)

    monkeypatch.setattr(gradients, "run_circuit_batch", counting)
    return calls


class TestTrain:
    def test_trace_shape_and_final_fields(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        [trace] = train([cfg], n=4, layers=2, epochs=5, learning_rate=0.05, seed=1)
        assert len(trace.losses) == len(trace.grad_norms) == 6
        assert trace.final_loss == trace.losses[-1]
        assert trace.final_grad_norm == trace.grad_norms[-1]
        assert all(np.isfinite(loss) for loss in trace.losses)

    def test_recorded_norms_match_replayed_gradients(self):
        """Replay every descent and recompute every recorded quantity.

        The replay steps with the adjoint engine's gradient, as training
        does, so it visits the trained angles; at each of them the recorded
        norm is checked against the whole-circuit parameter-shift rule and the
        loss against a fresh forward run.
        """
        configs = all_configs() + [LossConfig(LossKind.PDE_CONSTRAINED, pde=Heat())]
        layers, lr = 2, 0.02
        for n in (2, 4, 5):
            traces = train(configs, n=n, layers=layers, epochs=3, learning_rate=lr, seed=4)
            disc = Discretization(n)
            for cfg, trace in zip(configs, traces):
                spec = CircuitSpec(n, layers, cfg.required_topology())
                params = draw_params(4, n, layers, 0)
                for loss, norm in zip(trace.losses, trace.grad_norms, strict=True):
                    grad = shift_gradient(cfg, spec, params, disc)
                    assert norm == pytest.approx(float(np.linalg.norm(grad)), abs=1e-12)
                    assert loss == total_loss(cfg, spec, params, disc)
                    _, adjoint = gradients._adjoint_plan([[cfg]], n, layers)(params[None])
                    params = params - lr * adjoint[0, 0]

    def test_lockstep_traces_equal_training_alone(self):
        together = train(all_configs(), n=4, layers=2, epochs=4, learning_rate=0.05, seed=2)
        alone = [train([c], n=4, layers=2, epochs=4, learning_rate=0.05, seed=2)[0]
                 for c in all_configs()]
        assert together == alone

    def test_three_loss_terms_and_two_stencils_per_epoch(self, monkeypatch):
        # The two composites share one loss of the outputs, and each loss
        # call takes one residual: two centered_d1 calls for the gradient
        # penalty's value and gradient.
        calls = []
        for module, name in ((gradients, "loss_and_d_outputs"), (losses, "centered_d1")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        epochs = 3
        train(all_configs(), n=4, layers=2, epochs=epochs, seed=0)
        assert calls.count("loss_and_d_outputs") == 3 * (epochs + 1)
        assert calls.count("centered_d1") == 2 * (epochs + 1)

    def test_one_forward_batch_of_every_config_per_epoch(self, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        epochs = 3
        train(all_configs(), n=4, layers=2, epochs=epochs, seed=0)
        # The three all-to-all configs and the chain config share one batch.
        assert calls == [len(all_configs())] * (epochs + 1)

    def test_descent_reduces_loss(self):
        kinds = (LossKind.GLOBAL_COST, LossKind.PDE_STRUCTURED)
        for trace in train([LossConfig(k) for k in kinds], n=4, layers=3, epochs=20, seed=3):
            assert trace.final_loss <= trace.losses[0]

    def test_shared_start_across_configs(self):
        a, b = train([LossConfig(LossKind.GLOBAL_COST), LossConfig(LossKind.LOCAL_COST)],
                     n=4, layers=2, epochs=1, seed=9)
        # Identical initial angles: epoch-0 global cost vs local cost evaluated
        # at the same point as a direct recomputation.
        spec = CircuitSpec(4, 2, LossConfig(LossKind.GLOBAL_COST).required_topology())
        params = draw_params(9, 4, 2, 0)
        disc = Discretization(4)
        assert a.losses[0] == pytest.approx(
            total_loss(LossConfig(LossKind.GLOBAL_COST), spec, params, disc)
        )
        assert b.losses[0] == pytest.approx(
            total_loss(LossConfig(LossKind.LOCAL_COST), spec, params, disc)
        )

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            train([LossConfig(LossKind.GLOBAL_COST)], epochs=0)
        with pytest.raises(ValueError):
            train([LossConfig(LossKind.GLOBAL_COST)], epochs=2.5)
        with pytest.raises(ValueError, match="epochs"):
            train([LossConfig(LossKind.GLOBAL_COST)], epochs=True)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_learning_rate_rejected_before_any_circuit(self, lr, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        with pytest.raises(ValueError, match="learning_rate"):
            train(all_configs(), learning_rate=lr)
        assert calls == []

    @pytest.mark.parametrize("lr", [True, "0.1", None, 1j])
    def test_non_real_learning_rate_rejected_before_any_circuit(self, lr, monkeypatch):
        calls = _count_forward_batches(monkeypatch)
        with pytest.raises(ValueError, match="^learning_rate must be a finite real number"):
            train(all_configs(), learning_rate=lr)
        assert calls == []

    @pytest.mark.parametrize("bad", ["x", None, LossKind.GLOBAL_COST])
    def test_entry_other_than_a_loss_config_rejected_before_any_draw(self, bad,
                                                                     monkeypatch):
        # Unchecked, reading its topology would raise AttributeError.
        calls = _count_forward_batches(monkeypatch)
        monkeypatch.setattr(experiments, "draw_params", lambda *args: calls.append(args))
        for configs, index in (([bad], 0), ([LossConfig(LossKind.GLOBAL_COST), bad], 1)):
            message = f"configs[{index}] must be a LossConfig, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                train(configs, 4, 1, 1)
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

    @pytest.mark.parametrize("model", list(ScalingModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("points", [[(4, 0.02), (8, 0.005)], [(3, 0.7), (11, 1e-5)],
                                        [(6, 0.0073), (4, 0.0311)]])
    def test_two_points_fit_exactly(self, points, model):
        # The line passes through both points. The least-squares residuals of
        # these points hold rounding noise of up to about 4e-15 in one model.
        fit = fit_scaling(points, model)
        assert fit.residual_norm == 0.0
        (n0, v0), (n1, v1) = points
        log, x0, x1 = ((np.log2, n0, n1) if model is ScalingModel.EXP_IN_QUBITS
                       else (np.log, np.log(n0), np.log(n1)))
        assert fit.exponent == pytest.approx(-(log(v1) - log(v0)) / (x1 - x0), rel=1e-12)

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

    @pytest.mark.parametrize("model", ["exp_in_qubits", "power_in_qubits", None, 0],
                             ids=["exp-value", "power-value", "None", "0"])
    def test_model_other_than_a_scaling_model_rejected(self, model, monkeypatch):
        # Unchecked, any of these would silently take the power-law branch.
        calls = []
        monkeypatch.setattr(np, "polyfit", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="model must be a ScalingModel"):
            fit_scaling([(4, 0.02), (6, 0.004), (8, 0.001)], model)
        assert calls == []


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
