"""Adjoint-engine, chain-rule and variance-protocol checks; the oracle is the
whole-circuit parameter-shift rule of ``shift_rule``."""

import gc
import re
import weakref

import numpy as np
import pytest

from plateaulab import gradients
from plateaulab.ansatz import (
    CircuitSpec,
    Topology,
    entangler_pairs,
    entangler_permutation,
    run_circuit,
)
from plateaulab.experiments import SweepRow, train
from plateaulab.gradients import (
    draw_params,
    finite_difference_gradient,
    gradient_variance,
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
    loss_and_d_outputs,
    observables,
    total_loss,
)
from plateaulab.statevector import outputs, probabilities
from shift_rule import shift_gradient, shift_jacobian

ATA = Topology.ALL_TO_ALL
NN = Topology.NEAREST_NEIGHBOR

# The four standard configs plus the residual loss of every PDE kind.
ORACLE_CONFIGS = all_configs() + [
    LossConfig(LossKind.PDE_CONSTRAINED, pde=pde) for pde in (Heat(), Burgers(), SaintVenant())
]


def spec_for(config, n, layers):
    return CircuitSpec(n, layers, config.required_topology())


def config_blocks(configs, angles):
    """The engine's grid with one block per config, every row of a block alike."""
    return [[config] * len(angles) for config in configs]


def run_adjoint(configs, n, layers, angles):
    """The adjoint engine's gradients, shape (C, B, p), one block per config."""
    return gradients._adjoint_plan(config_blocks(configs, angles), n, layers)(angles)[1]


def record_plan_runs(monkeypatch):
    """Record (grid, angles, (losses, grads)) for every run of every plan built."""
    runs = []
    real = gradients._adjoint_plan

    def recording(grid, n_qubits, layers):
        run = real(grid, n_qubits, layers)

        def recorded(angles):
            runs.append((grid, angles.copy(), run(angles)))
            return runs[-1][2]
        return recorded

    monkeypatch.setattr(gradients, "_adjoint_plan", recording)
    return runs


class TestJacobian:
    def test_zero_angles_stationary(self):
        spec = CircuitSpec(2, 1, ATA)
        jac = shift_jacobian(spec, np.zeros(4))
        # d<Z_0>/d(RY on qubit 0) = -sin(0) = 0
        assert abs(jac[0, 0]) < 1e-14

    def test_quarter_turn_derivative(self):
        spec = CircuitSpec(2, 1, ATA)
        jac = shift_jacobian(spec, np.array([np.pi / 2, 0, 0, 0]))
        # d<Z_0>/d(RY on qubit 0) = -sin(pi/2) = -1
        assert abs(jac[0, 0] + 1.0) < 1e-12

    def test_final_layer_rz_columns_are_dead(self):
        # RZ just before the entangler commutes with every Z-string pulled
        # back through the CNOTs, so the last layer's RZ angles cannot move
        # any Z-diagonal output.
        rng = np.random.default_rng(40)
        spec = CircuitSpec(3, 1, ATA)
        jac = shift_jacobian(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
        np.testing.assert_allclose(jac[:, 3:6], 0.0, atol=1e-14)

    def test_earlier_rz_columns_live_and_match_fd(self):
        rng = np.random.default_rng(41)
        spec = CircuitSpec(3, 2, ATA)
        angles = rng.uniform(0, 2 * np.pi, spec.param_count)
        jac = shift_jacobian(spec, angles)
        assert np.max(np.abs(jac[:, 3:6])) > 1e-3  # layer-1 RZ block
        from plateaulab.ansatz import run_circuit
        from plateaulab.statevector import expect_z

        for k in range(3):
            fd = finite_difference_gradient(
                lambda q: expect_z(run_circuit(spec, q), k), angles, 1e-5
            )
            np.testing.assert_allclose(jac[k], fd, atol=1e-8)

    def test_entries_bounded_by_one(self):
        rng = np.random.default_rng(42)
        spec = CircuitSpec(4, 2, ATA)
        jac = shift_jacobian(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
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
        # At all-zero angles the state is |0...0>, and moving any one angle
        # only adds amplitude on other basis states or a phase, so every Z
        # expectation is stationary: the output Jacobian is 0 and so is the
        # gradient, whatever dL/df the sine target gives.
        spec = CircuitSpec(4, 1, ATA)
        cfg = LossConfig(LossKind.PDE_CONSTRAINED)
        grad = loss_gradient(cfg, spec, np.zeros(spec.param_count), Discretization(4))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    BIT_CELLS = [(n, layers) for n in (2, 3, 4, 6, 8) for layers in (1, 2, 3)]

    @staticmethod
    def check_bits_of_each_row(runs, n, layers):
        disc = Discretization(n)
        for grid, angles, (_, grads) in runs:
            for block, block_grads in zip(grid, grads, strict=True):
                for config, params, grad in zip(block, angles, block_grads, strict=True):
                    got = loss_gradient(config, spec_for(config, n, layers), params, disc)
                    assert got.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("n, layers", BIT_CELLS)
    def test_bits_of_every_variance_block_row(self, n, layers, monkeypatch):
        runs = record_plan_runs(monkeypatch)
        gradient_variance(ORACLE_CONFIGS, n, layers, 3, 9)
        monkeypatch.undo()
        assert sum(grads.shape[0] * grads.shape[1] for _, _, (_, grads) in runs) \
            == 3 * len(ORACLE_CONFIGS)
        self.check_bits_of_each_row(runs, n, layers)

    @pytest.mark.parametrize("n, layers", BIT_CELLS)
    def test_bits_of_every_training_grid_row(self, n, layers, monkeypatch):
        runs = record_plan_runs(monkeypatch)
        train(ORACLE_CONFIGS, n=n, layers=layers, epochs=2, learning_rate=0.05, seed=2)
        monkeypatch.undo()
        assert len(runs) == 3
        self.check_bits_of_each_row(runs, n, layers)

    @pytest.mark.parametrize("config, spec, params, disc, message", [
        (LossConfig(LossKind.GLOBAL_COST), CircuitSpec(4, 3, ATA), np.zeros(5),
         Discretization(4), "expected 24 angles, got shape (5,)"),
        (LossConfig(LossKind.LOCAL_COST), CircuitSpec(4, 1, ATA), np.zeros((1, 8)),
         Discretization(4), "expected 8 angles, got shape (1, 8)"),
        (LossConfig(LossKind.GLOBAL_COST), CircuitSpec(4, 1, NN), np.zeros(8),
         Discretization(4), "global_cost requires topology all_to_all, got nearest_neighbor"),
        (LossConfig(LossKind.PDE_STRUCTURED), CircuitSpec(4, 1, ATA), np.zeros(8),
         Discretization(4), "pde_structured requires topology nearest_neighbor, got all_to_all"),
        (LossConfig(LossKind.GLOBAL_COST), CircuitSpec(4, 1, ATA), np.zeros(8),
         Discretization(6), "grid has 6 points but circuit has 4 qubits"),
    ])
    def test_bad_input_rejected_before_any_kernel(self, config, spec, params, disc, message,
                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(gradients, "_adjoint_plan", lambda *args: calls.append(args))
        monkeypatch.setattr(gradients, "run_circuit_batch", lambda *args: calls.append(args))
        for kernel in ("_gate_coefficients", "_apply_ry_inplace", "_apply_rz_inplace"):
            monkeypatch.setattr(gradients.sv, kernel, lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loss_gradient(config, spec, params, disc)
        assert calls == []

    def test_local_cost_direct_shift_equals_chain_rule(self):
        # The local cost is output 0 itself, so the Jacobian row must equal
        # the direct parameter-shift gradient, and the engine's gradient.
        rng = np.random.default_rng(43)
        spec = CircuitSpec(3, 2, ATA)
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        config, disc = LossConfig(LossKind.LOCAL_COST), Discretization(3)
        via_jacobian = shift_jacobian(spec, params)[0]
        np.testing.assert_allclose(shift_gradient(config, spec, params, disc), via_jacobian,
                                   atol=1e-13)
        np.testing.assert_allclose(loss_gradient(config, spec, params, disc), via_jacobian,
                                   atol=1e-13)


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
        for h in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                finite_difference_gradient(lambda q: 0.0, np.zeros(2), h)

    @pytest.mark.parametrize("h", ["1e-6", True, None, np.array(1e-6)])
    def test_non_real_step_rejected(self, h):
        with pytest.raises(ValueError, match="^h must be a finite real number > 0"):
            finite_difference_gradient(lambda q: 0.0, np.zeros(2), h)

    @pytest.mark.parametrize("shape", [(), (1, 4), (2, 3)])
    def test_params_of_another_shape_rejected_before_any_loss_call(self, shape):
        calls = []
        message = f"^expected a 1-D array of angles, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            finite_difference_gradient(lambda q: calls.append(q) or 0.0, np.zeros(shape), 1e-5)
        assert calls == []


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
        with pytest.raises(ValueError):
            draw_params(1.5, 4, 2, 0)
        with pytest.raises(ValueError, match="seed"):
            draw_params(True, 4, 1, 0)

    @pytest.mark.parametrize("args, name", [
        ((0, 1, 2, 0), "n_qubits"),
        ((0, 13, 2, 0), "n_qubits"),
        ((0, 4.0, 2, 0), "n_qubits"),
        ((0, 4, 0, 0), "layers"),
        ((0, 4, -1, 0), "layers"),
        ((0, 4, True, 0), "layers"),
        ((0, 4, 1, -1), "index"),
        ((0, 4, 1, 2.5), "index"),
    ])
    def test_shape_arguments_checked_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            draw_params(*args)


class TestGradientVariance:
    def test_degenerate_stream_gives_zero_variance(self, monkeypatch):
        fixed = draw_params(0, 4, 1, 0)
        monkeypatch.setattr(gradients, "draw_params", lambda *args: fixed.copy())
        cfg = LossConfig(LossKind.GLOBAL_COST)
        variance = gradient_variance([cfg], 4, 1, 5, 0)[0]
        np.testing.assert_allclose(variance, 0.0, atol=1e-30)
        assert np.mean(variance) == 0.0

    def test_reference_scale_global_cost(self):
        """Mean variance near 3.17e-2 for the global cost at n=4, L=3."""
        cfg = LossConfig(LossKind.GLOBAL_COST)
        variance = gradient_variance([cfg], 4, 3, 25, 7)[0]
        assert 0.5 * 3.17e-2 <= np.mean(variance) <= 1.5 * 3.17e-2

    def test_estimate_self_consistent_as_samples_grow(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        small = gradient_variance([cfg], 4, 3, 25, 7)[0]
        big = gradient_variance([cfg], 4, 3, 400, 7)[0]
        stderr = np.std(small, ddof=1) / np.sqrt(small.size)
        assert abs(np.mean(big) - np.mean(small)) <= 3 * stderr

    def test_mean_is_exact_mean_of_per_param(self):
        cfg = LossConfig(LossKind.LOCAL_COST)
        row = SweepRow(4, 2, cfg.name, cfg.pde_name, gradient_variance([cfg], 4, 2, 10, 3)[0])
        assert row.mean_variance == pytest.approx(
            float(np.mean(row.per_param_variance)), abs=1e-12
        )
        assert np.all(row.per_param_variance >= 0)

    def test_deterministic_reports(self):
        cfg = LossConfig(LossKind.PDE_CONSTRAINED)
        a = gradient_variance([cfg], 4, 2, 6, 11)[0]
        b = gradient_variance([cfg], 4, 2, 6, 11)[0]
        np.testing.assert_array_equal(a, b)
        assert np.mean(a) == np.mean(b)

    def test_too_few_samples_rejected(self):
        cfg = LossConfig(LossKind.GLOBAL_COST)
        with pytest.raises(ValueError):
            gradient_variance([cfg], 4, 1, 1, 0)
        with pytest.raises(ValueError):
            gradient_variance([cfg], 4, 1, 2.5, 0)

    @pytest.mark.parametrize("bad", ["x", None, LossKind.GLOBAL_COST])
    def test_entry_other_than_a_loss_config_rejected_before_any_draw(self, bad,
                                                                     monkeypatch):
        # Unchecked, grouping by topology would raise AttributeError.
        calls = []
        monkeypatch.setattr(gradients, "draw_params", lambda *args: calls.append(args))
        monkeypatch.setattr(gradients, "run_circuit_batch", lambda *args: calls.append(args))
        for configs, index in (([bad], 0), ([LossConfig(LossKind.GLOBAL_COST), bad], 1)):
            message = f"configs[{index}] must be a LossConfig, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                gradient_variance(configs, 4, 1, 2, 0)
        assert calls == []

    def test_one_forward_batch_per_topology_and_block(self, monkeypatch):
        original = gradients.run_circuit_batch
        batches = []

        def counting(spec, angles_batch, gather, **kwargs):
            batches.append(spec.topology)
            return original(spec, angles_batch, gather, **kwargs)

        monkeypatch.setattr(gradients, "run_circuit_batch", counting)
        gradient_variance(all_configs(), 4, 2, 3, 0)
        # Three configs share the all-to-all circuit, one uses the chain, and
        # each topology's three draws fit in one block.
        assert len(batches) == 2
        assert set(batches) == {ATA, Topology.NEAREST_NEIGHBOR}

    def test_blocks_hold_at_most_p_live_rows(self, monkeypatch):
        # p = 16 at n = 4, L = 2: the three all-to-all configs run 16 // 4 = 4
        # draws per block, the one chain config 16 // 2 = 8.
        original = gradients.run_circuit_batch
        blocks = []

        def counting(spec, angles_batch, gather, **kwargs):
            blocks.append((spec.topology, len(angles_batch)))
            return original(spec, angles_batch, gather, **kwargs)

        monkeypatch.setattr(gradients, "run_circuit_batch", counting)
        gradient_variance(all_configs(), 4, 2, 9, 0)
        assert blocks == [(ATA, 4), (ATA, 4), (ATA, 1),
                          (Topology.NEAREST_NEIGHBOR, 8), (Topology.NEAREST_NEIGHBOR, 1)]

    def test_one_plan_per_topology_and_block_length(self, monkeypatch):
        # p = 6 at n = 3, L = 1: the three all-to-all configs run 14 blocks of
        # 6 // 4 = 1 draw, the chain config blocks of 3, 3, 3, 3 and 2.
        original = gradients._row_gathers
        plans = []

        def counting(specs):
            plans.append((specs[0].topology, len(specs)))
            return original(specs)

        monkeypatch.setattr(gradients, "_row_gathers", counting)
        gradient_variance(all_configs(), 3, 1, 14, 0)
        assert plans == [(ATA, 1), (Topology.NEAREST_NEIGHBOR, 3),
                         (Topology.NEAREST_NEIGHBOR, 2)]

    def test_reports_equal_per_config_gradient_stacks(self):
        configs = all_configs()
        variances = gradient_variance(configs, 4, 2, 3, 0)
        assert len(variances) == len(configs)
        draws = np.stack([draw_params(0, 4, 2, k) for k in range(3)])
        for config, variance in zip(configs, variances):
            spec = spec_for(config, 4, 2)
            adjoint = run_adjoint([config], 4, 2, draws)[0]
            expected = adjoint.var(axis=0, ddof=1)
            np.testing.assert_array_equal(variance, expected)
            assert float(np.mean(variance)) == float(np.mean(expected))
            shift = np.stack([shift_gradient(config, spec, d, Discretization(4)) for d in draws])
            np.testing.assert_allclose(variance, shift.var(axis=0, ddof=1),
                                       rtol=0, atol=1e-12)

    def test_first_draws_have_the_same_bits_whatever_k(self, monkeypatch):
        # At n=4, L=2 the all-to-all blocks hold 4 draws, so K=5 splits the
        # first three draws' block differently from K=3.
        stacks = record_plan_runs(monkeypatch)
        runs = []
        for k in (3, 5):
            stacks.clear()
            gradient_variance(all_configs(), 4, 2, k, 0)
            runs.append({t: np.concatenate([g for grid, _, (_, g) in stacks
                                            if grid[0][0].required_topology() is t], axis=1)
                         for t in Topology})
        for topology in Topology:
            np.testing.assert_array_equal(runs[1][topology][:, :3], runs[0][topology])

    @pytest.mark.parametrize("n,layers", [(4, 1), (4, 2), (5, 3)])
    def test_last_layer_rz_variances_vanish(self, n, layers):
        # Only CNOT permutations follow the last layer's RZ angles, so no
        # diagonal observable depends on them.
        variances = gradient_variance(ORACLE_CONFIGS, n, layers, 5, 1)
        dead = slice(2 * n * (layers - 1) + n, 2 * n * layers)
        for variance in variances:
            assert np.all(variance[dead] < 1e-28)


class TestAdjointGradients:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_parameter_shift(self, n, layers):
        # n = 2 is where the centered first difference degenerates to zero.
        disc = Discretization(n)
        draws = np.stack([draw_params(5, n, layers, k) for k in range(3)])
        for topology in Topology:
            configs = [c for c in ORACLE_CONFIGS if c.required_topology() is topology]
            spec = CircuitSpec(n, layers, topology)
            stacks = run_adjoint(configs, n, layers, draws)
            assert stacks.shape == (len(configs), 3, spec.param_count)
            for config, stack in zip(configs, stacks):
                expected = np.stack([shift_gradient(config, spec, d, disc) for d in draws])
                np.testing.assert_allclose(stack, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 9, 12])
    def test_draw_bits_do_not_depend_on_the_block(self, n):
        configs = all_configs()[:3]  # the all-to-all configs
        draws = np.stack([draw_params(2, n, 2, k) for k in range(4)])
        together = run_adjoint(configs, n, 2, draws)
        for k in range(4):
            alone = run_adjoint(configs, n, 2, draws[k:k + 1])
            np.testing.assert_array_equal(alone[:, 0], together[:, k])
            one_config = run_adjoint(configs[1:2], n, 2, draws[k:k + 1])
            np.testing.assert_array_equal(one_config[0, 0], together[1, k])

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_losses_equal_total_loss(self, n):
        disc = Discretization(n)
        draws = np.stack([draw_params(8, n, 2, k) for k in range(3)])
        for topology in Topology:
            configs = [c for c in ORACLE_CONFIGS if c.required_topology() is topology]
            spec = CircuitSpec(n, 2, topology)
            losses, _ = gradients._adjoint_plan(config_blocks(configs, draws), n, 2)(draws)
            assert losses.shape == (len(configs), 3)
            for c, config in enumerate(configs):
                for b, angles in enumerate(draws):
                    assert losses[c, b] == total_loss(config, spec, angles, disc)

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_mixed_block_rows_have_bits_of_one_config_calls(self, n):
        # Training passes one block whose row k is config k, each row on its
        # config's topology; here a chain row comes first and configs repeat
        # and interleave across both topologies.
        structured = LossConfig(LossKind.PDE_STRUCTURED)
        block = [structured, *ORACLE_CONFIGS[:3], structured, *ORACLE_CONFIGS[4:],
                 ORACLE_CONFIGS[1], structured, ORACLE_CONFIGS[0]]
        angles = np.stack([draw_params(3, n, 2, k) for k in range(len(block))])
        losses, grads = gradients._adjoint_plan([block], n, 2)(angles)
        assert losses.shape == (1, len(block))
        assert grads.shape == (1, len(block), 4 * n)
        for k, config in enumerate(block):
            loss, grad = gradients._adjoint_plan([[config]], n, 2)(angles[k:k + 1])
            assert losses[0, k].tobytes() == loss[0, 0].tobytes()
            assert grads[0, k].tobytes() == grad[0, 0].tobytes()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_each_rows_undo_permutation_inverts_its_forward_one(self, n):
        specs = [CircuitSpec(n, 1, t) for t in (NN, ATA, ATA, NN)]
        forward, undo = gradients._row_gathers(specs)
        assert forward.shape == undo.shape == (len(specs), 2**n)
        for b, spec in enumerate(specs):
            perm = forward[b] - b * 2**n
            np.testing.assert_array_equal(perm, entangler_permutation(n, entangler_pairs(spec)))
            np.testing.assert_array_equal(perm[undo[b] - b * 2**n], np.arange(2**n))
        block = np.random.default_rng(n).normal(size=(len(specs), 2**n))
        assert np.take(np.take(block, forward), undo).tobytes() == block.tobytes()

    def test_each_topology_walks_once_per_call(self, monkeypatch):
        # One forward walk of each distinct topology's sub-layer, however many
        # layers and rows; the undo permutations are scattered, not walked.
        calls = []
        real = gradients.sv._apply_cnot_inplace
        monkeypatch.setattr(gradients.sv, "_apply_cnot_inplace",
                            lambda *args: calls.append(args[1:]) or real(*args))
        configs = all_configs() * 2
        angles = np.stack([draw_params(0, 4, 3, 0)] * len(configs))
        gradients._adjoint_plan([configs], 4, 3)(angles)
        chain, full = (entangler_pairs(CircuitSpec(4, 1, t)) for t in (NN, ATA))
        assert sorted(calls) == sorted(chain + full)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_undo_permutation_inverts_the_sub_layer(self, n):
        # Each CNOT is its own inverse, so the reverse walk undoes a sub-layer;
        # the engine's scattered undo indices hold its bytes.
        for topology in Topology:
            spec = CircuitSpec(n, 1, topology)
            pairs = entangler_pairs(spec)
            undo = entangler_permutation(n, reversed(pairs))
            np.testing.assert_array_equal(entangler_permutation(n, pairs)[undo], np.arange(2**n))
            assert gradients._row_gathers([spec])[1][0].tobytes() == undo.tobytes()

    def test_short_block_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gradients, "run_circuit_batch", lambda *args: calls.append(args))
        for lengths in ((3, 2), (2, 3)):
            with pytest.raises(ValueError):
                gradients._adjoint_plan([all_configs()[:k] for k in lengths], 4, 1)
        assert calls == []

    def test_column_of_two_topologies_rejected_before_any_circuit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gradients, "run_circuit_batch", lambda *args: calls.append(args))
        global_cost, local_cost, _, structured = all_configs()
        with pytest.raises(ValueError, match="grid column 0 mixes topologies "
                                             "all_to_all, nearest_neighbor"):
            gradients._adjoint_plan([[global_cost, local_cost], [structured, local_cost]],
                                    4, 1)
        assert calls == []


class TestAdjointPlan:
    @staticmethod
    def mixed_plan(n=4, layers=2):
        return gradients._adjoint_plan([all_configs()], n, layers)

    def test_runs_do_not_depend_on_earlier_runs(self):
        run = self.mixed_plan()
        a, b = (np.stack([draw_params(seed, 4, 2, k) for k in range(len(all_configs()))])
                for seed in (1, 2))
        first = run(a)
        kept = [array.copy() for array in first]
        other = run(b)
        again = run(a)
        for x, y, z in zip(first, again, kept):
            assert x.tobytes() == y.tobytes() == z.tobytes()  # later runs leave it as it was
            assert x is not y
        fresh = gradients._adjoint_plan([all_configs()], 4, 2)(b)
        for x, y in zip(other, fresh):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("shape", [(3, 16), (4, 8), (4, 16, 1), (16,)])
    def test_angles_of_another_shape_rejected_before_any_kernel(self, shape, monkeypatch):
        run = self.mixed_plan()
        calls = []
        for kernel in ("_gate_coefficients", "_apply_ry_inplace", "_apply_rz_inplace"):
            monkeypatch.setattr(gradients.sv, kernel, lambda *args: calls.append(args))
        monkeypatch.setattr(gradients, "run_circuit_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="expected angles of shape"):
            run(np.zeros(shape))
        assert calls == []

    def test_walk_back_ends_at_its_last_read(self, monkeypatch):
        # Both sweeps leave out the last layer's n RZ gates. The forward makes
        # nL RY and n(L - 1) RZ calls, the backward one of each per rotation
        # but the undo of the first gate, RY on qubit 0: 2nL - 1 RY and
        # 2n(L - 1) RZ.
        run = gradients._adjoint_plan([all_configs()], 3, 2)
        calls = []
        for kind in ("ry", "rz"):
            real = getattr(gradients.sv, f"_apply_{kind}_inplace")
            monkeypatch.setattr(gradients.sv, f"_apply_{kind}_inplace",
                                lambda *args, kind=kind, real=real:
                                calls.append(kind) or real(*args))
        run(np.stack([draw_params(0, 3, 2, k) for k in range(len(all_configs()))]))
        assert (calls.count("ry"), calls.count("rz")) == (11, 6)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_loop_shape_gives_the_run_bits(self, n, monkeypatch):
        # A run's kernels read gradients.sv._LONG_LOOP_MIN_HI at each call,
        # so one plan runs under each threshold. At 1 every view of qubits 0
        # and 1 takes a long loop, forward and backward; 2^13 exceeds every hi.
        thresholds = (1, gradients.sv._LONG_LOOP_MIN_HI, 2**13)
        for layers in (1, 2):
            run = self.mixed_plan(n, layers)
            angles = np.stack([draw_params(0, n, layers, k) for k in range(len(all_configs()))])
            out = {}
            for threshold in thresholds:
                monkeypatch.setattr(gradients.sv, "_LONG_LOOP_MIN_HI", threshold)
                out[threshold] = b"".join(array.tobytes() for array in run(angles))
            assert len(set(out.values())) == 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_read_batch_gives_the_run_bits(self, n, monkeypatch):
        # A plan reads gradients._READ_BATCH_FLOATS when it is built, so one
        # plan is built per batch length: 1 read (the chi form), 2, 3 and all
        # n(2L - 1) reads. Where 2 or 3 does not divide that count, the last
        # batch is partial.
        grids = ([all_configs()],  # training's mixed grid, G = 1
                 [[config] * 2 for config in all_configs()
                  if config.required_topology() is ATA])  # a variance cell, G = 3
        assert len(grids[1]) == 3
        for layers in (1, 2):
            for grid in grids:
                angles = np.stack([draw_params(0, n, layers, k) for k in range(len(grid[0]))])
                out = {b"".join(array.tobytes()
                                for array in gradients._adjoint_plan(grid, n, layers)(angles))}
                floats = len(grid) * len(grid[0]) * 2 ** (n + 1)  # one read's products
                for batch in (1, 2, 3, n * (2 * layers - 1)):
                    monkeypatch.setattr(gradients, "_READ_BATCH_FLOATS", batch * floats)
                    run = gradients._adjoint_plan(grid, n, layers)
                    out.add(b"".join(array.tobytes() for array in run(angles)))
                assert len(out) == 1

    @pytest.mark.parametrize("n, layers", [(3, 2), (4, 3)])
    def test_a_run_makes_one_coefficient_call_and_no_undo_view(self, n, layers,
                                                               monkeypatch):
        # The backward sweep undoes each gate with the forward's coefficients
        # and with views built with the plan: a run's only views are the
        # forward's, one per (layer, qubit) for its RY and RZ kernels, nL.
        run = gradients._adjoint_plan([all_configs()], n, layers)
        calls = []
        for helper in ("_gate_coefficients", "_qubit_view"):
            real = getattr(gradients.sv, helper)
            monkeypatch.setattr(gradients.sv, helper,
                                lambda *args, helper=helper, real=real:
                                calls.append(helper) or real(*args))
        run(np.stack([draw_params(0, n, layers, k) for k in range(len(all_configs()))]))
        assert calls.count("_gate_coefficients") == 1
        assert calls.count("_qubit_view") == n * layers

    @pytest.mark.parametrize("n, layers", [(4, 2), (7, 1), (12, 1)])
    def test_configs_of_one_loss_share_one_term(self, n, layers, monkeypatch):
        # The two composites differ only in topology: one loss call serves
        # both rows, and each row keeps the bits of its config's own plan.
        _, _, constrained, structured = all_configs()
        calls = []
        real = gradients.loss_and_d_outputs
        monkeypatch.setattr(gradients, "loss_and_d_outputs",
                            lambda *args: calls.append(args[0]) or real(*args))
        angles = np.stack([draw_params(5, n, layers, k) for k in range(2)])
        losses, grads = gradients._adjoint_plan([[constrained, structured]], n, layers)(angles)
        assert len(calls) == 1
        for k, config in enumerate((constrained, structured)):
            loss, grad = gradients._adjoint_plan([[config]], n, layers)(angles[k:k + 1])
            assert losses[0, k].tobytes() == loss[0, 0].tobytes()
            assert grads[0, k].tobytes() == grad[0, 0].tobytes()

    def test_training_builds_one_plan(self, monkeypatch):
        calls = []
        real = gradients._row_gathers
        monkeypatch.setattr(gradients, "_row_gathers",
                            lambda specs: calls.append(specs) or real(specs))
        train(all_configs(), n=4, layers=2, epochs=3)
        assert len(calls) == 1

    def test_plan_is_freed_without_the_cycle_collector(self):
        run = self.mixed_plan()
        ref = weakref.ref(run)
        train(all_configs(), n=4, layers=2, epochs=1)  # first calls may import lazily
        gc.collect()
        gc.disable()
        try:
            del run
            assert ref() is None
            train(all_configs(), n=4, layers=2, epochs=3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOneForwardPass:
    def test_observable_rows_per_config(self):
        global_cost, local_cost, constrained, structured = all_configs()
        signs = observables(constrained, 3)
        assert signs.shape == (3, 8)
        np.testing.assert_array_equal(observables(structured, 3), signs)
        np.testing.assert_array_equal(observables(local_cost, 3), signs[:1])
        np.testing.assert_array_equal(
            observables(global_cost, 3), [[1, -1, -1, 1, -1, 1, 1, -1]]
        )


class TestDeadLastLayerRz:
    """The last layer's n RZ angles, p - n and up, have exact zero gradients
    on every path; every other entry matches the whole circuit's."""

    CELLS = [(n, layers) for n in range(2, 7) for layers in (1, 2, 3)]

    @staticmethod
    def check(grad, reference, n):
        assert np.all(grad[-n:] == 0.0)
        np.testing.assert_allclose(grad, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, layers", CELLS)
    def test_plan_and_loss_gradient(self, n, layers):
        disc = Discretization(n)
        draws = np.stack([draw_params(6, n, layers, k) for k in range(2)])
        for config in ORACLE_CONFIGS:
            spec = spec_for(config, n, layers)
            losses, grads = gradients._adjoint_plan([[config] * 2], n, layers)(draws)
            for b, angles in enumerate(draws):
                reference = shift_gradient(config, spec, angles, disc)
                self.check(grads[0, b], reference, n)
                self.check(loss_gradient(config, spec, angles, disc), reference, n)
                f = outputs(observables(config, n), probabilities(run_circuit(spec, angles)))
                assert losses[0, b] == pytest.approx(loss_and_d_outputs(config, f, disc)[0],
                                                     rel=0, abs=1e-14)

    @pytest.mark.parametrize("n, layers", CELLS)
    def test_gradient_variance(self, n, layers):
        disc = Discretization(n)
        draws = [draw_params(1, n, layers, k) for k in range(3)]
        variances = gradient_variance(ORACLE_CONFIGS, n, layers, len(draws), 1)
        for config, variance in zip(ORACLE_CONFIGS, variances):
            spec = spec_for(config, n, layers)
            reference = np.var([shift_gradient(config, spec, d, disc) for d in draws],
                               axis=0, ddof=1)
            self.check(variance, reference, n)

    @pytest.mark.parametrize("n, layers", CELLS)
    def test_training_gradients(self, n, layers, monkeypatch):
        runs = record_plan_runs(monkeypatch)
        train(ORACLE_CONFIGS, n=n, layers=layers, epochs=1, learning_rate=0.05, seed=2)
        assert len(runs) == 2
        disc = Discretization(n)
        for _, angles, (_, grads) in runs:
            for config, params, grad in zip(ORACLE_CONFIGS, angles, grads[0], strict=True):
                self.check(grad, shift_gradient(config, spec_for(config, n, layers),
                                                 params, disc), n)
