"""Circuit construction checks, including a dense matrix-product oracle."""

import numpy as np
import pytest

from plateaulab import ansatz
from plateaulab import statevector as sv
from plateaulab.ansatz import (
    CircuitSpec,
    Topology,
    circuit_gates,
    entangler_pairs,
    gate_count,
    run_circuit,
    run_circuit_batch,
)
from plateaulab.statevector import expect_z

NN = Topology.NEAREST_NEIGHBOR
ATA = Topology.ALL_TO_ALL


def dense_gate(matrix_2x2, qubit, n):
    """Embed a one-qubit matrix at the given position (qubit 0 = LSB)."""
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        out = np.kron(out, matrix_2x2 if q == qubit else np.eye(2))
    return out


def dense_cnot(control, target, n):
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        flipped = b ^ (1 << target) if (b >> control) & 1 else b
        mat[flipped, b] = 1.0
    return mat


def dense_circuit_state(spec, angles):
    """Oracle: multiply explicit gate matrices onto the zero state."""
    n = spec.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for kind, a, b in circuit_gates(spec):
        if kind == "ry":
            t = angles[b]
            mat = dense_gate(
                np.array([[np.cos(t / 2), -np.sin(t / 2)],
                          [np.sin(t / 2), np.cos(t / 2)]]), a, n)
        elif kind == "rz":
            t = angles[b]
            mat = dense_gate(np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]), a, n)
        else:
            mat = dense_cnot(a, b, n)
        state = mat @ state
    return state


class TestCircuitSpec:
    def test_param_count(self):
        assert CircuitSpec(4, 3, NN).param_count == 24

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            CircuitSpec(1, 1, NN)
        with pytest.raises(ValueError):
            CircuitSpec(4, 0, NN)
        with pytest.raises(ValueError):
            CircuitSpec(4, 2.5, NN)
        with pytest.raises(ValueError):
            CircuitSpec(4.0, 1, NN)
        with pytest.raises(ValueError, match="layers must be an integer >= 1, got True"):
            CircuitSpec(4, True, NN)


class TestEntanglerPairs:
    def test_nearest_neighbor_chain(self):
        assert entangler_pairs(CircuitSpec(4, 1, NN)) == [(0, 1), (1, 2), (2, 3)]

    def test_all_to_all_lexicographic(self):
        assert entangler_pairs(CircuitSpec(3, 1, ATA)) == [(0, 1), (0, 2), (1, 2)]

    def test_nn_pair_count(self):
        for n in (2, 5, 8):
            assert len(entangler_pairs(CircuitSpec(n, 1, NN))) == n - 1


class TestGateCount:
    def test_closed_form_examples(self):
        assert gate_count(CircuitSpec(6, 3, NN)) == 51
        assert gate_count(CircuitSpec(6, 3, ATA)) == 81

    def test_small_case_by_enumeration(self):
        spec = CircuitSpec(4, 1, NN)
        assert gate_count(spec) == 11
        gates = list(circuit_gates(spec))
        assert len(gates) == 11
        assert sum(1 for g in gates if g[0] in ("ry", "rz")) == 8
        assert sum(1 for g in gates if g[0] == "cnot") == 3

    def test_instrumented_tally_matches_formula(self, monkeypatch):
        """Count the kernels run_circuit actually invokes."""
        counts = {"n": 0}
        real_ry = ansatz.sv._apply_ry_inplace
        real_rz = ansatz.sv._apply_rz_inplace
        real_cnot = ansatz.sv._apply_cnot_inplace

        def wrap(fn):
            def inner(*args):
                counts["n"] += 1
                return fn(*args)
            return inner

        monkeypatch.setattr(ansatz.sv, "_apply_ry_inplace", wrap(real_ry))
        monkeypatch.setattr(ansatz.sv, "_apply_rz_inplace", wrap(real_rz))
        monkeypatch.setattr(ansatz.sv, "_apply_cnot_inplace", wrap(real_cnot))

        rng = np.random.default_rng(0)
        for n in (4, 6, 8):
            for layers in range(1, 6):
                for topo in (NN, ATA):
                    spec = CircuitSpec(n, layers, topo)
                    counts["n"] = 0
                    run_circuit(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
                    assert counts["n"] == gate_count(spec)


class TestRunCircuit:
    def test_all_zero_angles_gives_zero_state(self):
        for topo in (NN, ATA):
            spec = CircuitSpec(3, 2, topo)
            state = run_circuit(spec, np.zeros(spec.param_count))
            np.testing.assert_allclose(
                np.abs(state), [1] + [0] * 7, atol=1e-15
            )

    def test_hand_traced_two_qubit_circuit(self):
        # RY(pi) flips qubit 0, then CNOT(0,1) flips qubit 1: final |11>.
        spec = CircuitSpec(2, 1, NN)
        state = run_circuit(spec, [np.pi, 0, 0, 0])
        assert abs(expect_z(state, 0) + 1.0) < 1e-12
        assert abs(expect_z(state, 1) + 1.0) < 1e-12
        oracle = dense_circuit_state(spec, np.array([np.pi, 0, 0, 0]))
        np.testing.assert_allclose(state, oracle, atol=1e-12)

    def test_matches_dense_oracle_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for spec in (CircuitSpec(3, 2, NN), CircuitSpec(3, 2, ATA),
                     CircuitSpec(4, 1, ATA)):
            angles = rng.uniform(0, 2 * np.pi, spec.param_count)
            got = run_circuit(spec, angles)
            np.testing.assert_allclose(got, dense_circuit_state(spec, angles), atol=1e-12)

    def test_norm_one_for_random_draws(self):
        rng = np.random.default_rng(12)
        spec = CircuitSpec(4, 3, ATA)
        for _ in range(100):
            state = run_circuit(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10

    def test_deterministic(self):
        spec = CircuitSpec(5, 2, NN)
        angles = np.linspace(0, 5, spec.param_count)
        a = run_circuit(spec, angles)
        b = run_circuit(spec, angles)
        np.testing.assert_array_equal(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_circuit(CircuitSpec(3, 1, NN), np.zeros(5))

    def test_parameter_layout_layer_major(self):
        """Angle j belongs to the gate in layer floor(j / 2n)."""
        spec = CircuitSpec(4, 3, NN)
        layer_of = {}
        rotations_seen = 0
        per_layer = 2 * spec.n_qubits
        for kind, _, pidx in circuit_gates(spec):
            if kind in ("ry", "rz"):
                layer_of[pidx] = rotations_seen // per_layer
                rotations_seen += 1
        assert len(layer_of) == spec.param_count
        for j in range(spec.param_count):
            assert layer_of[j] == j // (2 * spec.n_qubits)


class TestBatchEvaluator:
    def test_matches_single_state_path(self):
        rng = np.random.default_rng(13)
        for spec in (CircuitSpec(4, 2, NN), CircuitSpec(5, 3, ATA)):
            batch = rng.uniform(0, 2 * np.pi, (7, spec.param_count))
            amps = run_circuit_batch(spec, batch)
            for i in range(7):
                single = run_circuit(spec, batch[i])
                np.testing.assert_allclose(amps[i], single, atol=1e-14)

    def test_bad_shape_rejected(self):
        spec = CircuitSpec(3, 1, NN)
        with pytest.raises(ValueError):
            run_circuit_batch(spec, np.zeros((2, 5)))


def kernel_walk(spec, batch):
    """Reference: each gate's own kernel on the amplitudes, CNOTs included."""
    amps = np.zeros((len(batch), 2**spec.n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    cos_half, sin_pair, phases = sv._gate_coefficients(batch)
    for kind, a, b in circuit_gates(spec):
        if kind == "ry":
            sv._apply_ry_inplace(amps, a, cos_half[b], sin_pair[b])
        elif kind == "rz":
            sv._apply_rz_inplace(amps, a, phases[b])
        else:
            sv._apply_cnot_inplace(amps, a, b)
    return amps


class TestEntanglerGather:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_bits_match_the_kernel_walk(self, n):
        rng = np.random.default_rng(n)
        for topo in (NN, ATA):
            for layers in (1, 2, 3):
                spec = CircuitSpec(n, layers, topo)
                for rows in (1, 5):
                    batch = rng.uniform(0, 2 * np.pi, (rows, spec.param_count))
                    amps = run_circuit_batch(spec, batch)
                    assert amps.dtype == np.complex128 and amps.flags.c_contiguous
                    assert amps.tobytes() == kernel_walk(spec, batch).tobytes()


class TestFirstLayerPrefix:
    """The first layer's rotations of qubit k run on each row's prefix of
    2^(k+1) amplitudes; every later gate runs on whole rows."""

    @pytest.mark.parametrize("gather", [False, True], ids=["default", "gather"])
    def test_kernels_see_only_the_reachable_prefix(self, gather, monkeypatch):
        spec = CircuitSpec(3, 2, ATA)
        widths = {"_apply_ry_inplace": [], "_apply_rz_inplace": []}
        for name, seen in widths.items():
            real = getattr(ansatz.sv, name)
            monkeypatch.setattr(ansatz.sv, name, lambda amps, *args, real=real, seen=seen:
                                seen.append(amps.shape[-1]) or real(amps, *args))
        forward = ansatz._row_gathers([spec] * 2)[0] if gather else None
        rng = np.random.default_rng(3)
        run_circuit_batch(spec, rng.uniform(0, 2 * np.pi, (2, spec.param_count)), forward)
        assert widths == {name: [2, 4, 8, 8, 8, 8] for name in widths}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_special_angles_match_the_kernel_walk(self, n):
        # At multiples of pi/2 many amplitudes are exactly zero. The full-width
        # walk may give such a zero either sign where the prefix leaves +0, so
        # the amplitudes are compared by value; their probabilities, whose
        # squares drop the sign, must have the same bits.
        rng = np.random.default_rng(100 + n)
        special = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])
        for topo in (NN, ATA):
            for layers in (1, 2, 3):
                spec = CircuitSpec(n, layers, topo)
                batch = rng.choice(special, (4, spec.param_count))
                amps, walked = run_circuit_batch(spec, batch), kernel_walk(spec, batch)
                assert np.array_equal(amps, walked)
                assert (sv.probabilities(amps).tobytes()
                        == sv.probabilities(walked).tobytes())


class TestRowGathers:
    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    def test_rows_have_bits_of_their_own_topology(self, n):
        # Row b takes specs[b]'s sub-layer; the batch spec's own CNOTs are not
        # walked, so chain rows may share an all-to-all spec's batch.
        rng = np.random.default_rng(n)
        specs = [CircuitSpec(n, 2, t) for t in (NN, ATA, ATA, NN, ATA)]
        forward, _ = ansatz._row_gathers(specs)
        batch = rng.uniform(0, 2 * np.pi, (len(specs), specs[1].param_count))
        for spec in (specs[0], specs[1]):
            amps = run_circuit_batch(spec, batch, forward)
            assert amps.flags.c_contiguous
            for b, row_spec in enumerate(specs):
                alone = run_circuit_batch(row_spec, batch[b:b + 1])[0]
                assert amps[b].tobytes() == alone.tobytes()

    def test_given_gather_walks_no_cnot_kernel(self, monkeypatch):
        spec = CircuitSpec(4, 3, ATA)
        forward, _ = ansatz._row_gathers([spec] * 2)
        calls = []
        real = ansatz.sv._apply_cnot_inplace
        monkeypatch.setattr(ansatz.sv, "_apply_cnot_inplace",
                            lambda *args: calls.append(args[1:]) or real(*args))
        run_circuit_batch(spec, np.zeros((2, spec.param_count)), forward)
        assert calls == []

    def test_gathers_move_each_row_within_itself(self):
        specs = [CircuitSpec(3, 1, t) for t in (ATA, NN, NN)]
        forward, undo = ansatz._row_gathers(specs)
        perms = np.stack([ansatz.entangler_permutation(3, entangler_pairs(s)) for s in specs])
        backs = np.stack([ansatz.entangler_permutation(3, reversed(entangler_pairs(s)))
                          for s in specs])
        offsets = 8 * np.arange(3)[:, None]
        np.testing.assert_array_equal(forward, perms + offsets)
        np.testing.assert_array_equal(undo, backs + offsets)
        block = np.arange(24.0).reshape(3, 8)
        np.testing.assert_array_equal(np.take(block, forward),
                                      np.take_along_axis(block, perms, axis=-1))
        # The backward sweep's (G + 1, B, 2^n) rows: each block as one flat run.
        blocks = np.stack([block, -block])
        np.testing.assert_array_equal(np.take(blocks.reshape(2, -1), undo, axis=-1),
                                      np.take_along_axis(blocks, backs[None], axis=-1))


def test_run_circuit_is_a_batch_of_one():
    rng = np.random.default_rng(21)
    for spec in (CircuitSpec(4, 3, NN), CircuitSpec(5, 2, ATA)):
        x = rng.uniform(0, 2 * np.pi, spec.param_count)
        np.testing.assert_array_equal(
            run_circuit(spec, x), run_circuit_batch(spec, x[None])[0]
        )


def test_nan_angle_fails_the_norm_check():
    spec = CircuitSpec(3, 1, NN)
    x = np.zeros(spec.param_count)
    x[1] = np.nan
    with pytest.raises(ArithmeticError):
        run_circuit_batch(spec, x[None])
