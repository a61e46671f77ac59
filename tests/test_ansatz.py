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
from dense_matrices import dense_cnot, dense_rotation

NN = Topology.NEAREST_NEIGHBOR
ATA = Topology.ALL_TO_ALL


def dense_circuit_state(spec, angles):
    """Oracle: multiply explicit gate matrices onto the zero state."""
    n = spec.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for kind, a, b in circuit_gates(spec):
        if kind == "cnot":
            mat = dense_cnot(n, a, b)
        else:
            mat = dense_rotation(kind, n, a, angles[b])
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
        # A topology's value is not a Topology: entangler_pairs would take it
        # for all-to-all.
        with pytest.raises(ValueError,
                           match="topology must be a Topology, got 'nearest_neighbor'"):
            CircuitSpec(4, 1, "nearest_neighbor")
        with pytest.raises(ValueError, match="topology"):
            CircuitSpec(4, 1, None)


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

    @pytest.mark.parametrize("z_readout", [False, True])
    def test_one_view_per_layer_and_qubit(self, z_readout, monkeypatch):
        # A (layer, qubit)'s RY and RZ rotate the one view; z_readout drops
        # the last layer's RZ kernels, not its views.
        spec = CircuitSpec(3, 2, ATA)
        seen = {"_qubit_view": [], "_apply_ry_inplace": [], "_apply_rz_inplace": []}
        for name, calls in seen.items():
            real = getattr(ansatz.sv, name)
            monkeypatch.setattr(ansatz.sv, name, lambda *args, real=real, calls=calls:
                                calls.append(args) or real(*args))
        run_circuit_batch(spec, np.zeros((2, spec.param_count)), z_readout=z_readout)
        assert [qubit for _, qubit in seen["_qubit_view"]] == [0, 1, 2] * spec.layers
        ry_views = [args[0] for args in seen["_apply_ry_inplace"]]
        rz_views = [args[0] for args in seen["_apply_rz_inplace"]]
        assert len(ry_views) == spec.n_qubits * spec.layers
        assert len(rz_views) == spec.n_qubits * (spec.layers - z_readout)
        assert all(rz is ry for ry, rz in zip(ry_views, rz_views))


def kernel_walk(spec, batch):
    """Reference: each gate's own kernel on the amplitudes, CNOTs included."""
    amps = np.zeros((len(batch), 2**spec.n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    cos_half, sin_pair, phases = sv._gate_coefficients(batch)
    for kind, a, b in circuit_gates(spec):
        if kind == "ry":
            sv._apply_ry_inplace(sv._qubit_view(amps, a), cos_half[b], sin_pair[b])
        elif kind == "rz":
            sv._apply_rz_inplace(sv._qubit_view(amps, a), phases[b])
        else:
            sv._apply_cnot_inplace(amps, a, b)
    return amps


def given_gather(form, spec, rows):
    """``run_circuit_batch``'s gather of one form: None, each row's flat
    indices, or the one (2^n,) sub-layer permutation of every row."""
    if form == "rows":
        return ansatz._row_gathers([spec] * rows)[0]
    if form == "permutation":
        return ansatz.entangler_permutation(spec.n_qubits, entangler_pairs(spec))
    return None


class TestEntanglerGather:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_bits_match_the_kernel_walk(self, n):
        rng = np.random.default_rng(n)
        for topo in (NN, ATA):
            for layers in (1, 2, 3):
                spec = CircuitSpec(n, layers, topo)
                for rows in (1, 5):
                    batch = rng.uniform(0, 2 * np.pi, (rows, spec.param_count))
                    walked = kernel_walk(spec, batch).tobytes()
                    perm = ansatz.entangler_permutation(n, entangler_pairs(spec))
                    for gather in (None, perm):
                        amps = run_circuit_batch(spec, batch, gather)
                        assert amps.dtype == np.complex128 and amps.flags.c_contiguous
                        assert amps.tobytes() == walked


class TestFirstLayerPrefix:
    """The first layer's rotations of qubit k run on each row's prefix of
    2^(k+1) amplitudes; every later gate runs on whole rows."""

    @pytest.mark.parametrize("gather", [None, "rows", "permutation"],
                             ids=["default", "gather", "permutation"])
    def test_kernels_see_only_the_reachable_prefix(self, gather, monkeypatch):
        spec = CircuitSpec(3, 2, ATA)
        widths = {"_apply_ry_inplace": [], "_apply_rz_inplace": []}
        for name, seen in widths.items():
            real = getattr(ansatz.sv, name)
            # A kernel takes its qubit's (..., hi, 2, lo) view of the rows.
            monkeypatch.setattr(ansatz.sv, name, lambda view, *args, real=real, seen=seen:
                                seen.append(view[0].size) or real(view, *args))
        rng = np.random.default_rng(3)
        run_circuit_batch(spec, rng.uniform(0, 2 * np.pi, (2, spec.param_count)),
                          given_gather(gather, spec, 2))
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
        gathers = [given_gather(form, spec, 2) for form in ("rows", "permutation")]
        calls = []
        real = ansatz.sv._apply_cnot_inplace
        monkeypatch.setattr(ansatz.sv, "_apply_cnot_inplace",
                            lambda *args: calls.append(args[1:]) or real(*args))
        for forward in gathers:
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


@pytest.mark.parametrize("n", [4, 11])
@pytest.mark.parametrize("drift, fails", [(3e-10, True), (3e-11, False)])
def test_norm_check_tolerance(n, drift, fails):
    # Row 1's first gate, RY at angle 0 on |0>, leaves (c, 0) with its cosine
    # c scaled to 1 + drift / 2, so the row's squared norm is 1 + drift to
    # first order; every later gate is unitary.
    spec = CircuitSpec(n, 2, ATA)
    batch = np.random.default_rng(n).uniform(0, 2 * np.pi, (3, spec.param_count))
    batch[1, 0] = 0.0
    cos_half, sin_pair, phases = sv._gate_coefficients(batch)
    cos_half[0, 1] *= 1 + drift / 2
    coefficients = (cos_half, sin_pair, phases)
    if fails:
        with pytest.raises(ArithmeticError, match="norm drifted"):
            run_circuit_batch(spec, batch, coefficients=coefficients)
    else:
        norms = np.sum(sv.probabilities(
            run_circuit_batch(spec, batch, coefficients=coefficients)), axis=1)
        assert abs(norms[1] - 1.0 - drift) <= 1e-14


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("topology", [NN, ATA])
def test_every_loop_shape_gives_the_forward_bits(n, topology, monkeypatch):
    # The rotation kernels choose their loop shape from each view's hi and
    # sv._LONG_LOOP_MIN_HI. At 1 every view of qubits 0 and 1 takes a long
    # loop, the first layer's prefix views included; 2^13 exceeds every hi.
    rng = np.random.default_rng(n)
    thresholds = (1, sv._LONG_LOOP_MIN_HI, 2**13)
    for layers in (1, 2, 3):
        spec = CircuitSpec(n, layers, topology)
        batch = rng.uniform(0, 2 * np.pi, (3, spec.param_count))
        out = {}
        for threshold in thresholds:
            monkeypatch.setattr(sv, "_LONG_LOOP_MIN_HI", threshold)
            out[threshold] = run_circuit_batch(spec, batch).tobytes()
        assert len(set(out.values())) == 1
