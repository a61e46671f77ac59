"""Core simulator checks against textbook identities and brute-force oracles."""

import re
from fractions import Fraction

import numpy as np
import pytest

from plateaulab import statevector as sv
from plateaulab.statevector import (
    apply_cnot,
    apply_ry,
    apply_rz,
    expect_z,
    expect_z_string,
    init_zero,
    probabilities,
    qubit_count,
    reduced_density_matrix,
    von_neumann_entropy,
    z_signs,
)


def random_state(n, rng):
    """Haar-ish random pure state from normalized complex Gaussians."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def brute_force_partial_trace(state, keep):
    """Independent partial trace by explicit double sum over the complement."""
    n = qubit_count(state)
    keep = sorted(keep)
    rest = [q for q in range(n) if q not in keep]
    dim = 2 ** len(keep)

    def assemble(kept_bits, rest_bits):
        index = 0
        for i, q in enumerate(keep):
            index |= ((kept_bits >> i) & 1) << q
        for i, q in enumerate(rest):
            index |= ((rest_bits >> i) & 1) << q
        return index

    rho = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            for e in range(2 ** len(rest)):
                rho[r, c] += state[assemble(r, e)] * np.conj(state[assemble(c, e)])
    return rho


class TestInitZero:
    def test_two_qubits(self):
        np.testing.assert_array_equal(init_zero(2), [1, 0, 0, 0])

    def test_four_qubits(self):
        state = init_zero(4)
        assert state.shape == (16,)
        assert state[0] == 1.0
        assert np.all(state[1:] == 0)

    def test_normalized_for_all_sizes(self):
        for n in range(2, 13):
            assert np.linalg.norm(init_zero(n)) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 13, -2, 4.0, 2.5])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError):
            init_zero(n)


class TestRealRule:
    @pytest.mark.parametrize("value", [0, 2, 0.5, np.float64(1e-300), np.int64(3),
                                       np.float32(0.25), Fraction(1, 3)])
    def test_finite_real_numbers_pass(self, value):
        sv._check_real("x", value)
        sv._check_real("x", value, 0)
        sv._check_real("x", value, 0, strict=value != 0)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.1", None, 1j,
                                       np.array(0.5), float("nan"), float("inf"),
                                       -float("inf"), np.float64("nan")])
    def test_other_values_rejected_naming_the_argument(self, value):
        with pytest.raises(ValueError, match=r"^rate must be a finite real number, got ") as exc:
            sv._check_real("rate", value)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("value, low, strict, bound", [
        (-1, 0, False, ">= 0"), (-1e-300, 0, False, ">= 0"), (0, 0, True, "> 0"),
        (0.0, 0, True, "> 0"), (-10**400, 0, False, ">= 0")])
    def test_range_checked(self, value, low, strict, bound):
        with pytest.raises(ValueError, match=f"^x must be a finite real number {bound}, got"):
            sv._check_real("x", value, low, strict)


class TestSingleQubitGates:
    def test_ry_pi_flips_with_plus_sign(self):
        state = apply_ry(init_zero(2), 0, np.pi)
        np.testing.assert_allclose(state, [0, 1, 0, 0], atol=1e-15)

    def test_ry_zero_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(3, rng)
        out = apply_ry(state, 1, 0.0)
        np.testing.assert_array_equal(out, state)

    def test_ry_half_pi_equal_superposition(self):
        state = apply_ry(init_zero(2), 0, np.pi / 2)
        np.testing.assert_allclose(
            state, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-15
        )

    def test_rz_on_zero_is_global_phase(self):
        state = apply_rz(init_zero(2), 0, 1.234)
        assert abs(abs(state[0]) - 1.0) < 1e-15
        assert abs(expect_z(state, 0) - 1.0) < 1e-12

    def test_rz_zero_is_identity(self):
        rng = np.random.default_rng(2)
        state = random_state(3, rng)
        out = apply_rz(state, 2, 0.0)
        np.testing.assert_array_equal(out, state)

    def test_rz_pi_flips_relative_phase(self):
        plus = apply_ry(init_zero(2), 0, np.pi / 2)
        out = apply_rz(plus, 0, np.pi)
        # (|0> - |1>)/sqrt(2) up to the global phase exp(-i pi/2)
        ratio = out[1] / out[0]
        assert abs(ratio + 1.0) < 1e-12

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            apply_ry(init_zero(2), 2, 0.1)
        with pytest.raises(IndexError):
            apply_rz(init_zero(2), -1, 0.1)

    @pytest.mark.parametrize("entry", [
        lambda q: apply_ry(init_zero(3), q, 0.3),
        lambda q: apply_rz(init_zero(3), q, 0.3),
        lambda q: apply_cnot(init_zero(3), q, 0),
        lambda q: expect_z_string(init_zero(3), [q]),
        lambda q: reduced_density_matrix(init_zero(3), [q]),
        # Each entry is checked before the set is sorted, which would raise
        # TypeError for "1" or None beside an integer.
        lambda q: expect_z_string(init_zero(3), [0, q]),
        lambda q: reduced_density_matrix(init_zero(3), [0, q]),
    ], ids=["ry", "rz", "cnot", "expect_z_string", "reduced_density_matrix",
            "expect_z_string_pair", "reduced_density_matrix_pair"])
    @pytest.mark.parametrize("qubit", [1.5, 0.5, 1.0, True, np.float64(1.0), "1", None])
    def test_non_integer_qubit_rejected(self, entry, qubit):
        with pytest.raises(ValueError, match="qubit must be an integer, got"):
            entry(qubit)

    @pytest.mark.parametrize("gate", [apply_ry, apply_rz], ids=["ry", "rz"])
    @pytest.mark.parametrize("angle", [np.nan, np.inf, True, np.bool_(False), "0.3", None,
                                       np.array(0.3)])
    def test_non_real_or_non_finite_angle_rejected(self, gate, angle):
        # Unchecked, NaN would give an all-NaN state, True 1 rad and "0.3" a TypeError.
        with pytest.raises(ValueError, match="^angle must be a finite real number, got"):
            gate(init_zero(2), 0, angle)

    def test_inputs_not_mutated(self):
        state = init_zero(2)
        before = state.copy()
        apply_ry(state, 0, 0.7)
        np.testing.assert_array_equal(state, before)


class TestCnot:
    def test_flips_target_when_control_set(self):
        # |q1=0, q0=1> --CNOT(0,1)--> |q1=1, q0=1>
        state = apply_ry(init_zero(2), 0, np.pi)
        out = apply_cnot(state, 0, 1)
        np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)

    def test_trivial_on_zero_state(self):
        out = apply_cnot(init_zero(2), 0, 1)
        np.testing.assert_array_equal(out, [1, 0, 0, 0])

    def test_involution(self):
        rng = np.random.default_rng(3)
        state = random_state(4, rng)
        out = apply_cnot(apply_cnot(state, 2, 0), 2, 0)
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            apply_cnot(init_zero(2), 1, 1)


class TestExpectations:
    def test_zero_state(self):
        assert expect_z(init_zero(3), 1) == 1.0

    def test_ry_gives_cos_theta(self):
        """<Z> after RY(theta) on |0> equals cos(theta), 100-point grid."""
        for theta in np.linspace(0, 2 * np.pi, 100, endpoint=False):
            state = apply_ry(init_zero(2), 0, theta)
            assert abs(expect_z(state, 0) - np.cos(theta)) < 1e-12

    def test_equal_superposition_is_zero(self):
        state = apply_ry(init_zero(2), 0, np.pi / 2)
        assert abs(expect_z(state, 0)) < 1e-12

    def test_string_on_zero_state(self):
        assert expect_z_string(init_zero(3), range(3)) == 1.0

    def test_string_single_excitation_flips_parity(self):
        state = apply_ry(init_zero(2), 1, np.pi)
        assert abs(expect_z_string(state, {0, 1}) + 1.0) < 1e-12

    def test_string_singleton_matches_expect_z(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = random_state(3, rng)
            for q in range(3):
                assert abs(expect_z_string(state, {q}) - expect_z(state, q)) < 1e-12

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            expect_z_string(init_zero(2), set())

    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_rows_equal_single_state_calls(self, n, lead):
        rng = np.random.default_rng(60 + n)
        amps = rng.normal(size=lead + (2**n,)) + 1j * rng.normal(size=lead + (2**n,))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        for qubits in [{0}, {n - 1}, {0, 1}, range(n)]:
            values = expect_z_string(amps, qubits)
            assert values.shape == lead
            for idx in np.ndindex(*lead):
                single = expect_z_string(amps[idx], qubits)
                assert type(single) is float
                assert values[idx].tobytes() == np.float64(single).tobytes()
        per_qubit = np.stack([expect_z(amps, q) for q in range(n)], axis=-1)
        np.testing.assert_allclose(per_qubit, sv.outputs(z_signs(n), probabilities(amps)),
                                   rtol=0, atol=1e-15)


class TestReducedDensityMatrix:
    def test_product_state(self):
        rho = reduced_density_matrix(init_zero(2), {0})
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_state_maximally_mixed(self):
        bell = apply_cnot(apply_ry(init_zero(2), 0, np.pi / 2), 0, 1)
        rho = reduced_density_matrix(bell, {0})
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_trace_one_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_state(4, rng)
            rho = reduced_density_matrix(state, {1, 3})
            assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for n in (3, 4, 5, 6):
            state = random_state(n, rng)
            for keep in ([0], [n - 1], [0, 2], list(range(n // 2))):
                got = reduced_density_matrix(state, keep)
                want = brute_force_partial_trace(state, keep)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_invariants_hold(self):
        rng = np.random.default_rng(7)
        state = random_state(5, rng)
        rho = reduced_density_matrix(state, {0, 1, 4})
        assert rho.shape == (8, 8)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_empty_or_full_keep_rejected(self):
        state = init_zero(3)
        with pytest.raises(ValueError):
            reduced_density_matrix(state, set())
        with pytest.raises(ValueError):
            reduced_density_matrix(state, {0, 1, 2})


class TestEntropy:
    def test_pure_state_zero_bits(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit_one_bit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12

    def test_maximally_mixed_two_qubits_two_bits(self):
        rho = np.diag([0.25] * 4)
        assert abs(von_neumann_entropy(rho) - 2.0) < 1e-12

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ArithmeticError):
            von_neumann_entropy(bad)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 2), (2, 2, 3), (5, 1, 2), (0, 0),
                                       (3, 0, 0)], ids=str)
    def test_non_square_stack_rejected(self, shape):
        # Unchecked, a 1-D array would raise AxisError, (3, 2) a broadcast error
        # and (0, 0) a reshape error.
        message = f"expected density matrices of shape (..., d, d) with d >= 1, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            von_neumann_entropy(np.zeros(shape))

    def test_schmidt_symmetry(self):
        """S(A) = S(complement of A) for pure states."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = random_state(5, rng)
            keep = {0, 2}
            rest = {1, 3, 4}
            s_a = von_neumann_entropy(reduced_density_matrix(state, keep))
            s_b = von_neumann_entropy(reduced_density_matrix(state, rest))
            assert abs(s_a - s_b) < 1e-9

    def test_entropy_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            state = random_state(6, rng)
            for keep in ([0], [0, 1], [1, 3, 5]):
                s = von_neumann_entropy(reduced_density_matrix(state, keep))
                assert 0.0 <= s <= min(len(keep), 6 - len(keep)) + 1e-9


class TestBlocks:
    """A block of states gives, row by row, the bits of each single-state call."""

    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_rows_equal_single_state_calls(self, n, lead):
        rng = np.random.default_rng(30 + n)
        amps = rng.normal(size=lead + (2**n,)) + 1j * rng.normal(size=lead + (2**n,))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        first = (0,) * len(lead)
        amps[first] = init_zero(n)  # a product state
        keeps = [range(n // 2), range(n // 2, n)] + ([{0, n - 1}] if n > 2 else [])
        for keep in keeps:
            rho = reduced_density_matrix(amps, keep)
            entropies = von_neumann_entropy(rho)
            dim = 2 ** len(set(keep))
            assert rho.shape == lead + (dim, dim)
            assert entropies.shape == lead
            for idx in np.ndindex(*lead):
                single = reduced_density_matrix(amps[idx], keep)
                assert rho[idx].tobytes() == single.tobytes()
                assert entropies[idx].tobytes() == np.float64(von_neumann_entropy(single)).tobytes()
                # The floor drops small eigenvalues from the sum, not its terms.
                lam = np.clip(np.linalg.eigvalsh(single), 0.0, 1.0)
                lam = lam[lam > 1e-12]
                assert entropies[idx] == -np.sum(lam * np.log2(lam))
            assert entropies[first] == 0.0 and not np.signbit(entropies[first])

    def test_single_state_gives_a_float(self):
        bell = apply_cnot(apply_ry(init_zero(2), 0, np.pi / 2), 0, 1)
        assert type(von_neumann_entropy(reduced_density_matrix(bell, {0}))) is float
        assert type(von_neumann_entropy(reduced_density_matrix(init_zero(3), {0}))) is float

    def test_one_non_hermitian_row_rejected(self):
        entries = np.stack([np.eye(2) / 2, [[0.5, 0.3], [0.0, 0.5]], np.eye(2) / 2])
        with pytest.raises(ArithmeticError):
            von_neumann_entropy(entries)


def rotate(kind, amps, qubit, angles, inverse=False):
    """Run the in-place RY or RZ kernel on a (B, 2^n) block, one angle per row.

    ``amps`` may carry further leading axes, over which the (B,) coefficients
    broadcast. ``inverse`` passes (cos, -sin pair) or the conjugate phases, as
    the adjoint backward sweep does to undo the gate.
    """
    cos_half, sin_pair, phases = (c[0] for c in sv._gate_coefficients(angles[:, None]))
    if kind == "ry":
        sv._apply_ry_inplace(amps, qubit, cos_half, -sin_pair if inverse else sin_pair)
    else:
        sv._apply_rz_inplace(amps, qubit, np.conj(phases) if inverse else phases)


def dense_rotation(kind, n, qubit, angle):
    """The 2^n x 2^n matrix of the rotation on ``qubit`` (bit ``qubit`` of the index)."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "ry":
        gate = [[c, -s], [s, c]]
    else:
        gate = np.diag(np.exp([-0.5j * angle, 0.5j * angle]))
    return np.kron(np.kron(np.eye(2 ** (n - 1 - qubit)), gate), np.eye(2**qubit))


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("kind", ["ry", "rz"])
class TestRotationKernels:
    """The RY/RZ kernels on random (5, 2^n) blocks, at every qubit."""

    @staticmethod
    def block(n):
        rng = np.random.default_rng(40 + n)
        amps = rng.normal(size=(5, 2**n)) + 1j * rng.normal(size=(5, 2**n))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        return amps, rng.uniform(0.0, 2 * np.pi, 5)

    def test_matches_reference(self, kind, n):
        # A dense np.kron matrix up to n = 8, the single-state apply_* above.
        amps, angles = self.block(n)
        single = apply_ry if kind == "ry" else apply_rz
        for qubit in range(n):
            out = amps.copy()
            rotate(kind, out, qubit, angles)
            for row, angle in enumerate(angles):
                if n <= 8:
                    expected = dense_rotation(kind, n, qubit, angle) @ amps[row]
                else:
                    expected = single(amps[row], qubit, angle)
                assert np.max(np.abs(out[row] - expected)) <= 1e-14

    def test_rows_have_bits_of_single_row_calls(self, kind, n):
        # The adjoint engine relies on a row's bits not depending on its batch.
        amps, angles = self.block(n)
        for qubit in range(n):
            out = amps.copy()
            rotate(kind, out, qubit, angles)
            for row in range(5):
                alone = amps[row : row + 1].copy()
                rotate(kind, alone, qubit, angles[row : row + 1])
                assert alone[0].tobytes() == out[row].tobytes()

    def test_inverse_coefficients_undo_the_gate(self, kind, n):
        amps, angles = self.block(n)
        for qubit in range(n):
            out = amps.copy()
            rotate(kind, out, qubit, angles)
            rotate(kind, out, qubit, angles, inverse=True)
            assert np.max(np.abs(out - amps)) <= 1e-15

    def test_stacked_blocks_have_bits_of_block_calls(self, kind, n):
        # The adjoint engine runs (G+1, B, 2^n) rows with the forward's (B,)
        # coefficients broadcast over the leading axis.
        amps, angles = self.block(n)
        stack = np.stack([amps, amps.conj(), amps[::-1]])
        for qubit in range(n):
            out = stack.copy()
            rotate(kind, out, qubit, angles)
            for g in range(3):
                alone = stack[g].copy()
                rotate(kind, alone, qubit, angles)
                assert alone.tobytes() == out[g].tobytes()

    def test_row_prefix_views_write_through(self, kind, n):
        # The forward's first layer runs qubit k on amps[:, :2^(k+1)]. A
        # kernel whose reshape copied that strided view would drop the update
        # without any error.
        amps, angles = self.block(n)
        for qubit in range(n):
            out = amps.copy()
            width = 2 ** (qubit + 1)
            rotate(kind, out[:, :width], qubit, angles)
            contiguous = amps[:, :width].copy()
            rotate(kind, contiguous, qubit, angles)
            assert out[:, :width].tobytes() == contiguous.tobytes()
            assert out[:, width:].tobytes() == amps[:, width:].tobytes()


def dense_cnot(n, control, target):
    """The 2^n x 2^n permutation matrix of CNOT, built index by index."""
    matrix = np.zeros((2**n, 2**n))
    for i in range(2**n):
        matrix[i ^ (((i >> control) & 1) << target), i] = 1.0
    return matrix


class TestCnotKernel:
    """The CNOT kernel on random blocks, for every ordered (control, target) pair."""

    @staticmethod
    def block(n, lead):
        rng = np.random.default_rng(60 + n)
        return rng.normal(size=lead + (2**n,)) + 1j * rng.normal(size=lead + (2**n,))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_permutation(self, n):
        # Circuits only reach control < target; apply_cnot reaches both branches.
        amps = self.block(n, (5,))
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                expected = amps @ dense_cnot(n, control, target).T
                out = amps.copy()
                sv._apply_cnot_inplace(out, control, target)
                np.testing.assert_array_equal(out, expected)
                np.testing.assert_array_equal(apply_cnot(amps[2], control, target),
                                              expected[2])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stacked_blocks_have_bits_of_block_calls(self, n):
        stack = self.block(n, (3, 5))
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                out = stack.copy()
                sv._apply_cnot_inplace(out, control, target)
                for g in range(3):
                    alone = stack[g].copy()
                    sv._apply_cnot_inplace(alone, control, target)
                    assert alone.tobytes() == out[g].tobytes()


class TestNormPreservation:
    def test_random_gate_sequences(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            state = init_zero(5)
            for _ in range(60):
                kind = rng.integers(3)
                q = int(rng.integers(5))
                if kind == 0:
                    state = apply_ry(state, q, rng.uniform(0, 2 * np.pi))
                elif kind == 1:
                    state = apply_rz(state, q, rng.uniform(0, 2 * np.pi))
                else:
                    t = int(rng.integers(5))
                    if t != q:
                        state = apply_cnot(state, q, t)
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


class TestSignTable:
    def test_single_qubit_string_equals_expect_z(self):
        rng = np.random.default_rng(22)
        state = random_state(5, rng)
        for q in range(5):
            assert expect_z_string(state, {q}) == expect_z(state, q)

    def test_rows_are_z_diagonals_and_read_only(self):
        signs = z_signs(3)
        np.testing.assert_array_equal(signs[1], [1, 1, -1, -1, 1, 1, -1, -1])
        assert not signs.flags.writeable
        with pytest.raises(ValueError):
            signs[0, 0] = 0.0

    def test_probabilities_are_squared_moduli(self):
        amps = np.array([0.6, 0.8j, -0.3 + 0.4j])
        np.testing.assert_allclose(probabilities(amps), [0.36, 0.64, 0.25], atol=1e-15)


# Every public function that reads n from a state's last axis.
ARRAY_ENTRY_POINTS = {
    "qubit_count": qubit_count,
    "apply_ry": lambda amps: apply_ry(amps, 0, 0.3),
    "apply_rz": lambda amps: apply_rz(amps, 0, 0.3),
    "apply_cnot": lambda amps: apply_cnot(amps, 0, 1),
    "expect_z": lambda amps: expect_z(amps, 0),
    "expect_z_string": lambda amps: expect_z_string(amps, {0, 1}),
    "reduced_density_matrix": lambda amps: reduced_density_matrix(amps, {0}),
}


class TestQubitCount:
    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_reads_n_from_the_last_axis(self, n):
        assert qubit_count(np.zeros(2**n)) == n
        assert qubit_count(np.zeros((3, 2, 2**n))) == n
        assert qubit_count([0.0] * 2**n) == n

    @pytest.mark.parametrize("size", [12, 2, 2**13], ids=["12", "2", "2^13"])
    @pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS.values(), ids=list(ARRAY_ENTRY_POINTS))
    def test_rejected_at_every_entry_point(self, entry, size):
        amps = np.zeros(size, dtype=np.complex128)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="expected 2\\^n amplitudes"):
            entry(amps)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match="got 0"):
            qubit_count(1.0)


@pytest.mark.parametrize("gate", [
    lambda amps: apply_ry(amps, 1, 0.7),
    lambda amps: apply_rz(amps, 0, 0.7),
    lambda amps: apply_cnot(amps, 0, 1),
], ids=["ry", "rz", "cnot"])
class TestGateInputs:
    """apply_* take any array-like of amplitudes and return a fresh complex array."""

    def test_list_and_real_array_match_complex_input(self, gate):
        real = np.array([0.6, 0.0, 0.0, 0.8])
        want = gate(real.astype(np.complex128))
        for amps in (real, real.tolist()):
            got = gate(amps)
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes()

    def test_input_never_mutated(self, gate):
        real = np.array([0.6, 0.0, 0.0, 0.8])
        block = np.stack([real, real[::-1]]).astype(np.complex128)
        listed = real.tolist()
        for amps in (real, block, listed):
            before = np.array(amps, copy=True)
            out = gate(amps)
            assert out is not amps and not np.shares_memory(out, amps)
            np.testing.assert_array_equal(np.asarray(amps), before)
        assert listed == [0.6, 0.0, 0.0, 0.8]
