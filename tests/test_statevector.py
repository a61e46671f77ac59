"""Core simulator checks against textbook identities and brute-force oracles."""

import numpy as np
import pytest

from plateaulab.statevector import (
    DensityMatrix,
    apply_cnot,
    apply_ry,
    apply_rz,
    expect_z,
    expect_z_string,
    init_zero,
    probabilities,
    reduced_density_matrix,
    von_neumann_entropy,
    z_signs,
)


def random_state(n, rng):
    """Haar-ish random pure state from normalized complex Gaussians."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    state = init_zero(n)
    state.amplitudes[:] = amps
    return state


def brute_force_partial_trace(state, keep):
    """Independent partial trace by explicit double sum over the complement."""
    n = state.n_qubits
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
                rho[r, c] += (
                    state.amplitudes[assemble(r, e)]
                    * np.conj(state.amplitudes[assemble(c, e)])
                )
    return rho


class TestInitZero:
    def test_two_qubits(self):
        np.testing.assert_array_equal(init_zero(2).amplitudes, [1, 0, 0, 0])

    def test_four_qubits(self):
        state = init_zero(4)
        assert state.amplitudes.shape == (16,)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_normalized_for_all_sizes(self):
        for n in range(2, 13):
            assert np.linalg.norm(init_zero(n).amplitudes) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 13, -2])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError):
            init_zero(n)


class TestSingleQubitGates:
    def test_ry_pi_flips_with_plus_sign(self):
        state = apply_ry(init_zero(2), 0, np.pi)
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_ry_zero_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(3, rng)
        out = apply_ry(state, 1, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_ry_half_pi_equal_superposition(self):
        state = apply_ry(init_zero(2), 0, np.pi / 2)
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-15
        )

    def test_rz_on_zero_is_global_phase(self):
        state = apply_rz(init_zero(2), 0, 1.234)
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-15
        assert abs(expect_z(state, 0) - 1.0) < 1e-12

    def test_rz_zero_is_identity(self):
        rng = np.random.default_rng(2)
        state = random_state(3, rng)
        out = apply_rz(state, 2, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_rz_pi_flips_relative_phase(self):
        plus = apply_ry(init_zero(2), 0, np.pi / 2)
        out = apply_rz(plus, 0, np.pi)
        # (|0> - |1>)/sqrt(2) up to the global phase exp(-i pi/2)
        ratio = out.amplitudes[1] / out.amplitudes[0]
        assert abs(ratio + 1.0) < 1e-12

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            apply_ry(init_zero(2), 2, 0.1)
        with pytest.raises(IndexError):
            apply_rz(init_zero(2), -1, 0.1)

    def test_inputs_not_mutated(self):
        state = init_zero(2)
        before = state.amplitudes.copy()
        apply_ry(state, 0, 0.7)
        np.testing.assert_array_equal(state.amplitudes, before)


class TestCnot:
    def test_flips_target_when_control_set(self):
        # |q1=0, q0=1> --CNOT(0,1)--> |q1=1, q0=1>
        state = apply_ry(init_zero(2), 0, np.pi)
        out = apply_cnot(state, 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_trivial_on_zero_state(self):
        out = apply_cnot(init_zero(2), 0, 1)
        np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_involution(self):
        rng = np.random.default_rng(3)
        state = random_state(4, rng)
        out = apply_cnot(apply_cnot(state, 2, 0), 2, 0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

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


class TestReducedDensityMatrix:
    def test_product_state(self):
        rho = reduced_density_matrix(init_zero(2), {0})
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_state_maximally_mixed(self):
        bell = apply_cnot(apply_ry(init_zero(2), 0, np.pi / 2), 0, 1)
        rho = reduced_density_matrix(bell, {0})
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_one_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_state(4, rng)
            rho = reduced_density_matrix(state, {1, 3})
            assert abs(np.trace(rho.entries) - 1.0) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for n in (3, 4, 5, 6):
            state = random_state(n, rng)
            for keep in ([0], [n - 1], [0, 2], list(range(n // 2))):
                got = reduced_density_matrix(state, keep).entries
                want = brute_force_partial_trace(state, keep)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_invariants_hold(self):
        rng = np.random.default_rng(7)
        state = random_state(5, rng)
        rho = reduced_density_matrix(state, {0, 1, 4})
        assert rho.dim == 8
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T, atol=1e-10)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho.entries).min() > -1e-9

    def test_empty_or_full_keep_rejected(self):
        state = init_zero(3)
        with pytest.raises(ValueError):
            reduced_density_matrix(state, set())
        with pytest.raises(ValueError):
            reduced_density_matrix(state, {0, 1, 2})


class TestEntropy:
    def test_pure_state_zero_bits(self):
        assert von_neumann_entropy(DensityMatrix(2, np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed_qubit_one_bit(self):
        assert abs(von_neumann_entropy(DensityMatrix(2, np.eye(2) / 2)) - 1.0) < 1e-12

    def test_maximally_mixed_two_qubits_two_bits(self):
        rho = DensityMatrix(4, np.diag([0.25] * 4))
        assert abs(von_neumann_entropy(rho) - 2.0) < 1e-12

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ArithmeticError):
            von_neumann_entropy(DensityMatrix(2, bad))

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
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


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
