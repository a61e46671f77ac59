"""Tour of the statevector core: gates, expectations, entanglement entropy.

Run:  python3 demos/01_simulator_basics.py
"""

import numpy as np

from plateaulab import (
    apply_cnot,
    apply_ry,
    apply_rz,
    expect_z,
    expect_z_string,
    init_zero,
    reduced_density_matrix,
    von_neumann_entropy,
)

# A state is a plain complex array of 2^n amplitudes; qubit 0 is the least
# significant bit of the basis index throughout.
state = init_zero(2)
print("|00> amplitudes:", state)

# A Y-rotation by pi/2 puts qubit 0 into an equal superposition...
plus = apply_ry(state, 0, np.pi / 2)
print("after RY(pi/2) on qubit 0:", np.round(plus, 6))
print("<Z_0> =", round(expect_z(plus, 0), 12), " (cos(pi/2) = 0)")

# ...and a CNOT turns it into a Bell pair.
bell = apply_cnot(plus, 0, 1)
print("Bell state:", np.round(bell, 6))
print("<Z_0 Z_1> =", round(expect_z_string(bell, {0, 1}), 12))

# Tracing out qubit 1 leaves qubit 0 maximally mixed: exactly 1 bit of
# entanglement entropy. The density matrix is a plain 2 x 2 array.
rho = reduced_density_matrix(bell, keep={0})
print("reduced density matrix:\n", np.round(rho, 6))
print("half-cut entropy:", von_neumann_entropy(rho), "bit")

# Z-rotations only move phases, so Z expectations are untouched.
phased = apply_rz(bell, 0, 1.23)
print("<Z_0> unchanged by RZ:", round(expect_z(phased, 0), 12))
