"""Dense 2^n x 2^n gate matrices: the tests' reference for the in-place
kernels and, multiplied onto the zero state, for whole circuits. Qubit k is
bit k of the basis index, as in the library.

A plain helper module: pytest collects only ``test_*.py`` files.
"""

import numpy as np


def dense_rotation(kind, n, qubit, angle):
    """The 2^n x 2^n matrix of the rotation on ``qubit`` (bit ``qubit`` of the index)."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "ry":
        gate = [[c, -s], [s, c]]
    else:
        gate = np.diag(np.exp([-0.5j * angle, 0.5j * angle]))
    return np.kron(np.kron(np.eye(2 ** (n - 1 - qubit)), gate), np.eye(2**qubit))


def dense_cnot(n, control, target):
    """The 2^n x 2^n permutation matrix of CNOT, built index by index."""
    matrix = np.zeros((2**n, 2**n))
    for i in range(2**n):
        matrix[i ^ (((i >> control) & 1) << target), i] = 1.0
    return matrix
