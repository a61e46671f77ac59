"""Exact population gradient variances at L = 1 and 2, from a quadrature grid.

Each angle sits in exactly one gate, so every output is a trigonometric
polynomial of degree 1 in each angle, at any L. Every loss of
``all_configs`` is at most quadratic in the outputs, so a gradient and its
square have degree <= 4 in each angle. An M-node equidistant rule on
[0, 2pi) integrates trigonometric polynomials of degree < M exactly, so a
5-node grid over every live angle gives the exact E[g^2] - E[g]^2 over
uniform angles. The grid must span every angle the outputs depend on; only
the last layer's RZ angles, which the Z-basis readouts do not see, stay at
0. At L = 1 the circuit is a product of single-qubit rotations followed by
one entangler, a basis permutation, so the probabilities do not depend on
the RZ angles either and the grid spans the n RY angles (5^n rows). At n = 2,
L = 2 it spans the 6 angles before the last RZ layer (5^6 rows). The 1e-12
tolerances cover only the rounding of sums over at most 5^6 rows.
"""

import functools
import itertools

import numpy as np
import pytest

from plateaulab import gradients
from plateaulab.losses import all_configs

CONFIGS = {config.name: config for config in all_configs()}
EXACT_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def grid_gradients(name, n, layers, nodes):
    """(nodes^m, 2nL) gradients of config ``name`` through the adjoint plan,
    on the grid of equidistant nodes over the m = (2L - 1)n angles before the
    last layer's RZ angles, which stay 0."""
    live = np.array(list(itertools.product(2 * np.pi * np.arange(nodes) / nodes,
                                           repeat=(2 * layers - 1) * n)))
    angles = np.hstack([live, np.zeros((len(live), n))])
    run = gradients._adjoint_plan([[CONFIGS[name]] * len(angles)], n, layers)
    return run(angles)[1][0]


def exact_variance(name, n, layers=1, nodes=5):
    return grid_gradients(name, n, layers, nodes).var(axis=0)  # the population divisor


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name, qubit", [("global_cost", -1), ("local_cost", 0)])
def test_cost_variance_is_one_half_on_one_ry_angle(name, qubit, n):
    # The global cost's variance sits on qubit n - 1, the local cost's on
    # qubit 0; every other angle, RZ included, has none. The mean is 1/(4n).
    expected = np.zeros(2 * n)
    expected[qubit % n] = 0.5
    variance = exact_variance(name, n)
    np.testing.assert_allclose(variance, expected, rtol=0, atol=EXACT_TOL)
    assert variance.mean() == pytest.approx(1 / (4 * n), rel=0, abs=EXACT_TOL)


@pytest.mark.parametrize("name, expected", [
    ("global_cost", [1 / 8, 1 / 4, 0, 1 / 8, 0, 1 / 4, 0, 0]),
    ("local_cost", [9 / 32, 1 / 32, 1 / 32, 1 / 32, 9 / 32, 0, 0, 0]),
])
def test_cost_variances_at_n_2_two_layers(name, expected):
    # Entries in layer order, RY then RZ, so the global cost's mean is 3/32
    # and the local cost's 21/256. The last layer's RZ entries are dead.
    np.testing.assert_allclose(exact_variance(name, 2, layers=2), expected,
                               rtol=0, atol=EXACT_TOL)


@pytest.mark.parametrize("name, n, layers, mean", [
    ("pde_constrained", 2, 1, 11 / 128),
    ("pde_structured", 2, 1, 11 / 128),
    ("pde_constrained", 4, 1, 0.1101953125),
    ("pde_structured", 4, 1, 0.104852294921875),
    ("pde_constrained", 2, 2, 0.04062557220458986),
    ("pde_structured", 2, 2, 0.04062557220458986),
])
def test_composite_mean_variances(name, n, layers, mean):
    assert exact_variance(name, n, layers).mean() == pytest.approx(mean, rel=0, abs=EXACT_TOL)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_rz_gradients_are_zero_on_every_row(name, n):
    # At L = 1 every RZ gate is in the last layer, which the engine leaves
    # out, so each RZ entry is an exact zero.
    assert np.all(grid_gradients(name, n, 1, 5)[:, n:] == 0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_seven_node_rule_agrees(name, n):
    # Both rules are exact, so they differ only by rounding. n stops at 4:
    # 7^5 rows per config would cost more than the rest of this module.
    np.testing.assert_allclose(exact_variance(name, n, nodes=7), exact_variance(name, n),
                               rtol=0, atol=1e-13)
