"""Exact population gradient variances at L = 1, from a quadrature grid.

At L = 1 the circuit is a product of single-qubit rotations followed by one
entangler, a basis permutation, so the probabilities do not depend on the RZ
angles. Every output is a trigonometric polynomial of degree 1 in each RY
angle and every loss of ``all_configs`` is at most quadratic in the outputs,
so a gradient and its square have degree <= 4 in each angle. An M-node
equidistant rule on [0, 2pi) integrates trigonometric polynomials of degree
< M exactly, so the 5-node grid over the n RY angles (RZ = 0, 5^n rows)
gives the exact E[g^2] - E[g]^2 over uniform angles. The 1e-12 tolerances
cover only the rounding of sums over at most 5^5 rows.
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
def grid_gradients(name, n, nodes):
    """(nodes^n, 2n) gradients of config ``name`` at L = 1 on the grid of
    equidistant RY nodes, every RZ angle 0, through the adjoint plan."""
    ry = np.array(list(itertools.product(2 * np.pi * np.arange(nodes) / nodes, repeat=n)))
    angles = np.hstack([ry, np.zeros_like(ry)])
    run = gradients._adjoint_plan([[CONFIGS[name]] * len(angles)], n, 1)
    return run(angles)[1][0]


def exact_variance(name, n, nodes=5):
    return grid_gradients(name, n, nodes).var(axis=0)  # the population divisor


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


@pytest.mark.parametrize("name, n, mean", [
    ("pde_constrained", 2, 11 / 128),
    ("pde_structured", 2, 11 / 128),
    ("pde_constrained", 4, 0.1101953125),
    ("pde_structured", 4, 0.104852294921875),
])
def test_composite_mean_variances(name, n, mean):
    assert exact_variance(name, n).mean() == pytest.approx(mean, rel=0, abs=EXACT_TOL)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_rz_gradients_are_zero_on_every_row(name, n):
    # At L = 1 every RZ gate is in the last layer, which the engine leaves
    # out, so each RZ entry is an exact zero.
    assert np.all(grid_gradients(name, n, 5)[:, n:] == 0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_seven_node_rule_agrees(name, n):
    # Both rules are exact, so they differ only by rounding. n stops at 4:
    # 7^5 rows per config would cost more than the rest of this module.
    np.testing.assert_allclose(exact_variance(name, n, 7), exact_variance(name, n),
                               rtol=0, atol=1e-13)
