"""Sampled estimates against values known in closed form.

The variance protocol's K-sample estimates at L = 1 against the exact
variances of ``test_exact``, and those of deep random circuits against the
variance at a unitary 2-design; the half-cut entropy of deep random
circuits against Page's mean entropy of a Haar-random state. All use fixed
seeds, so each check reads the same z-scores on every run.
"""

import math

import numpy as np
import pytest

from plateaulab import gradients
from plateaulab.ansatz import CircuitSpec, Topology, run_circuit_batch
from plateaulab.experiments import entanglement_sweep
from plateaulab.gradients import draw_params, gradient_variance
from plateaulab.losses import all_configs
from plateaulab.statevector import reduced_density_matrix, von_neumann_entropy
from test_exact import EXACT_TOL, exact_variance

SAMPLES = 200

# The variance check compares 96 live entries, the entropy check 8 means and
# the deep-circuit variance check 4 means. A normal z exceeds 4 with
# probability 6e-5 and 3 with 0.0027, so at other seeds a correct engine
# would fail the variance check about once in 170 runs, the entropy check
# once in 50 and the deep-circuit check once in 90, while a bias of a few
# standard errors still shows. At these seeds the largest |z| reads 3.36,
# 1.91 and 2.19.
VARIANCE_Z = 4
PAGE_Z = 3
HAAR_Z = 3
HAAR_LAYERS = 30


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampled_variances_match_the_exact_l1_variances(n, seed):
    # The unbiased variance s^2 of K samples has standard error
    # sqrt((m4 - (K - 3) / (K - 1) * s^4) / K), from the entry's fourth
    # central moment m4. An entry whose exact variance is 0 has no spread
    # to compare; its estimate must be 0 to the exact grid's tolerance.
    draws = np.stack([draw_params(seed, n, 1, k) for k in range(SAMPLES)])
    variances = gradient_variance(all_configs(), n, 1, SAMPLES, seed)
    for config, variance in zip(all_configs(), variances):
        stack = gradients._adjoint_plan([[config] * SAMPLES], n, 1)(draws)[1][0]
        s2 = stack.var(axis=0, ddof=1)
        assert variance.tobytes() == s2.tobytes()
        exact = exact_variance(config.name, n)
        live = exact > EXACT_TOL
        assert np.all(np.abs(s2[~live] - exact[~live]) <= EXACT_TOL)
        m4 = np.mean((stack - stack.mean(axis=0)) ** 4, axis=0)
        se = np.sqrt((m4 - (SAMPLES - 3) / (SAMPLES - 1) * s2**2) / SAMPLES)
        z = (s2[live] - exact[live]) / se[live]
        assert np.all(np.abs(z) <= VARIANCE_Z), (config.name, z)


def haar_gradient_variance(n):
    """Variance of d<O>/dtheta for a traceless Pauli string O and a Pauli
    generator P when the circuits before and after the angle are independent
    2-designs (McClean et al., arXiv:1803.11173; Cerezo et al.,
    arXiv:2001.00550): d^2 / (2 (d + 1)^2 (d - 1)) with d = 2^n."""
    d = 2**n
    return d**2 / (2 * (d + 1) ** 2 * (d - 1))


@pytest.mark.parametrize("n", [4, 6])
def test_deep_circuit_variances_reach_the_2_design_value(n):
    # O is the parity for the global cost and Z_0 for the local cost. At
    # L = 30 the layers of the middle third have close to 2-designs on both
    # sides at n = 4 and 6; edge layers do not, and the last layer holds
    # dead entries, so the mean runs over the middle third only. Its
    # standard error is a leave-one-draw-out jackknife over the K draws.
    assert haar_gradient_variance(4) == pytest.approx(0.029527, abs=1e-6)
    assert haar_gradient_variance(6) == pytest.approx(0.0076942, abs=1e-7)
    costs = all_configs()[:2]  # the global and local costs
    draws = np.stack([draw_params(0, n, HAAR_LAYERS, k) for k in range(SAMPLES)])
    variances = gradient_variance(costs, n, HAAR_LAYERS, SAMPLES, 0)
    stacks = gradients._adjoint_plan([[config] * SAMPLES for config in costs],
                                     n, HAAR_LAYERS)(draws)[1]
    middle = slice(2 * n * (HAAR_LAYERS // 3), 2 * n * (2 * HAAR_LAYERS // 3))
    for config, variance, stack in zip(costs, variances, stacks):
        assert variance.tobytes() == stack.var(axis=0, ddof=1).tobytes()
        entries = stack[:, middle]
        left_out = [np.delete(entries, k, axis=0).var(axis=0, ddof=1).mean()
                    for k in range(SAMPLES)]
        se = math.sqrt((SAMPLES - 1) * np.var(left_out))
        z = (variance[middle].mean() - haar_gradient_variance(n)) / se
        assert abs(z) <= HAAR_Z, (config.name, z)


def page_entropy_bits(n):
    """Page's mean entanglement entropy (PRL 71, 1291, 1993), in bits, of
    the first floor(n/2) qubits of a Haar-random n-qubit state: for
    subsystem dimensions m <= d, sum_{k=d+1}^{md} 1/k - (m - 1) / (2d) nats."""
    m, d = 2 ** (n // 2), 2 ** (n - n // 2)
    return (sum(1 / k for k in range(d + 1, m * d + 1)) - (m - 1) / (2 * d)) / math.log(2)


@pytest.mark.parametrize("n", [4, 6])
def test_deep_circuits_reach_page_entropy(n):
    # At L = 20 and 40 the draws are close to Haar-random states; the
    # standard error of each mean comes from the per-draw entropies of the
    # same draws, whose mean is the sweep's to the bit.
    assert page_entropy_bits(4) == pytest.approx(1.3307, abs=1e-4)
    for row in entanglement_sweep([n], [20, 40], SAMPLES, 0):
        spec = CircuitSpec(n, row.layers, Topology(row.topology))
        draws = np.stack([draw_params(0, n, row.layers, k) for k in range(SAMPLES)])
        entropies = von_neumann_entropy(
            reduced_density_matrix(run_circuit_batch(spec, draws), range(n // 2)))
        assert np.mean(entropies) == row.mean_entropy_bits
        se = np.std(entropies, ddof=1) / math.sqrt(SAMPLES)
        z = (row.mean_entropy_bits - page_entropy_bits(n)) / se
        assert abs(z) <= PAGE_Z, (row, z)
