"""Property tests over random circuit shapes, topologies and angles.

Hypothesis draws n in [2, 6], L in [1, 3], a topology and one angle per
parameter. Runs are derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateaulab.ansatz import CircuitSpec, Topology, run_circuit
from plateaulab.experiments import DEFAULT_PDES
from plateaulab.gradients import (
    _adjoint_plan,
    finite_difference_gradient,
    loss_gradient,
)
from plateaulab.losses import (
    Discretization,
    all_configs,
    pde_residual,
    total_loss,
)
from plateaulab.statevector import (
    outputs,
    probabilities,
    reduced_density_matrix,
    von_neumann_entropy,
    z_signs,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def circuits(draw, topology=None):
    """A (spec, angles) pair; the topology is drawn unless given."""
    n = draw(st.integers(2, 6))
    layers = draw(st.integers(1, 3))
    if topology is None:
        topology = draw(st.sampled_from(Topology))
    spec = CircuitSpec(n, layers, topology)
    angles = draw(st.lists(st.floats(-2 * np.pi, 2 * np.pi),
                           min_size=spec.param_count, max_size=spec.param_count))
    return spec, np.array(angles)


@PROPERTY
@given(circuits())
def test_run_circuit_preserves_the_norm(circuit):
    state = run_circuit(*circuit)
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


@PROPERTY
@given(circuits())
def test_half_cut_entropies_are_equal(circuit):
    spec, angles = circuit
    state = run_circuit(spec, angles)
    half = spec.n_qubits // 2
    s_a = von_neumann_entropy(reduced_density_matrix(state, range(half)))
    s_b = von_neumann_entropy(reduced_density_matrix(state, range(half, spec.n_qubits)))
    assert abs(s_a - s_b) < 1e-9


@pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_loss_gradient_matches_finite_differences(config, data):
    # Same step and tolerance as acceptance criterion 1.
    spec, angles = data.draw(circuits(config.required_topology()))
    disc = Discretization(spec.n_qubits)
    fd = finite_difference_gradient(
        lambda q: total_loss(config, spec, q, disc), angles, 1e-5)
    np.testing.assert_allclose(loss_gradient(config, spec, angles, disc), fd, atol=1e-6)


@pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_adjoint_gradient_matches_finite_differences(config, data):
    # Same step and tolerance as acceptance criterion 1.
    spec, angles = data.draw(circuits(config.required_topology()))
    disc = Discretization(spec.n_qubits)
    fd = finite_difference_gradient(
        lambda q: total_loss(config, spec, q, disc), angles, 1e-5)
    got = _adjoint_plan([[config]], spec.n_qubits, spec.layers)(angles[None])[1][0, 0]
    np.testing.assert_allclose(got, fd, atol=1e-6)


@PROPERTY
@given(circuits(), st.integers(0, 5))
def test_residuals_move_only_within_one_point(circuit, m):
    """Bumping f_m only moves residuals at m-1, m and m+1 (periodic)."""
    n = circuit[0].n_qubits
    f = outputs(z_signs(n), probabilities(run_circuit(*circuit)))
    m %= n
    bumped = f.copy()
    bumped[m] += 1e-3
    far = [k for k in range(n) if k not in {(m - 1) % n, m, (m + 1) % n}]
    disc = Discretization(n)
    for pde in DEFAULT_PDES:
        delta = pde_residual(bumped, pde, disc) - pde_residual(f, pde, disc)
        assert np.all(delta[far] == 0.0)
