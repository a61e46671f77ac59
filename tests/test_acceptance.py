"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Property criteria are hard failures at the stated tolerances; the
trend criteria run the full protocol (K = 100 where noted) under fixed seeds.

Criteria 9 and 12 each contain one clause comparing gradient magnitudes of
the physics-informed losses against the unconstrained costs whose reference
magnitudes this implementation measurably does not reproduce (nor do the
documented alternatives tried); those clauses are asserted at their stated
tolerances and fail honestly, with the measured cause in each failure
message.
"""

import contextlib

import numpy as np
import pytest

from plateaulab import ansatz
from plateaulab.ansatz import CircuitSpec, Topology, circuit_gates, gate_count, run_circuit
from plateaulab.cli import main as cli_main
from plateaulab.gradients import (
    draw_params,
    finite_difference_gradient,
    gradient_variance,
    loss_gradient,
)
from plateaulab.losses import (
    Burgers,
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    SaintVenant,
    all_configs,
    pde_residual,
    total_loss,
)
from plateaulab.experiments import (
    ScalingModel,
    entanglement_sweep,
    fit_scaling,
    sweep_depth,
    sweep_pde,
    sweep_qubits,
    train,
)
from plateaulab.statevector import (
    apply_cnot,
    apply_ry,
    expect_z,
    init_zero,
    reduced_density_matrix,
    von_neumann_entropy,
)

TREND_SEED = 7
TREND_SAMPLES = 100


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL  #{number:2d}: {title}")
        raise
    print(f"ACCEPTANCE PASS  #{number:2d}: {title}")


def mean_variances(result):
    return {
        (row.n, row.layers, row.config_name, row.pde_name): row.mean_variance
        for row in result
    }


def test_criterion_01_gradient_oracle():
    with criterion(1, "parameter-shift gradients match finite differences"):
        for config in all_configs():
            for n in (2, 4):
                for layers in (1, 2):
                    spec = CircuitSpec(n, layers, config.required_topology())
                    disc = Discretization(n)
                    for draw in range(10):
                        params = draw_params(100 + draw, n, layers, draw)
                        got = loss_gradient(config, spec, params, disc)
                        fd = finite_difference_gradient(
                            lambda q: total_loss(config, spec, q, disc), params, 1e-5
                        )
                        np.testing.assert_allclose(got, fd, atol=1e-6)


def test_criterion_02_analytic_identity():
    with criterion(2, "<Z> after RY(theta) is cos(theta); shift rule gives -sin"):
        def z_after_ry(theta):
            return expect_z(apply_ry(init_zero(2), 0, theta), 0)

        for theta in np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False):
            assert abs(z_after_ry(theta) - np.cos(theta)) < 1e-12
            shift_grad = 0.5 * (
                z_after_ry(theta + np.pi / 2) - z_after_ry(theta - np.pi / 2)
            )
            assert abs(shift_grad + np.sin(theta)) < 1e-10


def test_criterion_03_norm_preserved_in_every_experiment():
    with criterion(3, "statevector norm within 1e-10 across all experiment grids"):
        # The circuit runners additionally guard every evaluation and raise
        # on drift, so the sweeps below would abort on any violation.
        grids = [(n, 3) for n in (4, 6, 8)]
        grids += [(6, L) for L in (1, 2, 3, 4, 5)]
        grids += [(4, 3), (8, 3)]
        grids += [(n, L) for n in (4, 6, 8) for L in (1, 3, 5)]
        for topology in (Topology.NEAREST_NEIGHBOR, Topology.ALL_TO_ALL):
            for n, layers in grids:
                spec = CircuitSpec(n, layers, topology)
                for k in range(5):
                    state = run_circuit(spec, draw_params(TREND_SEED, n, layers, k))
                    norm_sq = float(np.sum(np.abs(state) ** 2))
                    assert abs(norm_sq - 1.0) < 1e-10


def test_criterion_04_entropy_exactness():
    with criterion(4, "Bell entropy 1 bit, product states 0, Schmidt symmetry"):
        bell = apply_cnot(apply_ry(init_zero(2), 0, np.pi / 2), 0, 1)
        s_bell = von_neumann_entropy(reduced_density_matrix(bell, {0}))
        assert abs(s_bell - 1.0) < 1e-10

        rng = np.random.default_rng(TREND_SEED)
        for _ in range(5):
            state = init_zero(4)
            for q in range(4):  # local rotations only: stays a product state
                state = apply_ry(state, q, rng.uniform(0, 2 * np.pi))
            s = von_neumann_entropy(reduced_density_matrix(state, {0, 1}))
            assert abs(s) < 1e-10

        checked = 0
        for n in (4, 5, 6):
            for topology in (Topology.NEAREST_NEIGHBOR, Topology.ALL_TO_ALL):
                for layers in (1, 3):
                    spec = CircuitSpec(n, layers, topology)
                    for k in range(5):
                        state = run_circuit(spec, draw_params(11, n, layers, k))
                        keep = set(range(n // 2))
                        rest = set(range(n)) - keep
                        s_a = von_neumann_entropy(reduced_density_matrix(state, keep))
                        s_b = von_neumann_entropy(reduced_density_matrix(state, rest))
                        assert abs(s_a - s_b) < 1e-9
                        checked += 1
        assert checked >= 50


def test_criterion_05_gate_count_formulas():
    with criterion(5, "instrumented gate tally matches closed-form counts"):
        counts = {"n": 0}
        originals = (
            ansatz.sv._apply_ry_inplace,
            ansatz.sv._apply_rz_inplace,
            ansatz.sv._apply_cnot_inplace,
        )

        def counting(fn):
            def inner(*args):
                counts["n"] += 1
                return fn(*args)
            return inner

        ansatz.sv._apply_ry_inplace = counting(originals[0])
        ansatz.sv._apply_rz_inplace = counting(originals[1])
        ansatz.sv._apply_cnot_inplace = counting(originals[2])
        try:
            for n in (4, 6, 8):
                for layers in range(1, 6):
                    for topology in (Topology.NEAREST_NEIGHBOR, Topology.ALL_TO_ALL):
                        spec = CircuitSpec(n, layers, topology)
                        counts["n"] = 0
                        run_circuit(spec, draw_params(0, n, layers, 0))
                        expected = (
                            layers * (3 * n - 1)
                            if topology is Topology.NEAREST_NEIGHBOR
                            else layers * (n * (n - 1) // 2 + 2 * n)
                        )
                        assert counts["n"] == expected == gate_count(spec)
                        assert sum(1 for _ in circuit_gates(spec)) == expected
        finally:
            (
                ansatz.sv._apply_ry_inplace,
                ansatz.sv._apply_rz_inplace,
                ansatz.sv._apply_cnot_inplace,
            ) = originals


def test_criterion_06_stencil_locality():
    with criterion(6, "residuals respond only within the +-1 stencil neighborhood"):
        rng = np.random.default_rng(TREND_SEED)
        for n in (5, 6, 8):
            disc = Discretization(n)
            profile = rng.uniform(-0.9, 0.9, n)
            for pde in (Heat(), Burgers(), SaintVenant()):
                base = pde_residual(profile, pde, disc)
                for m in range(n):
                    bumped = profile.copy()
                    bumped[m] += 1e-3
                    delta = pde_residual(bumped, pde, disc) - base
                    allowed = {(m - 1) % n, m, (m + 1) % n}
                    for k in range(n):
                        if k not in allowed:
                            assert delta[k] == 0.0


def test_criterion_07_deterministic_csv(tmp_path):
    with criterion(7, "identical seeds produce byte-identical CSV output"):
        for args in (
            ["sweep-qubits", "--qubits", "4", "6", "--layers", "2",
             "--samples", "5", "--seed", "13"],
            ["entanglement", "--qubits", "4", "--layers", "1", "3",
             "--samples", "5", "--seed", "13"],
            ["converge", "--epochs", "5", "--seed", "13"],
        ):
            first = tmp_path / f"{args[0]}_a.csv"
            second = tmp_path / f"{args[0]}_b.csv"
            assert cli_main(args + ["--out", str(first)]) == 0
            assert cli_main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()


def test_criterion_08_qubit_scaling_trends():
    with criterion(8, "qubit-sweep trends: global decreasing, local/pde ratios"):
        result = sweep_qubits(
            ns=(4, 6, 8), layers=3, n_samples=TREND_SAMPLES, seed=TREND_SEED
        )
        mv = mean_variances(result)
        glo = [mv[(n, 3, "global_cost", None)] for n in (4, 6, 8)]
        assert glo[0] > glo[1] > glo[2], f"global not strictly decreasing: {glo}"
        local_ratio = mv[(4, 3, "local_cost", None)] / mv[(8, 3, "local_cost", None)]
        assert 2.0 <= local_ratio <= 5.5, f"local var(4)/var(8) = {local_ratio:.2f}"
        pde_ratio = (
            mv[(6, 3, "pde_constrained", None)] / mv[(8, 3, "pde_constrained", None)]
        )
        assert 0.75 <= pde_ratio <= 1.35, f"pde var(6)/var(8) = {pde_ratio:.2f}"


def test_criterion_09_depth_scaling_trends():
    with criterion(9, "depth-sweep trends: global decreasing, pde decays slower"):
        result = sweep_depth(
            depths=(1, 2, 3, 4, 5), n=6, n_samples=TREND_SAMPLES, seed=TREND_SEED
        )
        mv = mean_variances(result)
        glo = [mv[(6, L, "global_cost", None)] for L in (1, 2, 3, 4, 5)]
        assert all(a > b for a, b in zip(glo, glo[1:])), (
            f"global not strictly decreasing: {glo}"
        )
        pde = [mv[(6, L, "pde_structured", None)] for L in (1, 2, 3, 4, 5)]
        global_decay = glo[0] / glo[4]
        pde_decay = pde[0] / pde[4]
        assert pde_decay < global_decay, (
            f"pde_structured var(1)/var(5) = {pde_decay:.2f} is not below the "
            f"global cost's {global_decay:.2f}: shallow circuits are near "
            "product states with O(1) output Jacobians, so every output-based "
            "loss starts high at L=1 and decays faster with depth than the "
            "parity cost"
        )


def test_criterion_10_pde_ordering():
    with criterion(10, "PDE ordering saint_venant >= burgers >= heat over seeds"):
        violations = []
        for seed in (7, 19, 31):
            result = sweep_pde(n=6, layers=3, n_samples=TREND_SAMPLES, seed=seed)
            values = {row.pde_name: row.mean_variance for row in result}
            ordered = (
                values["saint_venant"] >= values["burgers"] >= values["heat"]
            )
            if not ordered:
                violations.append((seed, values))
        if len(violations) == 1:
            seed, values = violations[0]
            print(
                f"ACCEPTANCE REVIEW #10: single-seed ordering violation at "
                f"seed {seed}: {values} (allowed; closure is a design decision)"
            )
        assert len(violations) <= 1, f"ordering violated under seeds: {violations}"


def test_criterion_11_entanglement_table():
    with criterion(11, "entropy ratios in (0,1), match reference half-cut values"):
        result = entanglement_sweep(
            ns=(4, 6, 8), depths=(1, 3, 5), n_samples=20, seed=TREND_SEED
        )
        ratios = {
            (row.n, row.layers, row.topology): row.ratio_to_max for row in result
        }
        assert all(0.0 < r < 1.0 for r in ratios.values())
        assert abs(ratios[(8, 3, "nearest_neighbor")] - 0.50) <= 0.1
        assert abs(ratios[(8, 3, "all_to_all")] - 0.40) <= 0.1
        for n in (4, 6, 8):
            for topology in ("nearest_neighbor", "all_to_all"):
                seq = [ratios[(n, L, topology)] for L in (1, 3, 5)]
                assert seq[1] >= seq[0] - 0.05 and seq[2] >= seq[1] - 0.05, (
                    f"entropy not non-decreasing within slack: {n=} {topology} {seq}"
                )


def test_criterion_12_training_convergence():
    with criterion(12, "training: descent, live gradients, pde norms largest"):
        wins = 0
        for seed in (1, 2, 3):
            norms = {}
            traces = train(all_configs(), n=4, layers=3, epochs=50,
                           learning_rate=0.01, seed=seed)
            for config, trace in zip(all_configs(), traces):
                assert len(trace.losses) == 51
                assert np.isfinite(trace.final_loss)
                assert trace.final_loss <= trace.losses[0], (
                    f"{config.name} seed {seed}: loss rose"
                )
                assert trace.final_grad_norm > 0.02, (
                    f"{config.name} seed {seed}: final |grad| = "
                    f"{trace.final_grad_norm:.4f}"
                )
                norms[config.name] = trace.final_grad_norm
            pde_low = min(norms["pde_constrained"], norms["pde_structured"])
            unconstrained_high = max(norms["global_cost"], norms["local_cost"])
            if pde_low > unconstrained_high:
                wins += 1
        assert wins >= 2, (
            f"pde final gradient norms exceeded the unconstrained costs' in only "
            f"{wins}/3 seeds: plain gradient descent at this learning rate "
            "leaves the unconstrained costs mid-descent at epoch 50, with "
            "larger gradient norms than the physics-informed composites"
        )


def test_criterion_13_scaling_fit_recovery():
    with criterion(13, "scaling fits recover synthetic exponents exactly"):
        exp_points = [(n, 2.0 ** (-0.39 * n)) for n in (4, 6, 8)]
        fit = fit_scaling(exp_points, ScalingModel.EXP_IN_QUBITS)
        assert abs(fit.exponent - 0.39) < 1e-9

        power_points = [(n, float(n) ** -1.8) for n in (4, 6, 8)]
        fit = fit_scaling(power_points, ScalingModel.POWER_IN_QUBITS)
        assert abs(fit.exponent - 1.8) < 1e-9
