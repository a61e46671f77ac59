"""Output checks of the plateaulab benchmark, run outside the timed region.

Every function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from plateaulab.ansatz import CircuitSpec, Topology, run_circuit
from plateaulab.gradients import finite_difference_gradient, loss_gradient
from plateaulab.losses import Discretization, all_configs, total_loss
from plateaulab.statevector import reduced_density_matrix, von_neumann_entropy

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Reference tables were recorded at the CLI's default seed.
REFERENCE_SEED = 0
# Tables carry 9 significant digits; a value may move by this share of its
# magnitude (plus REFERENCE_ATOL near zero) from the recorded reference.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
# Acceptance criterion 1: central differences with h = 1e-5 agree with the
# exact gradient to an absolute 1e-6.
FD_STEP = 1e-5
FD_ATOL = 1e-6
SCHMIDT_ATOL = 1e-9


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def check_table(files: dict[str, bytes], table_rows: int, seed: int) -> list[str]:
    """Structure and finiteness of every written table."""
    problems = []
    if "table.csv" not in files:
        return ["table.csv was not written"]
    for name, data in sorted(files.items()):
        header, *body = _rows(data) or [[]]
        for row in body:
            if len(row) != len(header):
                problems.append(f"{name}: row {row} has {len(row)} fields, header {len(header)}")
                break
            if any(v is not None and not math.isfinite(v) for v in map(_number, row)):
                problems.append(f"{name}: non-finite value in row {row}")
                break
    header, *body = _rows(files["table.csv"])
    if len(body) != table_rows:
        problems.append(f"table.csv has {len(body)} rows, expected {table_rows}")
    if "seed" in header:
        col = header.index("seed")
        if any(row[col:col + 1] != [str(seed)] for row in body):
            problems.append(f"table.csv seed column is not {seed}")
    return problems


def compare_reference(files: dict[str, bytes], reference_dir: Path) -> list[str]:
    """Values within REFERENCE_RTOL of the tables recorded at REFERENCE_SEED."""
    problems = []
    expected = {p.name: p.read_bytes() for p in reference_dir.glob("*.csv")}
    if set(expected) != set(files):
        return [f"written files {sorted(files)} differ from reference {sorted(expected)}"]
    for name in sorted(expected):
        got, ref = _rows(files[name]), _rows(expected[name])
        if len(got) != len(ref) or got[:1] != ref[:1]:
            problems.append(f"{name}: shape or header differs from reference")
            continue
        for got_row, ref_row in zip(got[1:], ref[1:]):
            if len(got_row) != len(ref_row):
                problems.append(f"{name}: row {got_row} has {len(got_row)} fields, "
                                f"reference {len(ref_row)}")
                continue
            for a, b in zip(got_row, ref_row):
                x, y = _number(a), _number(b)
                if x is None or y is None:
                    ok = a == b
                else:
                    ok = abs(x - y) <= REFERENCE_RTOL * max(abs(x), abs(y)) + REFERENCE_ATOL
                if not ok:
                    problems.append(f"{name}: {a} differs from reference {b}")
    return problems


def check_gradients(rng: np.random.Generator, shapes) -> list[str]:
    """loss_gradient against central differences of total_loss."""
    problems = []
    for n, layers in shapes:
        disc = Discretization(n)
        for config in all_configs():
            spec = CircuitSpec(n, layers, config.required_topology())
            params = rng.uniform(0.0, 2.0 * np.pi, spec.param_count)
            got = loss_gradient(config, spec, params, disc)
            fd = finite_difference_gradient(
                lambda q: total_loss(config, spec, q, disc), params, FD_STEP
            )
            err = float(np.max(np.abs(got - fd)))
            if not err <= FD_ATOL:
                problems.append(
                    f"loss_gradient {config.name} n={n} L={layers}: "
                    f"max |grad - fd| = {err:.3g} > {FD_ATOL}"
                )
    return problems


def check_schmidt(rng: np.random.Generator, shapes) -> list[str]:
    """Half-cut entropy equals that of the complement and stays in range."""
    problems = []
    for n, layers in shapes:
        for topology in Topology:
            spec = CircuitSpec(n, layers, topology)
            state = run_circuit(spec, rng.uniform(0.0, 2.0 * np.pi, spec.param_count))
            half = n // 2
            s_a = von_neumann_entropy(reduced_density_matrix(state, range(half)))
            s_b = von_neumann_entropy(reduced_density_matrix(state, range(half, n)))
            if not (abs(s_a - s_b) <= SCHMIDT_ATOL and -SCHMIDT_ATOL <= s_a <= half + SCHMIDT_ATOL):
                problems.append(
                    f"entropy {topology.value} n={n} L={layers}: "
                    f"S(A)={s_a!r} S(B)={s_b!r}"
                )
    return problems
