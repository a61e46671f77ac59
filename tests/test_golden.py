"""Byte-for-byte regression guard on small CLI runs.

Each case runs one cheap ``plateaulab`` invocation and compares every file
it writes with the copy under ``tests/golden/``. A change that is meant to
alter output regenerates the copies by running the same argv with
``--out tests/golden/<name>`` and says in its change log why the bytes moved.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from plateaulab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (output file name, argv, companion file names written next to it)
CASES = [
    ("sweep_qubits.csv",
     ["sweep-qubits", "--qubits", "4", "6", "--layers", "2", "--samples", "3"],
     ["sweep_qubits_fits.csv", "sweep_qubits_reference.csv"]),
    ("sweep_qubits.json",
     ["sweep-qubits", "--qubits", "4", "6", "--layers", "2", "--samples", "3",
      "--format", "json"], []),
    ("sweep_depth.csv",
     ["sweep-depth", "--qubits", "4", "--layers", "1", "2", "--samples", "3",
      "--seed", "3"], []),
    ("sweep_pde.csv",
     ["sweep-pde", "--qubits", "4", "--layers", "2", "--samples", "3"], []),
    ("entanglement.csv",
     ["entanglement", "--qubits", "4", "6", "--layers", "1", "3", "--samples", "2",
      "--seed", "3"], []),
    ("converge.csv", ["converge", "--epochs", "5"], []),
    ("per_param.csv",
     ["per-param", "--qubits", "4", "--layers", "2", "--samples", "3"], []),
    # The JSON config blocks pin the defaults filled in for flags a
    # subcommand does not take (converge: samples; entanglement:
    # physics_weight).
    ("converge.json", ["converge", "--epochs", "5", "--format", "json"], []),
    ("entanglement.json",
     ["entanglement", "--qubits", "4", "6", "--layers", "1", "3", "--samples", "2",
      "--seed", "3", "--format", "json"], []),
    ("sweep_pde.json",
     ["sweep-pde", "--qubits", "4", "--layers", "2", "--samples", "3",
      "--physics-weight", "0.3", "--format", "json"], []),
    ("sweep_depth.json",
     ["sweep-depth", "--qubits", "4", "--layers", "1", "2", "--samples", "3",
      "--seed", "3", "--format", "json"], []),
    ("per_param.json",
     ["per-param", "--qubits", "4", "--layers", "2", "--samples", "3",
      "--format", "json"], []),
]


@pytest.mark.parametrize("name,argv,companions", CASES, ids=[c[0] for c in CASES])
def test_output_bytes_match_golden(name, argv, companions, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted([name, *companions])
    for file_name in written:
        got = (tmp_path / file_name).read_bytes()
        assert got == (GOLDEN / file_name).read_bytes(), file_name
