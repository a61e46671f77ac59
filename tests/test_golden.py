"""Byte-for-byte regression guard on small CLI runs.

Each case runs one cheap ``plateaulab`` invocation and compares every file
it writes with the copy under ``tests/golden/``. A change that is meant to
alter output regenerates the copies by running the same argv with
``--out tests/golden/<name>`` and says in its change log why the bytes moved.
``CASES`` is the one list of golden runs; CI reruns this module with every
AVX-512 dispatch target switched off. ``all_seed0/`` holds the eight tables
of ``--all --seed 0``, every experiment at its default settings; CI also
writes them with the installed script, seeded through ``$PLATEAULAB_SEED``,
and compares the directory with ``diff -r``. ``all_seed0_json/`` holds the
six tables of ``--all --seed 0 --format json``, whose ``config`` blocks
record each run's resolved fields.
"""

from __future__ import annotations

import contextlib
import io
import re
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
    # The three argvs of bench/workloads.py at --seed 0, which the benchmark
    # itself checks only within a tolerance.
    ("bench_variance_sweep.csv",
     ["sweep-qubits", "--qubits", "4", "6", "8", "10", "--layers", "3",
      "--samples", "2", "--seed", "0"],
     ["bench_variance_sweep_fits.csv", "bench_variance_sweep_reference.csv"]),
    ("bench_training.csv",
     ["converge", "--qubits", "4", "--layers", "3", "--epochs", "100",
      "--seed", "0"], []),
    ("bench_entanglement.csv",
     ["entanglement", "--qubits", "4", "6", "8", "10", "12", "--layers", "1", "3",
      "5", "--samples", "5", "--seed", "0"], []),
    # Cells whose draws run in several blocks: all-to-all variance blocks of
    # 2/2/2/2/1 draws at L = 1 and 4/4/1 at L = 2; entropy blocks of 8/2.
    ("sweep_depth_blocks.csv",
     ["sweep-depth", "--qubits", "4", "--layers", "1", "2", "--samples", "9"], []),
    ("entanglement_blocks.csv",
     ["entanglement", "--qubits", "4", "--layers", "1", "--samples", "10"], []),
    # Training's one block of both topologies: odd n, two layers and a seed
    # other than 0.
    ("converge_n5_l2_seed3.csv",
     ["converge", "--qubits", "5", "--layers", "2", "--epochs", "100", "--seed", "3"], []),
    # The largest register, where no other test reaches the adjoint gradient
    # path with several draw blocks per topology: 40 draws at n = 12, L = 1
    # run the all-to-all configs in 7 blocks, and the PDE sweep runs Heat,
    # Burgers and SaintVenant there on whole blocks of rows. No other test
    # trains at the largest register (at L = 2 the forward gathers rows
    # between rotation layers) or takes entropies there: 40 draws at
    # n = 12, L = 1 run in two blocks.
    ("sweep_max.csv",
     ["sweep-qubits", "--qubits", "11", "12", "--layers", "1", "--samples", "40"],
     ["sweep_max_fits.csv", "sweep_max_reference.csv"]),
    ("sweep_pde_max.csv",
     ["sweep-pde", "--qubits", "12", "--layers", "1", "--samples", "40"], []),
    ("converge_max.csv", ["converge", "--qubits", "12", "--layers", "1", "--epochs", "2"], []),
    ("converge_n12_l2.csv",
     ["converge", "--qubits", "12", "--layers", "2", "--epochs", "2"], []),
    ("entanglement_max.csv",
     ["entanglement", "--qubits", "11", "12", "--layers", "1", "5", "--samples", "40"], []),
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


# The tables of ``--all``: K = 25 variance draws in several blocks per cell,
# K = 20 entropy draws and 50 training epochs.
ALL_TABLES = [
    "converge.csv", "entanglement.csv", "per_param.csv", "sweep_depth.csv",
    "sweep_pde.csv", "sweep_qubits.csv", "sweep_qubits_fits.csv",
    "sweep_qubits_reference.csv",
]


ALL_JSON_TABLES = [
    "converge.json", "entanglement.json", "per_param.json", "sweep_depth.json",
    "sweep_pde.json", "sweep_qubits.json",
]


def test_all_default_settings_match_golden(tmp_path):
    for fmt, golden, tables in (("csv", "all_seed0", ALL_TABLES),
                                ("json", "all_seed0_json", ALL_JSON_TABLES)):
        out = tmp_path / golden
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--all", "--seed", "0", "--format", fmt, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == tables
        for file_name in tables:
            got = (out / file_name).read_bytes()
            assert got == (GOLDEN / golden / file_name).read_bytes(), file_name


def test_runs_without_out_write_default_names(tmp_path, monkeypatch, capsys):
    # A subcommand writes <name with - as _>.<format> into the working directory.
    for argv, written in (
        (["sweep-qubits", "--qubits", "4", "6", "--layers", "1", "--samples", "2"],
         ["sweep_qubits.csv", "sweep_qubits_fits.csv", "sweep_qubits_reference.csv"]),
        (["sweep-pde", "--qubits", "4", "--layers", "1", "--samples", "2",
          "--format", "json"], ["sweep_pde.json"]),
    ):
        cwd = tmp_path / argv[0]
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(argv) == 0
        assert sorted(p.name for p in cwd.iterdir()) == written
        assert capsys.readouterr().out.split() == [w for f in written for w in ("wrote", f)]
    # --all writes into one new plateaulab-YYYYmmdd-HHMMSS directory there.
    cwd = tmp_path / "all"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["--all", "--seed", "0"]) == 0
    [out] = cwd.iterdir()
    assert re.fullmatch(r"plateaulab-\d{8}-\d{6}", out.name)
    assert sorted(p.name for p in out.iterdir()) == ALL_TABLES
    for file_name in ALL_TABLES:
        assert (out / file_name).read_bytes() == (GOLDEN / "all_seed0" / file_name).read_bytes()
