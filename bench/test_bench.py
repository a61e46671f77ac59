"""Tests of the benchmark itself: run with ``python -m pytest bench -q``.

They check that the traced counts repeat exactly, that the output checks
catch broken tables and gradients, that BENCHMARK.json matches the
metric table, and that the launcher refuses to run without the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from plateaulab import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _is_count(key: str) -> bool:
    return key.endswith((".calls", ".rows")) or key in (
        "ansatz.gate_applications", "ansatz.amp_updates",
        "ansatz.bytes_computed", "gradients.rows_per_gradient")


def _traced_counts(workload, out: Path) -> dict:
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workload.cli_argv(3, str(out))) == 0
        metrics, _ = tracer.take_pass(0.0)
    return {key: value for key, value in metrics.items() if _is_count(key)}


@pytest.fixture
def work_dir():
    path = ROOT / ".bench_work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, work_dir):
    workload = WORKLOADS[name]
    first = _traced_counts(workload, work_dir / "table.csv")
    second = _traced_counts(workload, work_dir / "table.csv")
    assert first == second
    assert first["ansatz.gate_applications"] > 0
    assert first["cli.run_experiment.calls"] == 1


def test_counts_repeat_across_runs():
    def run():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "entanglement",
             "--seed", "5", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)
        return {k: v["value"] for k, v in result["metrics"].items() if _is_count(k)}

    assert run() == run()


def test_check_table_flags_non_finite_and_wrong_shape():
    good = b"experiment,n,loss,seed\nconverge,4,0.5,7\n"
    assert checks.check_table({"table.csv": good}, 1, 7) == []
    assert checks.check_table({"table.csv": good.replace(b"0.5", b"nan")}, 1, 7)
    assert checks.check_table({"table.csv": good}, 2, 7)
    assert checks.check_table({"table.csv": good}, 1, 8)
    assert checks.check_table({"table.csv": good.replace(b",7\n", b"\n")}, 1, 7)
    assert checks.check_table({}, 1, 7)


def test_compare_reference_flags_changed_value():
    ref_dir = checks.REFERENCE_DIR / "training"
    files = {p.name: p.read_bytes() for p in ref_dir.glob("*.csv")}
    assert checks.compare_reference(files, ref_dir) == []
    header, first, *rest = files["table.csv"].decode().splitlines(keepends=True)
    fields = first.split(",")
    loss = float(fields[5])
    fields[5] = f"{loss * (1 + 10 * checks.REFERENCE_RTOL):.9g}"
    changed = "".join([header, ",".join(fields), *rest]).encode()
    assert checks.compare_reference({**files, "table.csv": changed}, ref_dir)
    truncated = "".join([header, ",".join(first.split(",")[:-1]) + "\n", *rest]).encode()
    assert checks.compare_reference({**files, "table.csv": truncated}, ref_dir)


def test_gradient_check_flags_wrong_gradient(monkeypatch):
    rng = np.random.default_rng(0)
    assert checks.check_gradients(rng, ((4, 1),)) == []
    monkeypatch.setattr(checks, "loss_gradient",
                        lambda config, spec, params, disc: np.zeros(spec.param_count))
    assert checks.check_gradients(rng, ((4, 1),))


def test_schmidt_check_passes_on_program():
    assert checks.check_schmidt(np.random.default_rng(0), ((4, 1), (5, 2))) == []


def test_contract_lists_the_measured_metrics():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_launcher_fails_without_program(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(HERE, work_dir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "training", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
