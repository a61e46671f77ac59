"""One fresh benchmark process: set-up, then a closed loop of CLI passes.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1
                            [--setup-only]

Imports plateaulab from the checkout's ``src/`` and makes one small warm-up
call; the CLOCK_MONOTONIC reading at that point is reported as ``ready`` so
the launcher can compute set-up time from its own launch stamp. With
``--setup-only`` the process stops there. Otherwise it calls
``plateaulab.cli.main(argv)`` in process, one pass after another, for
``--seconds`` seconds. With ``--trace 1`` the first half of the time is
untraced and the second half traced. Output checks run between passes and
after the loop, outside the timed region. The last line on stdout is one
JSON object for the launcher.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"


def _import_cli():
    package = SRC / "plateaulab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"worker: plateaulab source not found at {package}")
    sys.path.insert(0, str(SRC))
    from plateaulab import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"worker: imported plateaulab from {cli.__file__}, not {package}")
    return cli


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_pass(cli, argv: list[str]) -> tuple[float, float, str | None]:
    """One timed CLI call: (wall seconds, CPU seconds, error or None)."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
        error = None if code == 0 else f"exit status {code}"
    except SystemExit as exc:
        error = f"exit status {exc.code}"
    except Exception as exc:  # a failed pass is counted, the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - cpu0, error


def _read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class Loop:
    """Closed loop of passes with one caller; keeps what checks need."""

    def __init__(self, cli, argv: list[str], out_dir: Path) -> None:
        self.cli, self.argv, self.out_dir = cli, argv, out_dir
        self.walls: list[float] = []
        # Host-speed kernel times: one before each run() and one after each pass.
        self.kernel_s: list[float] = []
        self.cpus: list[float] = []
        self.first: dict[str, bytes] | None = None
        self.failed_local = 0
        self.errors: list[str] = []

    def run(self, seconds: float, after_pass=None) -> list[float]:
        walls = []
        self.kernel_s.append(hostspeed.time_kernel())
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            for path in self.out_dir.iterdir():
                path.unlink()
            wall, cpu, error = _run_pass(self.cli, self.argv)
            if after_pass is not None:
                after_pass(wall)
            files = _read_outputs(self.out_dir)
            if self.first is None:
                self.first = files
            if error is not None or files != self.first:
                self.failed_local += 1
                if len(self.errors) < 5:
                    self.errors.append(error or "table bytes differ from the first pass")
            walls.append(wall)
            self.cpus.append(cpu)
            self.kernel_s.append(hostspeed.time_kernel())
        self.walls.extend(walls)
        return walls


def _layer_medians(per_pass: list[dict]) -> dict:
    # median_low picks a measured value, so counts stay whole numbers.
    return {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}


def _write_spans(path: Path, passes: list[list[list]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for index, spans in enumerate(passes):
            for name, start, end, parent, _ in spans:
                fh.write(json.dumps([index, name, start, end, parent]) + "\n")


def measure(cli, workload, args, run_dir: Path) -> dict:
    # Imported after the ready stamp, so set-up time covers only the program.
    import numpy as np

    import checks
    from tracer import Tracer

    out_dir = run_dir / "out"
    out_dir.mkdir()
    loop = Loop(cli, workload.cli_argv(args.seed, str(out_dir / "table.csv")), out_dir)
    result: dict = {}
    if not args.trace:
        loop.run(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        untraced = loop.run(args.seconds / 2)
        per_pass, pass_spans = [], []

        def take(wall: float) -> None:
            metrics, spans = tracer.take_pass(wall)
            metrics["trace.wall_s"] = wall
            per_pass.append(metrics)
            pass_spans.append(spans)

        with Tracer() as tracer:
            loop.run(args.seconds / 2, after_pass=take)
        layers = _layer_medians(per_pass)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(untraced)
        layers["process.cpu_s"] = statistics.median(loop.cpus[: len(untraced)])
        layers["cli.bytes_written"] = sum(map(len, (loop.first or {}).values()))
        result["layers"] = layers
        spans_path = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        _write_spans(spans_path, pass_spans)
        result["spans_file"] = str(spans_path.relative_to(ROOT))

    rng = np.random.default_rng(args.seed)
    problems = list(loop.errors)
    first_bad = checks.check_table(loop.first or {}, workload.table_rows, args.seed)
    if args.seed == checks.REFERENCE_SEED:
        first_bad += checks.compare_reference(
            loop.first or {}, checks.REFERENCE_DIR / workload.name
        )
    run_bad = checks.check_gradients(rng, workload.check_shapes)
    run_bad += checks.check_schmidt(rng, workload.check_shapes)
    problems += first_bad + run_bad
    attempted = len(loop.walls)
    result.update(
        walls=loop.walls,
        cpus=loop.cpus,
        kernel_s=loop.kernel_s,
        attempted=attempted,
        failed=attempted if first_bad or run_bad else loop.failed_local,
        problems=problems,
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    cli = _import_cli()
    run_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "warmup").mkdir(parents=True)
    try:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            warm_argv = workload.cli_argv(args.seed, str(run_dir / "warmup" / "table.csv"), warmup=True)
            if cli.main(warm_argv) != 0:
                raise SystemExit(f"worker: warm-up call failed: {warm_argv}")
            result = {"ready": time.monotonic()}
            if not args.setup_only:
                result.update(measure(cli, workload, args, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
