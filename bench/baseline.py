"""Run every workload, print every metric with its unit, write baseline.json.

    python3 bench/baseline.py [--record-reference]

Run from the root of a checkout. For each workload this makes SEEDS untraced
runs of ``bench/run.py`` with seeds 0..SEEDS-1 and one traced run at seed 0,
each for BENCHMARK.json's run_seconds, exactly as the command in
BENCHMARK.json runs them. It prints, per workload, the median of every
end-to-end metric over the runs with its quartile spread
(Q3 - Q1 as a share of the median), the error rate with its counts, and the
traced run's per-layer table, then writes all of it with the host and
library metadata to ``bench/baseline.json``.

``--record-reference`` first rewrites the reference tables in
``bench/reference/`` from one call of each workload at the reference seed.
Do that only at a commit whose tables are known to be correct.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import unit_of
from workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
SEEDS = 10


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"baseline.py: {' '.join(cmd)} exited with {proc.returncode}")
    details = WORK_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(details.read_text(encoding="utf-8"))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def record_reference() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from plateaulab import cli

    for workload in WORKLOADS.values():
        target = checks.REFERENCE_DIR / workload.name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        if cli.main(workload.cli_argv(checks.REFERENCE_SEED, str(target / "table.csv"))) != 0:
            raise SystemExit(f"baseline.py: reference run of {workload.name} failed")


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, if it exposes one."""
    import numpy  # noqa: F401  loads the BLAS library

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return caches


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(seconds: float) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "argv": sys.argv,
        "seeds": list(range(SEEDS)),
        "traced_seed": 0,
        "run_seconds": seconds,
    }


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    seconds = contract["run_seconds"]
    if args.record_reference:
        record_reference()

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    report = {"metadata": metadata(seconds), "workloads": {}}
    lines = []
    for name, workload in WORKLOADS.items():
        runs = [run(name, seed, seconds, 0) for seed in range(SEEDS)]
        traced = run(name, 0, seconds, 1)
        e2e = {key: spread([r["metrics"][key] for r in runs]) for key in END_TO_END}
        raw = {key: spread([r[key] for r in runs]) for key in ("wall_s", "setup_raw_s")}
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        report["workloads"][name] = {
            "why": workload.why,
            "cli_argv": list(workload.argv),
            "end_to_end": e2e,
            **raw,
            "wall_s_tail": [r["wall_s_tail"] for r in runs],
            "process.cpu_s": [r["process.cpu_s"] for r in runs],
            "passes_per_run": [r["attempted"] for r in runs],
            "error_rate": {"value": failed / attempted, "failed": failed,
                           "attempted": attempted},
            "problems": sorted({p for r in [*runs, traced] for p in r["problems"]}),
            "per_layer": traced["layers"],
            "traced_passes": traced["attempted"],
        }
        lines.append(f"== {name}: {workload.why}")
        for key, s in [*e2e.items(), *raw.items()]:
            lines.append(f"{key:40s} {s['median']:12.6g} {END_TO_END.get(key, 's'):6s} "
                         f"spread {s['spread']:.3f}, bound {bounds.get(key, 'none')}")
        tails = [r["wall_s_tail"] for r in runs if r["wall_s_tail"]]
        if tails:
            lines.append(f"{'wall_s_tail':40s} {statistics.median(t['value'] for t in tails):12.6g} "
                         f"s      at p{min(t['percentile'] for t in tails):.0f}-"
                         f"p{max(t['percentile'] for t in tails):.0f}")
        lines.append(f"{'error_rate':40s} {failed / attempted:12.6g} ratio  "
                     f"({failed} failed / {attempted} attempted)")
        for key in sorted(traced["layers"]):
            lines.append(f"{key:40s} {traced['layers'][key]:12.6g} {unit_of(key)}")
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
