"""plateaulab benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. Each run starts fresh worker processes
(``bench/worker.py``) with the interpreter running this script; the program
is imported from the checkout's ``src/``. With ``--trace 0`` it first
launches SETUP_PROBES processes that only set up, then one that also
measures, each after a reference launch, and reports end-to-end metrics:
the median pass time scaled to the reference host speed, the median set-up
time scaled to the reference launch speed (see hostspeed.py), and the
measuring process's peak RSS. With ``--trace 1`` one
process measures untraced and then traced passes and reports per-layer
metrics. Human-readable lines come first; the last line on stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything measured, including the spans' per-layer table and the pass
times, is also written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
# Set-up launches per run besides the measuring one; setup_s is their median.
SETUP_PROBES = 14
# Seconds a worker may take beyond the measured time (set-up and checks).
WORKER_SLACK_S = 90


def spawn_worker(args, setup_only: bool) -> tuple[dict, float]:
    """Run one worker; returns its result and its set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # CLOCK_MONOTONIC is one clock for every process on the host, so the
    # worker's ready stamp can be compared with this launch stamp.
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_SLACK_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py: worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - launched


def unit_of(key: str) -> str:
    return PER_LAYER.get(key) or ("s" if key.endswith("_s") else "count")


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(walls)
    if len(ordered) <= 10:
        return None
    index = len(ordered) - 11
    return {"percentile": 100.0 * (index + 1) / len(ordered), "value": ordered[index]}


def end_to_end(args) -> tuple[dict, dict]:
    # Every set-up launch, the measuring one last, follows a reference launch.
    setup, launch = [], []
    for probe in range(SETUP_PROBES + 1):
        launch.append(hostspeed.time_launch())
        result, seconds = spawn_worker(args, setup_only=probe < SETUP_PROBES)
        setup.append(seconds)
    walls = result["walls"]
    metrics = {
        "wall_norm_s": hostspeed.normalized_median(walls, result["kernel_s"]),
        "setup_s": hostspeed.normalized_setup(setup, launch),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail(walls),
        "kernel_s": result["kernel_s"],
        "setup_raw_s": statistics.median(setup),
        "setup_s_samples": setup,
        "launch_s": launch,
        "process.cpu_s": statistics.median(result["cpus"]),
        "error_rate": result["failed"] / result["attempted"],
    }
    t = details["wall_s_tail"]
    tail_text = (f"p{t['percentile']:.1f} {t['value']:.4f} s" if t
                 else "n/a (10 or fewer passes)")
    print(f"wall_s       median {details['wall_s']:.4f} s, {tail_text}, "
          f"{len(walls)} passes")
    print(f"wall_norm_s  median {metrics['wall_norm_s']:.4f} s at reference host speed "
          f"(kernel median {statistics.median(result['kernel_s']):.5f} s, "
          f"reference {hostspeed.REFERENCE_S} s)")
    print(f"setup_s      median {metrics['setup_s']:.4f} s of {len(setup)} launches at "
          f"reference launch speed (raw median {details['setup_raw_s']:.4f} s, reference "
          f"launch median {statistics.median(launch):.4f} s, "
          f"reference {hostspeed.REFERENCE_LAUNCH_S} s)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"process.cpu_s median {details['process.cpu_s']:.4f} s per pass")
    return result, {"metrics": metrics, **details}


def traced(args) -> tuple[dict, dict]:
    result, _ = spawn_worker(args, setup_only=False)
    layers = result["layers"]
    wall = layers["trace.wall_s"]
    print(f"{'layer':44s} {'calls':>8s} {'self_s':>10s} {'share':>7s}")
    spans = sorted((key[: -len(".calls")] for key in layers if key.endswith(".calls")
                    and key[: -len(".calls")] + ".self_s" in layers),
                   key=lambda name: -layers[name + ".self_s"])
    for name in spans:
        self_s = layers[name + ".self_s"]
        print(f"{name:44s} {layers[name + '.calls']:8d} {self_s:10.5f} "
              f"{100 * self_s / wall:6.1f}%")
    span_keys = {f"{name}.{kind}" for name in spans for kind in ("calls", "self_s")}
    for key in sorted(set(layers) - span_keys):
        print(f"{key:44s} {layers[key]:.6g} {unit_of(key)}")
    metrics = {key: layers[key] for key in PER_LAYER}
    return result, {"metrics": metrics, "layers": layers, "spans_file": result["spans_file"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="plateaulab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"trace {args.trace}  (closed loop, one caller)")
    result, report = traced(args) if args.trace else end_to_end(args)
    failed, attempted = result["failed"], result["attempted"]
    print(f"error_rate   {failed / attempted:.4g} ({failed} failed / {attempted} attempted)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    WORK_DIR.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "walls": result["walls"], "attempted": attempted,
        "failed": failed, "problems": result["problems"], **report,
    }
    (WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not result["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
