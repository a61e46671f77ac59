"""Host-speed references: a kernel timed between passes to normalize pass
times, and a reference launch timed before each set-up launch to normalize
set-up times.

On a shared host the speed of a core drifts by up to 2x over phases of tens
of seconds to minutes (see README.md), so the raw median pass time of one
run says as much about the neighbours as about the program. The kernel runs
both kinds of work the workloads' hot layers do: many small numpy calls
from a Python loop, like the per-gate dispatch of ``run_circuit`` at small
n, then batched complex arithmetic, like ``run_circuit_batch`` at n = 10.
The host's slow phases slow the two kinds by different factors, and which
one a workload follows changed from phase to phase; a kernel of only one
kind tracked some workloads well in one phase and badly in another, while
this mixed kernel kept every workload's spread low in every phase measured
(README.md). The kernel uses numpy only, never plateaulab, so a change to
the program cannot change it.

The kernel runs in the measuring process, so its memory counts in that
process's peak RSS. It holds 8 rows of 1024 amplitudes (about 0.4 MB with
temporaries), well below the 2 MB that one 121-row batch of
``variance_sweep`` holds at n = 10 and under 1 % of any workload's peak RSS.

The kernel runs once before the first pass and once after each pass, outside
the timed region, so every pass lies between two kernel runs. A pass that
takes ``w`` seconds between kernel runs of ``k0`` and ``k1`` seconds scales to
``w * REFERENCE_S / ((k0 + k1) / 2)``: its time on a host that runs the
kernel in the reference time. Scaling each pass by the kernel runs around
it follows speed phases shorter than a run, which one ratio of run medians
does not (README.md).

Set-up time does not follow the kernel: it is mostly process start and
imports. So each set-up launch is preceded by a reference launch, a fresh
interpreter that imports numpy and nothing of plateaulab, and a set-up time
of ``s`` seconds after a reference launch of ``r`` seconds scales to
``s * REFERENCE_LAUNCH_S / r``. The program's own imports and warm-up are
the part of ``s`` that ``r`` lacks, so a change to them moves the scaled
time as it moves the raw one on a steady host.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Typical kernel seconds on the host whose metadata baseline.json records;
# it fixes the scale of normalized times only.
REFERENCE_S = 0.020
# Typical reference launch seconds on that host; fixes the scale of
# normalized set-up times only.
REFERENCE_LAUNCH_S = 0.15
_LAUNCH = [sys.executable, "-c", "import time, numpy; print(time.monotonic())"]


def _dispatch() -> None:
    state = np.zeros(16, dtype=np.complex128)
    state[0] = 1.0
    for _ in range(600):
        view = state.reshape(2, 2, 4)
        rotated = 0.6 * view[:, 0, :] - 0.8 * view[:, 1, :]
        view[:, 1, :] = 0.8 * view[:, 0, :] + 0.6 * view[:, 1, :]
        view[:, 0, :] = rotated


def _array() -> None:
    amps = np.zeros((8, 1024), dtype=np.complex128)
    amps[:, 0] = 1.0
    for _ in range(24):
        for q in range(10):
            view = amps.reshape(8, 2 ** (9 - q), 2, 2**q)
            a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
            new0 = 0.6 * a0 - 0.8 * a1
            new1 = 0.8 * a0 + 0.6 * a1
            view[:, :, 0, :] = new0
            view[:, :, 1, :] = new1


def time_kernel() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _dispatch()
    _array()
    return time.perf_counter() - t0


def normalized_median(times: list[float], kernel_s: list[float]) -> float:
    """Median pass time scaled to the reference host speed.

    ``kernel_s[i]`` and ``kernel_s[i + 1]`` are the kernel runs just before and
    just after pass ``i``.
    """
    if len(kernel_s) != len(times) + 1:
        raise ValueError(f"{len(times)} passes need {len(times) + 1} kernel runs, "
                         f"got {len(kernel_s)}")
    return statistics.median(
        w * REFERENCE_S / ((k0 + k1) / 2) for w, k0, k1 in zip(times, kernel_s, kernel_s[1:])
    )


def time_launch() -> float:
    """Seconds a fresh interpreter takes now from launch until numpy is imported."""
    # CLOCK_MONOTONIC is one clock for every process on the host.
    launched = time.monotonic()
    proc = subprocess.run(_LAUNCH, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout) - launched


def normalized_setup(setup_s: list[float], launch_s: list[float]) -> float:
    """Median set-up time scaled to the reference launch speed.

    ``launch_s[i]`` is the reference launch made just before set-up ``i``.
    """
    if len(setup_s) != len(launch_s):
        raise ValueError(f"{len(setup_s)} set-up times need as many launches, "
                         f"got {len(launch_s)}")
    return statistics.median(s * REFERENCE_LAUNCH_S / r for s, r in zip(setup_s, launch_s))
