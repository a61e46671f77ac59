"""Workload table and metric names of the plateaulab benchmark.

Pure data: importing this module does not import plateaulab, so the
launcher can validate its arguments before any program code is found.

Each workload is one ``plateaulab`` CLI invocation, run in a closed loop by
a single caller: a pass starts when the previous one has returned. The
workload seed is passed to the CLI as ``--seed``; the benchmark's own
correctness samples are drawn from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    # Small call on the same code path, run once during set-up so lazy
    # caches (sign tables, numpy.linalg) are filled before timing starts.
    warmup_argv: tuple[str, ...]
    # Rows the main table must have.
    table_rows: int
    # (n_qubits, layers) shapes for the finite-difference and Schmidt checks.
    check_shapes: tuple[tuple[int, int], ...]

    def cli_argv(self, seed: int, out_path: str, warmup: bool = False) -> list[str]:
        base = self.warmup_argv if warmup else self.argv
        return [*base, "--seed", str(seed), "--out", out_path]


TRAINING_EPOCHS = 100

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="variance_sweep",
            why="Batched parameter-shift sweep up to n=10 (121 rows x 1024 "
                "amplitudes), where amplitude arithmetic in "
                "run_circuit_batch dominates.",
            argv=("sweep-qubits", "--qubits", "4", "6", "8", "10",
                  "--layers", "3", "--samples", "2"),
            warmup_argv=("sweep-qubits", "--qubits", "4", "--layers", "3",
                         "--samples", "2"),
            table_rows=4 * 4,
            check_shapes=((4, 3), (6, 3), (8, 3)),
        ),
        Workload(
            name="training",
            why="Sequential descent steps at n=4, bound by per-gate Python "
                "dispatch and the total_loss forward rerun, so a change "
                "that only helps large n shows here.",
            argv=("converge", "--qubits", "4", "--layers", "3",
                  "--epochs", str(TRAINING_EPOCHS)),
            warmup_argv=("converge", "--qubits", "4", "--layers", "3",
                         "--epochs", "1"),
            table_rows=4 * (TRAINING_EPOCHS + 1),
            check_shapes=((4, 3),),
        ),
        Workload(
            name="entanglement",
            why="Forward-only single-state simulation up to n=12 plus "
                "partial trace and eigvalsh; never computes a gradient, so "
                "a gradient-only change should not move it.",
            argv=("entanglement", "--qubits", "4", "6", "8", "10", "12",
                  "--layers", "1", "3", "5", "--samples", "5"),
            warmup_argv=("entanglement", "--qubits", "4", "--layers", "1",
                         "--samples", "1"),
            table_rows=5 * 3 * 2,
            check_shapes=((4, 1), (6, 3), (8, 5)),
        ),
    )
}

# Metric name -> unit. The final JSON line of an untraced run carries exactly
# END_TO_END, that of a traced run exactly PER_LAYER.
END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer times listed here are those every workload enters, so none reads
# a constant zero; the self times of the other spans are printed by traced
# runs and kept in the details file, but are not listed in BENCHMARK.json.
PER_LAYER = {
    "ansatz.self_s": "s",
    "ansatz.ns_per_amp_update": "ns",
    "ansatz.gate_applications": "count",
    "ansatz.amp_updates": "count",
    "ansatz.bytes_computed": "B",
    "ansatz.run_circuit_batch.calls": "count",
    "ansatz.run_circuit_batch.rows": "count",
    "ansatz.run_circuit.calls": "count",
    "gradients.self_s": "s",
    "gradients.rows_per_gradient": "rows",
    "gradients.loss_gradient.calls": "count",
    "gradients.draw_params.calls": "count",
    "gradients.draw_params.self_s": "s",
    "losses.total_loss.calls": "count",
    "losses.d_loss_d_outputs.calls": "count",
    "statevector.expect_z.calls": "count",
    "statevector.expect_z_string.calls": "count",
    "statevector.reduced_density_matrix.calls": "count",
    "statevector.von_neumann_entropy.calls": "count",
    "experiments.self_s": "s",
    "experiments.fit_scaling.calls": "count",
    "cli.parse_args.self_s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.emit_table.self_s": "s",
    "cli.bytes_written": "B",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
