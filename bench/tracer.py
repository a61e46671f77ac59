"""In-memory span tracer for traced benchmark runs.

The tracer replaces public plateaulab functions at the module bindings
their callers use, so only calls made through a listed binding open a span.
Each span records its name, start, end and parent span; a layer's self time
is its spans' durations minus the time their child spans cover. Spans live
in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from plateaulab import cli, experiments, gradients, losses
from plateaulab.ansatz import gate_count

# (module, attribute, span name). A function imported into several modules
# is wrapped at each binding that a workload calls through.
BINDINGS = (
    (gradients, "run_circuit_batch", "ansatz.run_circuit_batch"),
    (losses, "run_circuit", "ansatz.run_circuit"),
    (experiments, "run_circuit", "ansatz.run_circuit"),
    (experiments, "loss_gradient", "gradients.loss_gradient"),
    (gradients, "loss_gradient", "gradients.loss_gradient"),
    (experiments, "gradient_variance", "gradients.gradient_variance"),
    (experiments, "draw_params", "gradients.draw_params"),
    (gradients, "draw_params", "gradients.draw_params"),
    (experiments, "total_loss", "losses.total_loss"),
    (gradients, "d_loss_d_outputs", "losses.d_loss_d_outputs"),
    (losses, "expect_z", "statevector.expect_z"),
    (losses, "expect_z_string", "statevector.expect_z_string"),
    (experiments, "reduced_density_matrix", "statevector.reduced_density_matrix"),
    (experiments, "von_neumann_entropy", "statevector.von_neumann_entropy"),
    (experiments, "sweep_qubits", "experiments.sweep_qubits"),
    (experiments, "train", "experiments.train"),
    (experiments, "entanglement_sweep", "experiments.entanglement_sweep"),
    (experiments, "fit_scaling", "experiments.fit_scaling"),
    (cli, "parse_args", "cli.parse_args"),
    (cli, "run_experiment", "cli.run_experiment"),
    (cli, "emit_table", "cli.emit_table"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BINDINGS))
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))

# Bytes computed per amplitude update: one complex128 read plus one write.
BYTES_PER_AMP_UPDATE = 32


def _circuit_rows(name: str, args) -> int:
    return len(args[1]) if name == "ansatz.run_circuit_batch" else 1


class Tracer:
    """Records spans and circuit work counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.rows: Counter = Counter()
        self.gate_applications = 0
        self.amp_updates = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        counts_circuit = name.startswith("ansatz.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_circuit:
                spec, rows = args[0], _circuit_rows(name, args)
                self.rows[name] += rows
                self.gate_applications += gate_count(spec) * rows
                self.amp_updates += gate_count(spec) * rows * 2**spec.n_qubits
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][4] += span[2] - span[1]

        return traced

    def take_pass(self, wall_s: float) -> tuple[dict, list[list]]:
        """Summarize the spans of one pass and reset for the next.

        Returns the pass's per-layer metrics and its spans.
        """
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        covered = 0.0
        for name, start, end, parent, child_s in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s
            if parent is None:
                covered += end - start
        m = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for module in MODULES:
            m[f"{module}.self_s"] = sum(
                self_s[name] for name in SPAN_NAMES if name.startswith(module + ".")
            )
        batch_rows = self.rows["ansatz.run_circuit_batch"]
        m["ansatz.run_circuit_batch.rows"] = batch_rows
        m["ansatz.gate_applications"] = self.gate_applications
        m["ansatz.amp_updates"] = self.amp_updates
        m["ansatz.bytes_computed"] = self.amp_updates * BYTES_PER_AMP_UPDATE
        m["ansatz.ns_per_amp_update"] = (
            m["ansatz.self_s"] / self.amp_updates * 1e9 if self.amp_updates else 0.0
        )
        gradient_calls = calls["gradients.loss_gradient"]
        m["gradients.rows_per_gradient"] = (
            batch_rows / gradient_calls if gradient_calls else 0.0
        )
        m["trace.unattributed_s"] = wall_s - covered
        spans = self.spans
        self.spans = []
        self.rows = Counter()
        self.gate_applications = 0
        self.amp_updates = 0
        return m, spans
