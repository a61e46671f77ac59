"""Command-line front end: run experiments, write CSV/JSON tables.

Output is data only: each subcommand writes one table whose rows mirror the
in-memory records, floats at 9 significant digits, and identical flags give
byte-identical files. Exit status: 0 on success, 1 on usage errors
(out-of-range values included, rejected before any computation) and on
non-finite results (nothing is written), 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import experiments as xp
from .gradients import MIN_VARIANCE_SAMPLES
from .losses import DEFAULT_PHYSICS_WEIGHT, all_configs
from .statevector import MAX_QUBITS, MIN_QUBITS, _check_count, _check_real

SEED_ENV_VAR = "PLATEAULAB_SEED"

# One row per subcommand: help text, --qubits default, --layers default and
# --samples default (None: no --samples flag). A tuple default makes the flag
# a sweep that takes one or more values.
SUBCOMMANDS = {
    "sweep-qubits": ("gradient variance across qubit counts",
                     xp.QUBIT_GRID, xp.DEFAULT_LAYERS, xp.DEFAULT_VARIANCE_SAMPLES),
    "sweep-depth": ("gradient variance across circuit depths",
                    xp.DEFAULT_QUBITS, xp.DEPTH_GRID, xp.DEFAULT_VARIANCE_SAMPLES),
    "sweep-pde": ("gradient variance across PDE residual types",
                  xp.DEFAULT_QUBITS, xp.DEFAULT_LAYERS, xp.DEFAULT_VARIANCE_SAMPLES),
    "entanglement": ("half-cut entanglement entropy sweep",
                     xp.QUBIT_GRID, xp.ENTANGLEMENT_DEPTHS, xp.DEFAULT_ENTROPY_SAMPLES),
    "converge": ("gradient-descent training of all configurations",
                 xp.TRAIN_QUBITS, xp.DEFAULT_LAYERS, None),
    "per-param": ("per-parameter gradient variance distribution",
                  xp.PER_PARAM_QUBITS, xp.DEFAULT_LAYERS, xp.DEFAULT_VARIANCE_SAMPLES),
}


# Companion tables by subcommand, in output order: sibling CSV files named
# by _companion_path, side-keys of the JSON document.
COMPANIONS = {"sweep-qubits": ("fits", "reference")}


def _companion_path(path: Path, name: str) -> Path:
    """CSV path of companion ``name`` of the table at ``path``: <stem>_<name>.csv."""
    return path.with_name(f"{path.stem}_{name}.csv")


@dataclass
class RunConfig:
    """One resolved run, holding its own ``qubits`` and ``layers`` lists. A
    missing ``out`` becomes ``<name with - as _>.<format>``, or for --all
    (experiment ``"all"``) the directory ``plateaulab-YYYYmmdd-HHMMSS``."""

    experiment: str
    qubits: list[int]
    layers: list[int]
    samples: int = xp.DEFAULT_VARIANCE_SAMPLES
    seed: int = xp.DEFAULT_SEED
    epochs: int = xp.DEFAULT_EPOCHS
    learning_rate: float = xp.DEFAULT_LEARNING_RATE
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT
    out: Optional[str] = None
    format: str = "csv"

    def __post_init__(self) -> None:
        # Copies: the cached parser gives every run the same default lists.
        self.qubits, self.layers = list(self.qubits), list(self.layers)
        if self.out is None:
            self.out = (time.strftime("plateaulab-%Y%m%d-%H%M%S") if self.experiment == "all"
                        else f"{_label(self.experiment)}.{self.format}")

    def as_dict(self) -> dict:
        """Every field but ``out``, in field order: the JSON ``config`` block."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}

    def output_paths(self) -> list[Path]:
        """Every file the run writes: ``out``, then in CSV mode its companions."""
        out = Path(self.out)
        names = COMPANIONS.get(self.experiment, ()) if self.format == "csv" else ()
        return [out, *(_companion_path(out, name) for name in names)]


@dataclass
class Table:
    """One output table plus optional companion tables (JSON side-keys,
    sibling files in CSV mode)."""

    experiment: str
    columns: list[str]
    records: list[dict]
    config: dict
    companions: dict = field(default_factory=dict)  # name -> Table


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_shared(parser) -> None:
    # Declared on the top-level parser and on every subcommand without
    # defaults (RunConfig holds them), so a flag given before the subcommand
    # is kept and one given after it wins.
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"master seed (default overridable via ${SEED_ENV_VAR})")
    parser.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="output path (default: <name with - as _>.<format>); with "
                             "--all, the output directory (default: plateaulab-YYYYmmdd-HHMMSS)")
    parser.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS,
                        help="output format")


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI parser, built once per process."""
    parser = _Parser(
        prog="plateaulab",
        description="Gradient-variance and trainability experiments for "
                    "variational quantum circuits.",
        epilog=f"The default seed can be overridden with the {SEED_ENV_VAR} "
               "environment variable; an explicit --seed always wins.",
    )
    parser.add_argument("--all", action="store_true", dest="run_all",
                        help="run every experiment with default settings "
                             "into a timestamped directory")
    _add_shared(parser)
    subs = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name, (help_text, qubits, layers, samples) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag, default, what in (("--qubits", qubits, "qubit count"),
                                    ("--layers", layers, "circuit depth")):
            sweep = isinstance(default, tuple)
            sub.add_argument(flag, type=int, nargs="+" if sweep else 1,
                             default=list(default) if sweep else [default],
                             help=f"{what}s to sweep" if sweep else what)
        if name == "converge":
            sub.add_argument("--epochs", type=int, default=xp.DEFAULT_EPOCHS,
                             help="number of descent steps")
            sub.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                             default=xp.DEFAULT_LEARNING_RATE, help="learning rate")
        if samples is not None:
            sub.add_argument("--samples", type=int, default=samples,
                             help="number of random initializations K")
        if name != "entanglement":
            sub.add_argument("--physics-weight", type=float,
                             default=DEFAULT_PHYSICS_WEIGHT,
                             help="weight of the physics term in PDE losses")
        _add_shared(sub)
    return parser


def _check_usage(run: RunConfig) -> None:
    """Raise ValueError naming the flag of the first value out of range."""
    _check_count("--seed", run.seed, 0)
    for n in run.qubits:
        _check_count("--qubits", n, MIN_QUBITS, MAX_QUBITS)
    for layers in run.layers:
        _check_count("--layers", layers, 1)
    for flag, values in (("--qubits", run.qubits), ("--layers", run.layers)):
        if len(set(values)) < len(values):
            raise ValueError(f"{flag} values must be distinct, got {values}")
    entropy = run.experiment == "entanglement"
    _check_count("--samples", run.samples,
                 xp.MIN_ENTROPY_SAMPLES if entropy else MIN_VARIANCE_SAMPLES)
    _check_count("--epochs", run.epochs, 1)
    _check_real("--lr", run.learning_rate)
    _check_real("--physics-weight", run.physics_weight, 0)


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse and validate CLI arguments into a RunConfig; exits with status 1
    on misuse (a subcommand given with --all too) or an out-of-range value,
    before any computation. The seed variable is read on every call."""
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    if "seed" not in values and (env_seed := os.environ.get(SEED_ENV_VAR)) is not None:
        try:
            values["seed"] = int(env_seed)
            _check_count(f"${SEED_ENV_VAR}", values["seed"], 0)
        except ValueError:
            parser.error(f"${SEED_ENV_VAR} must be an integer >= 0, got {env_seed!r}")
    if values.pop("run_all"):
        if values["experiment"] is not None:
            parser.error(f"--all takes no subcommand, got {values['experiment']}")
        values.update(experiment="all", qubits=[], layers=[])
    elif values["experiment"] is None:
        parser.error("an experiment subcommand (or --all) is required")
    # Each flag fills its field; a flag not given leaves the field's default.
    run = RunConfig(**values)
    try:
        _check_usage(run)
    except ValueError as exc:
        parser.error(str(exc))
    return run


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return ""
    return str(value)


def _round9(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def emit_reference_lines(ns: Sequence[int], anchor: float = 1.0) -> list[tuple[int, float]]:
    """Exponential 2^-n reference curve anchored at the first point."""
    ns = list(ns)
    return [(n, anchor * 2.0 ** (-(n - ns[0]))) for n in ns]


VARIANCE_COLUMNS = ["experiment", "n", "layers", "config", "pde",
                    "mean_variance", "stderr_of_mean", "K", "seed"]
PER_PARAM_COLUMNS = ["experiment", "n", "layers", "config", "pde",
                     "param_index", "variance", "K", "seed"]
ENTROPY_COLUMNS = ["experiment", "n", "layers", "topology",
                   "mean_entropy_bits", "ratio_to_max", "K", "seed"]
TRACE_COLUMNS = ["experiment", "n", "layers", "config", "epoch",
                 "loss", "grad_norm", "seed"]
REFERENCE_COLUMNS = ["n", "reference_variance"]
FIT_COLUMNS = ["experiment", "config", "model", "exponent", "residual_norm"]


# Columns a table is sorted by, in priority order, where it has them.
KEY_COLUMNS = ("n", "layers", "config", "pde", "topology", "param_index", "epoch")


def make_table(experiment: str, columns: list[str], rows, config: dict) -> Table:
    """Table of ``rows`` (value tuples in column order), sorted by its key
    columns; raises ArithmeticError on a non-finite float."""
    records = [dict(zip(columns, row, strict=True)) for row in rows]
    for record in records:
        for column, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ArithmeticError(f"non-finite {experiment} {column}: {value}")
    keys = [c for c in KEY_COLUMNS if c in columns]
    records.sort(key=lambda r: tuple("" if r[k] is None else r[k] for k in keys))
    return Table(experiment, columns, records, config)


def _csv_text(table: Table) -> str:
    lines = [",".join(table.columns)]
    for record in table.records:
        lines.append(",".join(_fmt(record[c]) for c in table.columns))
    return "\n".join(lines) + "\n"


def _json_rows(table: Table) -> list[dict]:
    return [{c: _round9(record[c]) for c in table.columns} for record in table.records]


def emit_table(table: Table, fmt: str, path) -> list[Path]:
    """Write the table (and its companions) to disk; returns written paths."""
    path = Path(path)
    if fmt == "csv":
        texts = {path: _csv_text(table)}
        for name, side in table.companions.items():
            texts[_companion_path(path, name)] = _csv_text(side)
    elif fmt == "json":
        doc = {"experiment": table.experiment, "config": table.config,
               "rows": _json_rows(table)}
        for name, side in table.companions.items():
            doc[name] = _json_rows(side)
        texts = {path: json.dumps(doc, indent=2) + "\n"}
    else:
        raise ValueError(f"unknown format: {fmt}")
    for p, text in texts.items():
        p.write_text(text, encoding="utf-8", newline="\n")
    return list(texts)


def _attach_qubit_sweep_companions(table: Table) -> None:
    # Records are sorted by n, then config: each config's points come in n order.
    by_config: dict[str, list[tuple[int, float]]] = {}
    for record in table.records:
        by_config.setdefault(record["config"], []).append(
            (record["n"], record["mean_variance"])
        )
    fit_rows = []
    for config_name, points in by_config.items():
        if len(points) < 2:
            continue
        for model in xp.ScalingModel:
            fit = xp.fit_scaling(points, model)
            fit_rows.append((table.experiment, config_name, model.value,
                             fit.exponent, fit.residual_norm))
    ref_rows = emit_reference_lines(sorted({r["n"] for r in table.records}),
                                    table.records[0]["mean_variance"])
    fits, reference = COMPANIONS["sweep-qubits"]
    table.companions[fits] = make_table(table.experiment, FIT_COLUMNS, fit_rows, table.config)
    table.companions[reference] = make_table(table.experiment, REFERENCE_COLUMNS, ref_rows,
                                             table.config)


def run_experiment(run: RunConfig) -> Table:
    """Execute one experiment and build its table; label, K and seed come from the run."""
    label = _label(run.experiment)
    n, layers = run.qubits[0], run.layers[0]
    if run.experiment == "entanglement":
        sweep = xp.entanglement_sweep(run.qubits, run.layers, run.samples, run.seed)
        rows = [(label, r.n, r.layers, r.topology, r.mean_entropy_bits,
                 r.ratio_to_max, run.samples, run.seed) for r in sweep]
        return make_table(label, ENTROPY_COLUMNS, rows, run.as_dict())
    if run.experiment == "converge":
        traces = xp.train(all_configs(run.physics_weight), n, layers, run.epochs,
                          run.learning_rate, run.seed)
        rows = [(label, n, layers, t.config_name, epoch, loss, norm, run.seed)
                for t in traces
                for epoch, (loss, norm) in enumerate(zip(t.losses, t.grad_norms))]
        return make_table(label, TRACE_COLUMNS, rows, run.as_dict())
    if run.experiment == "per-param":
        sweep = xp.sweep_qubits([n], layers, run.samples, run.seed, run.physics_weight)
        rows = [(label, r.n, r.layers, r.config_name, r.pde_name, j,
                 float(v), run.samples, run.seed)
                for r in sweep for j, v in enumerate(r.per_param_variance)]
        return make_table(label, PER_PARAM_COLUMNS, rows, run.as_dict())
    if run.experiment == "sweep-qubits":
        sweep = xp.sweep_qubits(run.qubits, layers, run.samples, run.seed,
                                run.physics_weight)
    elif run.experiment == "sweep-depth":
        sweep = xp.sweep_depth(run.layers, n, run.samples, run.seed, run.physics_weight)
    elif run.experiment == "sweep-pde":
        sweep = xp.sweep_pde(n, layers, run.samples, run.seed, run.physics_weight)
    else:
        raise ValueError(f"unknown experiment: {run.experiment}")
    rows = [(label, r.n, r.layers, r.config_name, r.pde_name,
             r.mean_variance, r.stderr_of_mean, run.samples, run.seed)
            for r in sweep]
    table = make_table(label, VARIANCE_COLUMNS, rows, run.as_dict())
    if run.experiment == "sweep-qubits":
        _attach_qubit_sweep_companions(table)
    return table


def _label(experiment: str) -> str:
    """Table label and default file stem of a subcommand: sweep-qubits -> sweep_qubits."""
    return experiment.replace("-", "_")


def _expand(run: RunConfig) -> list[RunConfig]:
    """An invocation's runs: itself, or for --all every subcommand at its
    defaults with the same seed and format, writing into the new directory."""
    if run.experiment != "all":
        return [run]
    Path(run.out).mkdir(parents=True, exist_ok=True)
    runs = [parse_args([name, "--seed", str(run.seed), "--format", run.format])
            for name in SUBCOMMANDS]
    for sub in runs:
        sub.out = str(Path(run.out) / sub.out)
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    run = parse_args(argv)
    try:
        # A non-finite value still fails below: make_table, the norm guard and
        # pde_residual reject it, so numpy's warnings would only add noise.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            runs = _expand(run)
            for sub in runs:  # a bad output path fails before any computation
                for path in sub.output_paths():
                    if not path.parent.is_dir():
                        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                                str(path))
                    if path.is_dir():
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                                str(path))
            written = [path for sub in runs
                       for path in emit_table(run_experiment(sub), sub.format, sub.out)]
    except OSError as exc:
        print(f"plateaulab: I/O error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"plateaulab: error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
