"""Command-line front end: run experiments, write CSV/JSON tables.

Output is data only (no plotting): each subcommand writes one table whose
rows mirror the in-memory records, with floats serialized to 9 significant
digits. Identical flags always produce byte-identical files.

Exit status: 0 on success, 1 on usage errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import experiments as xp
from .losses import DEFAULT_PHYSICS_WEIGHT, all_configs

SEED_ENV_VAR = "PLATEAULAB_SEED"

EXPERIMENTS = (
    "sweep-qubits",
    "sweep-depth",
    "sweep-pde",
    "entanglement",
    "converge",
    "per-param",
)


@dataclass
class RunConfig:
    """Parsed CLI invocation: experiment name plus resolved parameters."""

    experiment: str
    qubit_list: list[int]
    layer_list: list[int]
    n_samples: int
    seed: int
    epochs: int = xp.DEFAULT_EPOCHS
    learning_rate: float = xp.DEFAULT_LEARNING_RATE
    physics_weight: float = DEFAULT_PHYSICS_WEIGHT
    out: Optional[str] = None
    format: str = "csv"

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "qubits": self.qubit_list,
            "layers": self.layer_list,
            "samples": self.n_samples,
            "seed": self.seed,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "physics_weight": self.physics_weight,
            "format": self.format,
        }


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


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"invalid {SEED_ENV_VAR} value: {raw!r}")


def _add_shared(parser, seed=argparse.SUPPRESS, out=argparse.SUPPRESS,
                fmt=argparse.SUPPRESS) -> None:
    # Declared on the top-level parser with real defaults and on every
    # subcommand with SUPPRESS, so a flag given before the subcommand is not
    # overwritten by a subcommand default and one given after it wins.
    parser.add_argument("--seed", type=int, default=seed,
                        help=f"master seed (default overridable via ${SEED_ENV_VAR})")
    parser.add_argument("--out", type=str, default=out,
                        help="output path (default: <experiment>.<format>); "
                             "with --all, the output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=fmt,
                        help="output format")


def _add_common(sub, samples_default: int) -> None:
    sub.add_argument("--samples", type=int, default=samples_default,
                     help="number of random initializations K")
    sub.add_argument("--physics-weight", type=float, default=DEFAULT_PHYSICS_WEIGHT,
                     help="weight of the physics term in PDE losses")
    _add_shared(sub)


def build_parser(seed_default: Optional[int] = None) -> _Parser:
    if seed_default is None:
        seed_default = _default_seed()
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
    _add_shared(parser, seed_default, None, "csv")
    subs = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    sub = subs.add_parser("sweep-qubits", formatter_class=fmt,
                          help="gradient variance across qubit counts")
    sub.add_argument("--qubits", type=int, nargs="+", default=list(xp.QUBIT_GRID),
                     help="qubit counts to sweep")
    sub.add_argument("--layers", type=int, default=3, help="circuit depth")
    _add_common(sub, xp.DEFAULT_VARIANCE_SAMPLES)

    sub = subs.add_parser("sweep-depth", formatter_class=fmt,
                          help="gradient variance across circuit depths")
    sub.add_argument("--layers", type=int, nargs="+", default=list(xp.DEPTH_GRID),
                     help="depths to sweep")
    sub.add_argument("--qubits", type=int, default=6, help="qubit count")
    _add_common(sub, xp.DEFAULT_VARIANCE_SAMPLES)

    sub = subs.add_parser("sweep-pde", formatter_class=fmt,
                          help="gradient variance across PDE residual types")
    sub.add_argument("--qubits", type=int, default=6, help="qubit count")
    sub.add_argument("--layers", type=int, default=3, help="circuit depth")
    _add_common(sub, xp.DEFAULT_VARIANCE_SAMPLES)

    sub = subs.add_parser("entanglement", formatter_class=fmt,
                          help="half-cut entanglement entropy sweep")
    sub.add_argument("--qubits", type=int, nargs="+", default=list(xp.QUBIT_GRID),
                     help="qubit counts to sweep")
    sub.add_argument("--layers", type=int, nargs="+",
                     default=list(xp.ENTANGLEMENT_DEPTHS), help="depths to sweep")
    _add_common(sub, xp.DEFAULT_ENTROPY_SAMPLES)

    sub = subs.add_parser("converge", formatter_class=fmt,
                          help="gradient-descent training of all configurations")
    sub.add_argument("--qubits", type=int, default=4, help="qubit count")
    sub.add_argument("--layers", type=int, default=3, help="circuit depth")
    sub.add_argument("--epochs", type=int, default=xp.DEFAULT_EPOCHS,
                     help="number of descent steps")
    sub.add_argument("--lr", type=float, default=xp.DEFAULT_LEARNING_RATE,
                     help="learning rate")
    _add_common(sub, xp.DEFAULT_VARIANCE_SAMPLES)

    sub = subs.add_parser("per-param", formatter_class=fmt,
                          help="per-parameter gradient variance distribution")
    sub.add_argument("--qubits", type=int, default=8, help="qubit count")
    sub.add_argument("--layers", type=int, default=3, help="circuit depth")
    _add_common(sub, xp.DEFAULT_VARIANCE_SAMPLES)

    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse CLI arguments into a RunConfig; exits with status 1 on misuse."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.run_all:
        return RunConfig(
            experiment="all",
            qubit_list=list(xp.QUBIT_GRID),
            layer_list=list(xp.DEPTH_GRID),
            n_samples=xp.DEFAULT_VARIANCE_SAMPLES,
            seed=args.seed,
            out=args.out,
            format=args.format,
        )
    if args.experiment is None:
        parser.error("an experiment subcommand (or --all) is required")
    qubits = args.qubits if isinstance(args.qubits, list) else [args.qubits]
    layers = args.layers if isinstance(args.layers, list) else [args.layers]
    return RunConfig(
        experiment=args.experiment,
        qubit_list=qubits,
        layer_list=layers,
        n_samples=args.samples,
        seed=args.seed,
        epochs=getattr(args, "epochs", xp.DEFAULT_EPOCHS),
        learning_rate=getattr(args, "lr", xp.DEFAULT_LEARNING_RATE),
        physics_weight=args.physics_weight,
        out=args.out,
        format=args.format,
    )


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
    if not ns:
        return []
    n0 = ns[0]
    return [(n, anchor * 2.0 ** (-(n - n0))) for n in ns]


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
    """Table of ``rows`` (value tuples in column order), sorted by its key columns."""
    records = [dict(zip(columns, row, strict=True)) for row in rows]
    keys = [c for c in KEY_COLUMNS if c in columns]
    records.sort(key=lambda r: tuple("" if r[k] is None else r[k] for k in keys))
    return Table(experiment, columns, records, config)


def _variance_rows(result: xp.SweepResult) -> list[tuple]:
    return [
        (result.experiment, r.n, r.layers, r.config_name, r.pde_name,
         r.mean_variance, r.stderr_of_mean, r.n_samples, r.seed)
        for r in result.rows
    ]


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
            texts[path.with_name(f"{path.stem}_{name}.csv")] = _csv_text(side)
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


def _attach_qubit_sweep_companions(table: Table, run: RunConfig) -> None:
    by_config: dict[str, list[tuple[int, float]]] = {}
    for record in table.records:
        by_config.setdefault(record["config"], []).append(
            (record["n"], record["mean_variance"])
        )
    fit_rows = []
    for config_name in sorted(by_config):
        points = sorted(by_config[config_name])
        if len(points) < 2:
            continue
        for model in xp.ScalingModel:
            fit = xp.fit_scaling(points, model)
            fit_rows.append((table.experiment, config_name, model.value,
                             fit.exponent, fit.residual_norm))
    anchor = table.records[0]["mean_variance"] if table.records else 1.0
    ref_rows = emit_reference_lines(sorted(set(run.qubit_list)), anchor)
    table.companions["fits"] = make_table(table.experiment, FIT_COLUMNS, fit_rows,
                                          table.config)
    table.companions["reference"] = make_table(table.experiment, REFERENCE_COLUMNS,
                                               ref_rows, table.config)


def run_experiment(run: RunConfig) -> Table:
    """Execute one experiment and build its output table."""
    config = run.as_dict()
    n, layers = run.qubit_list[0], run.layer_list[0]
    if run.experiment == "sweep-qubits":
        result = xp.sweep_qubits(run.qubit_list, layers,
                                 run.n_samples, run.seed, run.physics_weight)
        table = make_table(result.experiment, VARIANCE_COLUMNS,
                           _variance_rows(result), config)
        _attach_qubit_sweep_companions(table, run)
        return table
    if run.experiment == "sweep-depth":
        result = xp.sweep_depth(run.layer_list, n,
                                run.n_samples, run.seed, run.physics_weight)
        return make_table(result.experiment, VARIANCE_COLUMNS,
                          _variance_rows(result), config)
    if run.experiment == "sweep-pde":
        result = xp.sweep_pde(xp.DEFAULT_PDES, n, layers,
                              run.n_samples, run.seed, run.physics_weight)
        return make_table(result.experiment, VARIANCE_COLUMNS,
                          _variance_rows(result), config)
    if run.experiment == "entanglement":
        result = xp.entanglement_sweep(run.qubit_list, run.layer_list,
                                       run.n_samples, run.seed)
        rows = [(result.experiment, r.n, r.layers, r.topology, r.mean_entropy_bits,
                 r.ratio_to_max, r.n_samples, r.seed) for r in result.rows]
        return make_table(result.experiment, ENTROPY_COLUMNS, rows, config)
    if run.experiment == "converge":
        traces = [
            xp.train(cfg, n, layers, run.epochs, run.learning_rate, run.seed)
            for cfg in all_configs(run.physics_weight)
        ]
        rows = [("converge", n, layers, t.config_name, e.epoch_index, e.loss_value,
                 e.gradient_norm, t.seed) for t in traces for e in t.epochs]
        return make_table("converge", TRACE_COLUMNS, rows, config)
    if run.experiment == "per-param":
        result = xp.per_param_distribution(n, layers, run.n_samples, run.seed,
                                           run.physics_weight)
        rows = [(result.experiment, r.n, r.layers, r.config_name, r.pde_name, j,
                 float(v), r.n_samples, r.seed)
                for r in result.rows for j, v in enumerate(r.per_param_variance)]
        return make_table(result.experiment, PER_PARAM_COLUMNS, rows, config)
    raise ValueError(f"unknown experiment: {run.experiment}")


def _default_out(experiment: str, fmt: str) -> str:
    return f"{experiment.replace('-', '_')}.{fmt}"


def _single_run(run: RunConfig) -> list[Path]:
    out = run.out or _default_out(run.experiment, run.format)
    return emit_table(run_experiment(run), run.format, out)


def _run_all(run: RunConfig) -> list[Path]:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir = Path(run.out) if run.out else Path(f"plateaulab-{stamp}")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for experiment in EXPERIMENTS:
        out = out_dir / _default_out(experiment, run.format)
        sub = parse_args([experiment, "--seed", str(run.seed),
                          "--format", run.format, "--out", str(out)])
        written.extend(_single_run(sub))
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    run = parse_args(argv)
    try:
        written = _run_all(run) if run.experiment == "all" else _single_run(run)
    except OSError as exc:
        print(f"plateaulab: I/O error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
