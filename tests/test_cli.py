"""CLI parsing, table emission, round-trips, and exit-status contracts."""

import csv
import gc
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from plateaulab import cli
from plateaulab.cli import (
    RunConfig,
    emit_reference_lines,
    emit_table,
    main,
    parse_args,
    run_experiment,
)


# bench/workloads.py is pure data; dataclasses resolve its annotations
# through sys.modules, so it is registered there before it runs.
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def parse_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestParseArgs:
    def test_defaults_reproduce_protocol_grids(self):
        run = parse_args(["sweep-qubits"])
        assert run.qubits == [4, 6, 8]
        assert run.layers == [3]
        assert run.samples == 25
        run = parse_args(["entanglement"])
        assert run.samples == 20
        assert run.layers == [1, 3, 5]
        run = parse_args(["converge"])
        assert (run.qubits, run.layers) == ([4], [3])
        assert run.epochs == 50
        assert run.learning_rate == 0.01

    def test_seed_flag(self):
        assert parse_args(["sweep-qubits", "--seed", "7"]).seed == 7

    def test_converge_overrides(self):
        run = parse_args(["converge", "--epochs", "10", "--lr", "0.05"])
        assert run.epochs == 10
        assert run.learning_rate == 0.05

    def test_pde_sweep_qubit_override(self):
        assert parse_args(["sweep-pde", "--qubits", "4"]).qubits == [4]

    def test_seed_env_var_default(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert parse_args(["sweep-qubits"]).seed == 123
        # explicit flag wins over the environment
        assert parse_args(["sweep-qubits", "--seed", "5"]).seed == 5

    def test_all_flag(self):
        run = parse_args(["--all", "--seed", "3"])
        assert run.experiment == "all"
        assert run.seed == 3

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["sweep-qubits", "--bogus", "1"])
        assert exc.value.code == 1

    def test_unparseable_number_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["sweep-qubits", "--seed", "banana"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("experiment", cli.SUBCOMMANDS)
    def test_help_lists_flags_with_defaults(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args([experiment, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--seed", "--out", "--format"):
            assert flag in text
        assert "default" in text


def tiny_run(experiment, **overrides):
    base = dict(
        experiment=experiment,
        qubits=[4],
        layers=[1],
        samples=3,
        seed=0,
        epochs=2,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestEmitTable:
    def test_qubit_sweep_row_count(self, tmp_path):
        run = tiny_run("sweep-qubits", qubits=[4, 6, 8], layers=[3])
        table = run_experiment(run)
        out = tmp_path / "q.csv"
        emit_table(table, "csv", out)
        assert len(parse_csv(out)) == 12

    def test_csv_round_trip_to_nine_digits(self, tmp_path):
        run = tiny_run("sweep-qubits")
        table = run_experiment(run)
        out = tmp_path / "q.csv"
        emit_table(table, "csv", out)
        parsed = parse_csv(out)
        for record, row in zip(table.records, parsed):
            got = float(row["mean_variance"])
            assert got == pytest.approx(record["mean_variance"], rel=1e-8)

    def test_json_and_csv_hold_identical_values(self, tmp_path):
        run = tiny_run("sweep-depth", layers=[1, 2], qubits=[4])
        table = run_experiment(run)
        csv_path = tmp_path / "d.csv"
        json_path = tmp_path / "d.json"
        emit_table(table, "csv", csv_path)
        emit_table(table, "json", json_path)
        csv_rows = parse_csv(csv_path)
        json_rows = json.loads(json_path.read_text())["rows"]
        assert len(csv_rows) == len(json_rows) == 8
        for c, j in zip(csv_rows, json_rows):
            assert float(c["mean_variance"]) == j["mean_variance"]
            assert int(c["n"]) == j["n"]
            assert c["config"] == j["config"]

    def test_json_document_structure(self, tmp_path):
        run = tiny_run("entanglement", layers=[1])
        table = run_experiment(run)
        path = tmp_path / "e.json"
        emit_table(table, "json", path)
        doc = json.loads(path.read_text())
        assert set(doc) >= {"experiment", "config", "rows"}
        assert doc["experiment"] == "entanglement"

    def test_rows_sorted_by_cell(self, tmp_path):
        run = tiny_run("sweep-qubits", qubits=[8, 4, 6], layers=[2])
        table = run_experiment(run)
        keys = [(r["n"], r["layers"], r["config"]) for r in table.records]
        assert keys == sorted(keys)

    def test_csv_is_lf_terminated_utf8(self, tmp_path):
        run = tiny_run("sweep-pde", qubits=[4], layers=[1])
        out = tmp_path / "p.csv"
        emit_table(run_experiment(run), "csv", out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0].startswith("experiment,")

    def test_converge_table_shape(self, tmp_path):
        run = tiny_run("converge", epochs=2)
        table = run_experiment(run)
        # 4 configurations x (epochs + 1) rows
        assert len(table.records) == 12
        assert table.columns[:4] == ["experiment", "n", "layers", "config"]

    def test_per_param_long_format(self, tmp_path):
        run = tiny_run("per-param", qubits=[4], layers=[2])
        table = run_experiment(run)
        # 4 configs x 16 parameters
        assert len(table.records) == 64
        assert "param_index" in table.columns

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        table = run_experiment(tiny_run("sweep-pde"))
        with pytest.raises(ValueError, match="unknown format: xml"):
            emit_table(table, "xml", tmp_path / "t.xml")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment: bogus"):
            run_experiment(RunConfig("bogus", [4], [1]))


class TestReferenceLines:
    def test_anchored_powers_of_two(self):
        got = emit_reference_lines([4, 6, 8], anchor=0.8)
        np.testing.assert_allclose(
            [v for _, v in got], [0.8, 0.2, 0.05], rtol=1e-12
        )

    def test_single_point(self):
        assert emit_reference_lines([5], anchor=2.0) == [(5, 2.0)]

    def test_monotone_decreasing(self):
        values = [v for _, v in emit_reference_lines(range(2, 10))]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMainExitCodes:
    def test_success_returns_zero(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep-pde", "--qubits", "4", "--layers", "1",
                     "--samples", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_io_error_returns_two(self, tmp_path, capsys, monkeypatch):
        # A missing output directory fails before any experiment runs.
        runs = []
        monkeypatch.setattr(cli, "run_experiment", runs.append)
        missing_dir = tmp_path / "nope" / "x.csv"
        code = main(["sweep-pde", "--qubits", "4", "--layers", "1",
                     "--samples", "2", "--out", str(missing_dir)])
        assert code == 2
        assert runs == []
        err = capsys.readouterr().err
        assert "I/O error" in err and str(missing_dir) in err

    @pytest.mark.parametrize("argv, out, directory", [
        (["sweep-pde", "--qubits", "4", "--layers", "1", "--samples", "2"], ".", "."),
        # A companion file of a CSV run, alone and inside --all.
        (["sweep-qubits", "--qubits", "4", "6", "--layers", "1", "--samples", "2"],
         "q.csv", "q_fits.csv"),
        (["--all"], "out", "out/sweep_qubits_reference.csv"),
    ], ids=["out", "companion", "all_companion"])
    def test_out_naming_a_directory_fails_before_any_experiment(
            self, argv, out, directory, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", runs.append)
        (tmp_path / directory).mkdir(parents=True, exist_ok=True)
        code = main([*argv, "--out", str(tmp_path / out)])
        assert code == 2
        assert runs == []
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        err = capsys.readouterr().err
        assert err == (f"plateaulab: I/O error: [Errno 21] Is a directory: "
                       f"'{tmp_path / directory}'\n")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep-qubits", "--qubits", "4", "--layers", "2",
                "--samples", "3", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_qubits_writes_reference_and_fits(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["sweep-qubits", "--qubits", "4", "6", "--layers", "1",
                     "--samples", "3", "--out", str(out)]) == 0
        ref = parse_csv(tmp_path / "q_reference.csv")
        assert [int(r["n"]) for r in ref] == [4, 6]
        anchor = float(ref[0]["reference_variance"])
        assert float(ref[1]["reference_variance"]) == pytest.approx(anchor / 4, rel=1e-8)
        fits = parse_csv(tmp_path / "q_fits.csv")
        assert len(fits) == 8  # 4 configs x 2 models
        assert {r["model"] for r in fits} == {"exp_in_qubits", "power_in_qubits"}

    def test_all_runs_every_experiment(self, tmp_path):
        out_dir = tmp_path / "bundle"
        code = main(["--all", "--seed", "1", "--out", str(out_dir)])
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        for experiment in cli.SUBCOMMANDS:
            assert f"{experiment.replace('-', '_')}.csv" in names


class TestCachedParser:
    def test_one_parser_per_environment_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "4")
        cli.build_parser.cache_clear()
        for k in range(3):
            assert main(["entanglement", "--qubits", "2", "--layers", "1",
                         "--samples", "1", "--out", str(tmp_path / f"{k}.csv")]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_changed_environment_takes_effect(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        assert parse_args(["converge"]).seed == 7
        monkeypatch.setenv(cli.SEED_ENV_VAR, "8")
        assert parse_args(["converge"]).seed == 8
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        assert parse_args(["converge"]).seed == 0

    def test_mutated_run_lists_do_not_reach_the_next_parse(self):
        run = parse_args(["entanglement"])
        run.qubits.append(99)
        run.layers.append(99)
        again = parse_args(["entanglement"])
        assert (again.qubits, again.layers) == ([4, 6, 8], [1, 3, 5])

    def test_warm_parse_leaves_no_cyclic_garbage(self):
        parse_args(["sweep-qubits", "--qubits", "4", "6"])
        gc.collect()
        parse_args(["sweep-qubits", "--qubits", "4", "6"])
        assert gc.collect() == 0

    # A benchmark pass is one warm main() call: garbage it leaves behind moves
    # the generation-2 collections, and with them peak RSS.
    @pytest.mark.parametrize("workload", [*workloads.WORKLOADS, "all"])
    def test_warm_pass_leaves_no_cyclic_garbage(self, workload, tmp_path, capsys):
        if workload == "all":
            argv = ["--all", "--seed", "0", "--out", str(tmp_path / "all")]
        else:
            argv = workloads.WORKLOADS[workload].cli_argv(0, str(tmp_path / "t.csv"))
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0


class TestSharedFlagPlacement:
    def test_flags_before_subcommand_are_kept(self):
        assert parse_args(["--seed", "5", "converge"]).seed == 5
        run = parse_args(["--format", "json", "--out", "x.json", "sweep-pde"])
        assert (run.format, run.out) == ("json", "x.json")

    def test_flag_after_subcommand_wins(self):
        run = parse_args(["--seed", "5", "--format", "json", "--out", "a.json",
                          "converge", "--seed", "7", "--format", "csv",
                          "--out", "b.csv"])
        assert (run.seed, run.format, run.out) == (7, "csv", "b.csv")

    def test_explicit_seed_beats_environment(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert parse_args(["converge"]).seed == 123
        assert parse_args(["--seed", "5", "converge"]).seed == 5
        assert parse_args(["converge", "--seed", "6"]).seed == 6


class TestFailFast:
    @pytest.mark.parametrize("argv", [
        ["sweep-qubits", "--samples", "1"],
        ["sweep-qubits", "--qubits", "4", "13"],
        ["sweep-qubits", "--qubits", "1"],
        ["sweep-depth", "--layers", "2", "0"],
        ["entanglement", "--samples", "0"],
        ["converge", "--epochs", "0"],
        ["converge", "--lr", "nan"],
        ["converge", "--lr", "inf"],
        ["sweep-pde", "--seed", "-1"],
        ["--all", "--seed", "-1"],
        ["--all", "converge", "--epochs", "3"],
        ["per-param", "--physics-weight", "-1"],
        ["sweep-pde", "--physics-weight", "nan"],
        ["sweep-pde", "--physics-weight", "inf"],
        # Flags these subcommands never read.
        ["converge", "--samples", "5"],
        ["entanglement", "--physics-weight", "0.2"],
        # Repeated sweep values.
        ["sweep-qubits", "--qubits", "4", "4"],
        ["entanglement", "--layers", "1", "1"],
    ])
    def test_bad_value_exits_1_before_any_output(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: plateaulab")
        [error] = [line for line in err.splitlines() if "error:" in line]
        assert argv[1] in error  # the flag each case sets
        assert "Traceback" not in err
        assert not out.exists()

    def test_smallest_valid_values_parse(self):
        assert parse_args(["entanglement", "--samples", "1"]).samples == 1
        run = parse_args(["sweep-qubits", "--qubits", "2", "12", "--samples", "2",
                          "--physics-weight", "0"])
        assert (run.qubits, run.samples, run.physics_weight) == ([2, 12], 2, 0.0)

    def test_unread_flags_not_offered(self, capsys):
        for experiment, flag in (("converge", "--samples"),
                                 ("entanglement", "--physics-weight")):
            with pytest.raises(SystemExit):
                parse_args([experiment, "--help"])
            assert flag not in capsys.readouterr().out

    def test_bad_seed_variable_is_a_usage_error(self, monkeypatch, capsys):
        for value in ("banana", "1.5", "", "-1"):
            monkeypatch.setenv(cli.SEED_ENV_VAR, value)
            with pytest.raises(SystemExit) as exc:
                parse_args(["converge"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: plateaulab")
            # The one error line names the variable, not the flag it stands in for.
            [error] = [line for line in err.splitlines() if "error:" in line]
            assert cli.SEED_ENV_VAR in error and "--seed" not in error, value
        # An explicit --seed never reads the variable.
        assert parse_args(["--seed", "2", "converge"]).seed == 2


class TestNonFiniteResult:
    @pytest.mark.parametrize("argv", [
        ["sweep-pde", "--qubits", "4", "--layers", "1", "--samples", "2"],
        ["converge"],
    ])
    def test_exits_1_with_one_line_and_no_file(self, argv, tmp_path, capsys, recwarn):
        out = tmp_path / "out.csv"
        code = main([*argv, "--physics-weight", "1e308", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("plateaulab: error:")
        assert "wrote" not in captured.out
        assert list(tmp_path.iterdir()) == []
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_converge_names_the_non_finite_gradient(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["converge", "--physics-weight", "1e308", "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert "non-finite gradient of pde_constrained at epoch 0" in line

    def test_converge_names_the_non_finite_step(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["converge", "--lr", "1e308", "--physics-weight", "10", "--epochs", "3"]
        assert main([*argv, "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert "non-finite step of pde_constrained at epoch 1" in line
        assert not out.exists()

    def test_make_table_rejects_non_finite_floats(self):
        for bad in (float("nan"), float("inf"), np.float64("-inf")):
            with pytest.raises(ArithmeticError):
                cli.make_table("x", ["n", "value"], [(4, bad)], {})
