"""Tests for metrics, config parsing, grid runs, reports, and the CLI."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mcdopt import cli, harness
from mcdopt.core import Box, InsufficientBudget, Objective
from mcdopt.harness import (
    ConfigError,
    ExperimentConfig,
    LengthMismatch,
    RESULT_COLUMNS,
    compute_iar,
    grid_cells,
    parse_config_text,
    report_from_dir,
    resolve_functions,
    resolve_trace_grid,
    run_grid,
    run_single,
    tally_wtl,
    validate_config,
)
from mcdopt.benchfns import SUITE_NAMES, make_function

from helpers import densify, output_digest


class TestComputeIar:
    def test_large_ratio_fixture(self):
        ratio = compute_iar(4.17e10, 5.67e7)
        assert abs(ratio - 7.36e2) <= 0.01 * 7.36e2

    def test_small_ratio_fixture(self):
        ratio = compute_iar(2.08e1, 2.85e0)
        assert abs(ratio - 7.31) <= 0.01 * 7.31

    def test_equal_errors(self):
        assert compute_iar(5.0, 5.0) == 1.0

    def test_zero_denominator_sentinel(self):
        assert compute_iar(3.0, 0.0) == math.inf

    def test_both_zero_is_a_tie(self):
        assert compute_iar(0.0, 0.0) == 1.0


class TestTallyWtl:
    def test_one_of_each(self):
        assert tally_wtl([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]) == (1, 1, 1)

    def test_identical_lists(self):
        values = [4.0] * 7
        assert tally_wtl(values, list(values)) == (0, 7, 0)

    def test_sweep(self):
        ours = list(range(20))
        theirs = [v + 1.0 for v in ours]
        assert tally_wtl(ours, theirs) == (20, 0, 0)

    def test_relative_epsilon_ties(self):
        assert tally_wtl([100.0], [100.5]) == (1, 0, 0)
        assert tally_wtl([100.0], [100.5], tie_epsilon=0.01) == (0, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            tally_wtl([1.0], [1.0, 2.0])


class TestMeanTrace:
    def test_carry_forward(self):
        # a checkpoint between two improvements, one exactly on an
        # improvement, and one after the last improvement
        traces = [([1, 3, 7], [20.0, 9.0, 4.0])]
        assert harness._mean_trace(traces, [2, 3, 5, 7, 8]) == [20.0, 9.0, 9.0, 4.0, 4.0]

    def test_repeats_improve_at_their_own_counts(self):
        traces = [([1, 3], [8.0, 2.0]), ([1, 2, 5], [6.0, 4.0, 0.0])]
        assert harness._mean_trace(traces, [1, 2, 3, 5]) == [7.0, 6.0, 3.0, 1.0]

    @pytest.mark.parametrize("repeats", list(range(1, 21)) + [64, 129])
    def test_equals_the_mean_of_each_checkpoint_bit_for_bit(self, repeats):
        # lognormal values over many orders of magnitude, so the order of
        # the additions shows in the last bits
        rng = np.random.default_rng(repeats)
        grid = list(range(10, 1001, 10))
        traces = []
        for _ in range(repeats):
            count = int(rng.integers(1, 200))
            later = rng.choice(np.arange(2, 1001), size=count - 1, replace=False)
            values = -np.sort(-rng.lognormal(0.0, 10.0, size=count))
            traces.append(([1] + sorted(later.tolist()), values.tolist()))
        dense = [densify(nfes, values, grid) for nfes, values in traces]
        expected = [float(np.mean(column)) for column in zip(*dense)]
        means = harness._mean_trace(traces, grid)
        assert all(type(mean) is float for mean in means)
        assert [m.hex() for m in means] == [e.hex() for e in expected]


VALID_CONFIG = """
# minimal two-function grid
algorithms = mcd, de
functions = sphere, rastrigin
dim = 4
max_nfe = 120
max_iter = 3
repeats = 2
base_seed = 11
suite_seed = 5
de_pop_size = 8
trace_grid = 30, 60, 90, 120
record_timing = false
"""


class TestConfigParsing:
    def test_valid_text(self):
        config = parse_config_text(VALID_CONFIG)
        assert config.algorithms == ["mcd", "de"]
        assert config.functions == ["sphere", "rastrigin"]
        assert config.dim == 4
        assert config.max_nfe == 120
        assert config.repeats == 2
        assert config.trace_grid == [30, 60, 90, 120]
        assert config.record_timing is False
        assert config.output_dir == "results"

    def test_defaults_fill_in(self):
        config = parse_config_text("algorithms = de\ndim = 5\nmax_nfe = 100\n")
        assert config.functions == ["all"]
        assert config.max_iter == 10
        assert config.base_seed == 0
        assert config.tie_epsilon == 0.0
        assert (config.de_pop_size, config.cc_pop_size, config.cc_groups) == (50, 50, 10)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de\ndim = 4\nmax_nfe = 99\nfoo = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de\ndim = 4\ndim = 5\nmax_nfe = 99\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de\ndim = 4\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms de\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de\ndim = four\nmax_nfe = 99\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "algorithms = de\ndim = 4\nmax_nfe = 99\nrecord_timing = yes\n")

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = pso\ndim = 4\nmax_nfe = 99\n")

    def test_duplicate_algorithm(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de, de\ndim = 4\nmax_nfe = 99\n")

    def test_unknown_function(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "algorithms = de\ndim = 4\nmax_nfe = 99\nfunctions = spere\n")

    def test_empty_function_list(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de\ndim = 4\nmax_nfe = 99\nfunctions = ,\n")

    def test_tiny_dim(self):
        with pytest.raises(ConfigError):
            parse_config_text("algorithms = de\ndim = 1\nmax_nfe = 99\n")

    def test_unsorted_trace_grid(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "algorithms = de\ndim = 4\nmax_nfe = 99\ntrace_grid = 20, 10\n")

    def test_trace_grid_beyond_budget(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "algorithms = de\ndim = 4\nmax_nfe = 99\ntrace_grid = 50, 100\n")
        config = parse_config_text(
            "algorithms = de\ndim = 4\nmax_nfe = 99\ntrace_grid = 50, 99\n")
        assert config.trace_grid == [50, 99]

    @pytest.mark.parametrize("value", ["-0.01", "nan", "inf", "-inf"])
    def test_bad_tie_epsilon(self, value):
        with pytest.raises(ConfigError):
            parse_config_text(
                f"algorithms = de\ndim = 4\nmax_nfe = 99\ntie_epsilon = {value}\n")

    def test_empty_output_dir(self):
        text = "algorithms = de\ndim = 4\nmax_nfe = 99\n"
        with pytest.raises(ConfigError, match="output_dir must not be empty"):
            parse_config_text(text + "output_dir =\n")
        assert parse_config_text(text + "output_dir = .\n").output_dir == "."

    def test_budget_too_small_for_fold_runs(self):
        text = "algorithms = mcd\ndim = 10\nmax_nfe = 100\nmax_iter = 10\n"
        with pytest.raises(InsufficientBudget):
            parse_config_text(text)

    def test_structural_errors_win_over_budget(self):
        text = ("algorithms = mcd\ndim = 10\nmax_nfe = 100\nmax_iter = 10\n"
                "functions = spere\n")
        with pytest.raises(ConfigError):
            parse_config_text(text)


class TestResolvers:
    def test_grid_cells_in_run_order(self):
        config = ExperimentConfig(algorithms=["mcd", "de"], dim=4, max_nfe=100,
                                  functions=["sphere", "ackley"], repeats=2, base_seed=7)
        assert grid_cells(validate_config(config)) == [
            ("de", "ackley", 7), ("de", "ackley", 8), ("de", "sphere", 7), ("de", "sphere", 8),
            ("mcd", "ackley", 7), ("mcd", "ackley", 8), ("mcd", "sphere", 7),
            ("mcd", "sphere", 8)]

    def test_all_functions_sorted(self):
        config = ExperimentConfig(algorithms=["de"], dim=4, max_nfe=100)
        names = resolve_functions(config)
        assert names == sorted(names)
        assert len(names) == 8

    def test_explicit_functions_sorted(self):
        config = ExperimentConfig(algorithms=["de"], dim=4, max_nfe=100,
                                  functions=["sphere", "ackley"])
        assert resolve_functions(config) == ["ackley", "sphere"]

    def test_default_trace_grid(self):
        config = ExperimentConfig(algorithms=["de"], dim=4, max_nfe=250)
        grid = resolve_trace_grid(config)
        assert grid[0] == 2 and grid[-1] == 250 and len(grid) == 125

    def test_small_budget_trace_grid(self):
        config = ExperimentConfig(algorithms=["de"], dim=4, max_nfe=50)
        assert resolve_trace_grid(config) == list(range(1, 51))

    def test_explicit_grid_preserved(self):
        config = ExperimentConfig(algorithms=["de"], dim=4, max_nfe=100,
                                  trace_grid=[10, 100])
        assert resolve_trace_grid(config) == [10, 100]

    def test_validate_config_returns_the_resolved_grid(self):
        config = ExperimentConfig(algorithms=["mcd", "de"], dim=4, max_nfe=250)
        resolved = validate_config(config)
        assert resolved.algorithms == ["de", "mcd"]
        assert resolved.functions == sorted(SUITE_NAMES)
        assert resolved.trace_grid == list(range(2, 251, 2))
        # the config as written is left alone, and a resolved grid resolves to itself
        assert (config.algorithms, config.functions, config.trace_grid) == \
            (["mcd", "de"], ["all"], [])
        assert validate_config(resolved) == resolved


def _cell_config(algorithm, dim, max_nfe, max_iter=3, **fields):
    return ExperimentConfig(algorithms=[algorithm], dim=dim, max_nfe=max_nfe,
                            max_iter=max_iter, **fields)


class TestRunSingle:
    def test_same_cell_twice_is_identical(self):
        fn = make_function("rastrigin", 4, 5)
        config = _cell_config("de", 4, 60)
        first = run_single("de", fn, 7, config)
        second = run_single("de", fn, 7, config)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_mcd_spends_planned_budget(self):
        fn = make_function("sphere", 4, 5)
        err, used, trace, _ = run_single("mcd", fn, 0, _cell_config("mcd", 4, 130))
        assert used == 120  # five restarts of 24, ten left unspent
        assert err >= 0.0
        assert trace[-1][1] - 0.0 == err

    def test_cc_group_count_clamped_to_dim(self):
        fn = make_function("sphere", 2, 5)
        config = _cell_config("cc", 2, 60, cc_pop_size=8, cc_groups=10)
        err, used, _, _ = run_single("cc", fn, 0, config)
        assert used == 60
        assert err >= 0.0

    def test_final_error_subtracts_optimum(self):
        # a sphere lifted to an optimum value of 10: the error is the best
        # value (10.125, at (0.25, 0.25) after two passes) minus 10
        obj = Objective(lambda p: float(p @ p) + 10.0, Box([-1.0, -1.0], [1.0, 1.0]),
                        optimum_value=10.0, name="lifted")
        err, used, trace, _ = run_single("mcd", obj, 0, _cell_config("mcd", 2, 8, max_iter=2))
        assert used == 8
        assert trace[-1][1] == 10.125
        assert err == 0.125

    def test_unknown_algorithm(self):
        fn = make_function("sphere", 2, 5)
        with pytest.raises(ConfigError):
            run_single("annealing", fn, 0, _cell_config("de", 2, 60))

    def test_objective_without_optimum_rejected_before_spending(self):
        calls = []
        obj = Objective(lambda p: calls.append(1) or float(p @ p),
                        Box([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(ConfigError, match="optimum_value"):
            run_single("de", obj, 0, _cell_config("de", 2, 60))
        assert calls == []


def _mini_config(out_dir):
    return ExperimentConfig(
        algorithms=["mcd", "de", "cc"],
        functions=["sphere", "rastrigin"],
        dim=4,
        max_nfe=120,
        max_iter=3,
        repeats=2,
        base_seed=11,
        suite_seed=5,
        de_pop_size=8,
        cc_pop_size=8,
        cc_groups=2,
        output_dir=str(out_dir),
    )


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _collect_outputs(out_dir):
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, out_dir)] = _read_bytes(path)
    return files


class TestRunGrid:
    def test_outputs_and_schema(self, tmp_path):
        report = run_grid(_mini_config(tmp_path / "out"))
        out = tmp_path / "out"
        assert (out / "results.csv").is_file()
        assert (out / "meta.json").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "plots" / "sphere.svg").is_file()
        assert (out / "plots" / "rastrigin.svg").is_file()
        trace_files = sorted(os.listdir(out / "traces"))
        assert len(trace_files) == 12  # 3 algorithms x 2 functions x 2 repeats

        lines = _read_bytes(out / "results.csv").decode().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 13
        assert len(report.rows) == 12
        for row in report.rows:
            assert row["used_nfe"] <= 120
            assert row["wall_ms"] == ""
            if row["algorithm"] == "mcd":
                assert row["used_nfe"] == 120
        # rows arrive sorted by algorithm, function, seed
        keys = [(r["algorithm"], r["function"], r["seed"]) for r in report.rows]
        assert keys == sorted(keys)

        svg = _read_bytes(out / "plots" / "sphere.svg").decode()
        assert svg.startswith("<svg ")
        assert "polyline" in svg
        assert svg.endswith("\n")
        assert not list(out.rglob("*.tmp"))

    def test_meta_records_the_resolved_config(self, tmp_path):
        config = _mini_config(tmp_path / "out")
        config.algorithms = ["mcd", "de"]
        config.trace_grid = [60, 120]
        run_grid(config)
        meta = {"algorithms": ["de", "mcd"], "functions": ["rastrigin", "sphere"], "dim": 4,
                "max_nfe": 120, "max_iter": 3, "repeats": 2, "base_seed": 11,
                "suite_seed": 5, "trace_grid": [60, 120], "tie_epsilon": 0.0,
                "record_timing": False, "de_pop_size": 8, "cc_pop_size": 8, "cc_groups": 2}
        assert _read_bytes(tmp_path / "out" / "meta.json").decode() == \
            json.dumps(meta, indent=2, sort_keys=True) + "\n"

    def test_report_reads_a_meta_without_the_late_keys(self, tmp_path):
        # a meta.json of the first format, before tie_epsilon and the
        # baseline settings were recorded, reports with their defaults
        out = tmp_path / "out"
        run_grid(_mini_config(out))
        before = _read_bytes(out / "summary.json")
        meta = json.loads(_read_bytes(out / "meta.json"))
        for key in ("record_timing", "tie_epsilon", "de_pop_size", "cc_pop_size", "cc_groups"):
            del meta[key]
        _write(out / "meta.json", json.dumps(meta))
        os.remove(out / "summary.json")
        report_from_dir(str(out))
        assert _read_bytes(out / "summary.json") == before

    def test_report_accepts_rows_in_any_order(self, tmp_path):
        out = tmp_path / "out"
        run_grid(_mini_config(out))
        before = _collect_outputs(out)
        header, *rows = _read_bytes(out / "results.csv").decode().splitlines(keepends=True)
        _write(out / "results.csv", header + "".join(reversed(rows)))
        report_from_dir(str(out))
        assert _collect_outputs(out)["summary.json"] == before["summary.json"]

    def test_unresolved_and_resolved_configs_run_the_same_grid(self, tmp_path):
        config = _mini_config(tmp_path / "written")
        config.algorithms = ["mcd", "de"]
        config.functions = ["all"]
        resolved = validate_config(config)
        resolved.output_dir = str(tmp_path / "resolved")
        run_grid(config)
        run_grid(resolved)
        assert output_digest(config.output_dir) == output_digest(resolved.output_dir)

    def test_report_resolves_a_hand_edited_meta(self, tmp_path):
        out = tmp_path / "out"
        config = _mini_config(out)
        config.algorithms = ["mcd", "de"]
        config.functions = ["all"]
        run_grid(config)
        before = _read_bytes(out / "summary.json")
        meta = json.loads(_read_bytes(out / "meta.json"))
        assert meta["algorithms"] == ["de", "mcd"] and len(meta["functions"]) == 8
        meta.update(algorithms=["mcd", "de"], functions=["all"], trace_grid=[])
        _write(out / "meta.json", json.dumps(meta))
        os.remove(out / "summary.json")
        report_from_dir(str(out))
        assert _read_bytes(out / "summary.json") == before

    def test_rerun_is_byte_identical(self, tmp_path):
        run_grid(_mini_config(tmp_path / "one"))
        run_grid(_mini_config(tmp_path / "two"))
        first = _collect_outputs(tmp_path / "one")
        second = _collect_outputs(tmp_path / "two")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_report_regenerates_byte_identically(self, tmp_path):
        out = tmp_path / "out"
        run_grid(_mini_config(out))
        before = _collect_outputs(out)
        os.remove(out / "summary.json")
        for name in os.listdir(out / "plots"):
            os.remove(out / "plots" / name)
        report_from_dir(str(out))
        after = _collect_outputs(out)
        assert before.keys() == after.keys()
        for name in before:
            assert before[name] == after[name], name

    def test_summary_is_self_consistent(self, tmp_path):
        out = tmp_path / "out"
        report = run_grid(_mini_config(out))
        with open(out / "summary.json", "r", encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["runs"] == 12
        for name in ("sphere", "rastrigin"):
            block = summary["aggregate"][name]
            for algorithm in ("mcd", "de", "cc"):
                errors = [row["final_error"] for row in report.rows
                          if row["function"] == name and row["algorithm"] == algorithm]
                assert block["mean_error"][algorithm] == float(np.mean(errors))
            for baseline in ("de", "cc"):
                expected = compute_iar(block["mean_error"][baseline],
                                       block["mean_error"]["mcd"])
                stored = block["iar"][baseline]
                if stored == "inf":
                    assert math.isinf(expected)
                    assert block["iar_flags"][baseline] == "zero-denominator"
                else:
                    assert stored == expected
                    assert block["iar_flags"][baseline] == "finite"
        for baseline in ("de", "cc"):
            counts = summary["wtl"][baseline]
            assert counts["wins"] + counts["ties"] + counts["losses"] == 2

    def test_traces_parse_and_respect_budget(self, tmp_path):
        out = tmp_path / "out"
        run_grid(_mini_config(out))
        for name in os.listdir(out / "traces"):
            lines = _read_bytes(out / "traces" / name).decode().splitlines()
            assert lines[0] == "nfe,best_value"
            rows = [line.split(",") for line in lines[1:]]
            counts = [int(r[0]) for r in rows]
            values = [float(r[1]) for r in rows]
            assert counts == sorted(counts)
            assert counts[-1] <= 120
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_rerun_over_fewer_functions_leaves_no_stale_outputs(self, tmp_path):
        out = tmp_path / "out"
        config = _mini_config(out)
        config.algorithms = ["mcd", "de"]
        config.functions = ["sphere", "ackley"]
        config.repeats = 1
        run_grid(config)
        kept = [out / "notes.txt", out / "traces" / "notes.csv", out / "plots" / "notes.png"]
        for path in kept:
            path.write_text("not a grid output\n")

        config.functions = ["sphere"]
        run_grid(config)
        assert not list(out.rglob("*ackley*"))
        assert all(path.read_text() == "not a grid output\n" for path in kept)
        # the digest covers every file under traces/ and plots/
        for path in kept[1:]:
            path.unlink()
        fresh = _mini_config(tmp_path / "fresh")
        fresh.algorithms = ["mcd", "de"]
        fresh.functions = ["sphere"]
        fresh.repeats = 1
        run_grid(fresh)
        assert output_digest(str(out)) == output_digest(fresh.output_dir)

    def test_timing_column_when_enabled(self, tmp_path):
        config = _mini_config(tmp_path / "out")
        config.algorithms = ["de"]
        config.functions = ["sphere"]
        config.repeats = 1
        config.record_timing = True
        report = run_grid(config)
        assert report.rows[0]["wall_ms"] != ""
        assert report.rows[0]["wall_ms"].isdigit()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return str(path)


class TestCli:
    def test_run_report_and_suite_round_trip(self, tmp_path, capsys):
        out = tmp_path / "out"
        config_path = _write(tmp_path / "grid.cfg",
                             VALID_CONFIG + f"output_dir = {out}\n")
        assert cli.main(["run", "--config", config_path]) == 0
        printed = capsys.readouterr().out
        assert "mcd vs de" in printed
        assert (out / "summary.json").is_file()

        assert cli.main(["report", "--in", str(out)]) == 0

        manifest_path = tmp_path / "suite.json"
        assert cli.main(["suite", "--dim", "4", "--seed", "3",
                         "--manifest", str(manifest_path)]) == 0
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert len(manifest["functions"]) == 8

    def test_config_error_exit_code(self, tmp_path):
        path = _write(tmp_path / "bad.cfg", "algorithms = de\nmystery = 1\n")
        assert cli.main(["run", "--config", path]) == 2

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "absent.cfg")
        assert cli.main(["run", "--config", path]) == 2
        assert f"config error: cannot read {path}: " in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9\nalgorithms = de\ndim = 4\nmax_nfe = 99\n"
                         + f"output_dir = {tmp_path / 'out'}\n".encode())
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["de_pop_size = 3", "cc_pop_size = 3",
                                      "cc_groups = 0"])
    def test_baseline_setting_error_exit_code(self, tmp_path, capsys, line):
        out = tmp_path / "out"
        path = _write(tmp_path / "grid.cfg",
                      "algorithms = de, cc\nfunctions = sphere\ndim = 4\n"
                      f"max_nfe = 99\n{line}\noutput_dir = {out}\n")
        assert cli.main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_error_exit_code(self, tmp_path):
        path = _write(tmp_path / "short.cfg",
                      "algorithms = mcd\ndim = 10\nmax_nfe = 100\nmax_iter = 10\n")
        assert cli.main(["run", "--config", path]) == 3

    def test_report_on_missing_directory(self, tmp_path):
        assert cli.main(["report", "--in", str(tmp_path / "nowhere")]) == 2

    DAMAGE_MESSAGES = {
        "mean overflow": "the mean final_error of de on sphere is not finite",
        "iar overflow": "an accuracy ratio to mcd on sphere is not finite",
        "results extra field": "line 2: cannot parse row",
        "results dim digits": "line 2: cannot parse row",
        "results max_nfe underscore": "line 2: cannot parse row",
        "results seed plus": "line 2: cannot parse row",
        "meta repeats huge": "results.csv must hold one row for each",
        "meta de_pop_size 3": "baseline setting",
        "results extra column": "expected the header algorithm,",
        "results wall_ms text": "line 2: cannot parse row",
        "results wall_ms leading zero": "line 2: cannot parse row",
        "trace nfe arabic digit": "cannot parse trace rows",
        "trace value space": "cannot parse trace rows",
        "trace nfe leading zero": "cannot parse trace rows",
        "trace crlf": "expected the header nfe,best_value",
        "results wall_ms untimed": "line 2: a row needs",
        "results wall_ms dropped": "line 2: a row needs",
        "trace value underscore": "cannot parse trace rows",
    }

    @pytest.mark.parametrize("damage", [
        "missing trace", "results header", "results number", "trace number",
        "meta json", "meta key", "meta not object", "meta types grid strings",
        "meta types grid scalar", "meta types dim float", "meta types repeats bool",
        "meta tie_epsilon string", "meta tie_epsilon negative", "meta tie_epsilon bool",
        "missing cell", "duplicate seed", "missing seed", "results not utf-8",
        "results nan", "results inf", "trace nan", "trace inf", "mean overflow",
        "trace mean overflow", "iar overflow", "algorithm path", "unknown function",
        "missing function", "missing algorithm", "row dim", "row max_nfe", "row used_nfe",
        "meta grid descending", "meta grid beyond budget", "meta dim zero",
        "meta unknown algorithm", "meta budget", "meta tie_epsilon huge",
        "trace beyond budget", "trace header only", "trace first nfe", "trace value rises",
        "trace nfe repeats", "trace last value", "trace last dropped", "results negative",
        "results short row", "results extra field", "results dim digits",
        "results max_nfe underscore", "results seed plus", "meta repeats huge",
        "meta de_pop_size 3", "results extra column", "results wall_ms text",
        "results wall_ms leading zero", "trace nfe arabic digit", "trace value space",
        "trace nfe leading zero", "trace crlf", "results wall_ms untimed",
        "results wall_ms dropped", "trace value underscore"])
    def test_report_on_damaged_directory(self, tmp_path, capsys, damage):
        config = _mini_config(tmp_path / "out")
        two_seeds = ("duplicate seed", "missing seed", "mean overflow", "trace mean overflow",
                     "iar overflow")
        if damage in ("missing cell", "missing function", "missing algorithm",
                      "meta budget") + two_seeds:
            config.algorithms = ["mcd", "de"]
            config.functions = ["sphere", "ackley"]
        else:
            config.algorithms = ["de"]
            config.functions = ["sphere"]
        config.repeats = 2 if damage in two_seeds else 1
        config.record_timing = damage == "results wall_ms dropped"
        run_grid(config)
        out = tmp_path / "out"
        results = out / "results.csv"
        trace = out / "traces" / "de__sphere__seed11.csv"
        meta = out / "meta.json"
        # a failed report must leave none of the files it derives: it removes
        # summary.json itself, and writes no chart
        for chart in (out / "plots").glob("*.svg"):
            os.remove(chart)
        if damage == "missing trace":
            os.remove(trace)
        elif damage == "results header":
            text = _read_bytes(results).decode()
            _write(results, text.replace("algorithm,", "algo,", 1))
        elif damage in ("results number", "results nan", "results inf"):
            lines = _read_bytes(results).decode().splitlines()
            fields = lines[1].split(",")
            fields[6] = {"results number": "not-a-number", "results nan": "nan",
                         "results inf": "inf"}[damage]
            _write(results, "\n".join([lines[0], ",".join(fields)]) + "\n")
        elif damage in ("trace number", "trace nan", "trace inf"):
            text = _read_bytes(trace).decode()
            value = {"trace number": "oops", "trace nan": "nan", "trace inf": "-inf"}[damage]
            _write(trace, text + f"121,{value}\n")
        elif damage == "meta json":
            _write(meta, "{oops")
        elif damage == "meta not object":
            _write(meta, "null")
        elif damage in ("missing function", "missing algorithm"):
            prefix = {"missing function": ("mcd,ackley,", "de,ackley,"),
                      "missing algorithm": ("mcd,",)}[damage]
            lines = _read_bytes(results).decode().splitlines(keepends=True)
            _write(results, "".join(l for l in lines if not l.startswith(prefix)))
        elif damage in ("row dim", "row max_nfe", "row used_nfe"):
            column, value = {"row dim": (2, "5"), "row max_nfe": (4, "121"),
                             "row used_nfe": (5, "1000000")}[damage]
            lines = _read_bytes(results).decode().splitlines()
            fields = lines[1].split(",")
            fields[column] = value
            _write(results, "\n".join([lines[0], ",".join(fields)]) + "\n")
        elif damage == "missing cell":
            lines = _read_bytes(results).decode().splitlines(keepends=True)
            _write(results, "".join(l for l in lines if not l.startswith("mcd,ackley,")))
        elif damage == "duplicate seed":
            lines = _read_bytes(results).decode().splitlines(keepends=True)
            seed11 = next(l for l in lines if l.startswith("de,sphere,4,11,"))
            _write(results, "".join(seed11 if l.startswith("de,sphere,4,12,") else l
                                    for l in lines))
        elif damage == "missing seed":
            lines = _read_bytes(results).decode().splitlines(keepends=True)
            _write(results, "".join(l for l in lines if not l.startswith("de,sphere,4,12,")))
        elif damage == "mean overflow":
            # each error is finite, but their sum is not
            lines = [l.split(",") for l in _read_bytes(results).decode().splitlines()]
            for fields in lines:
                if fields[:2] == ["de", "sphere"]:
                    fields[6] = "1.7e+308"
            _write(results, "".join(",".join(fields) + "\n" for fields in lines))
        elif damage == "iar overflow":
            # finite, nonzero means whose ratio overflows: not a zero denominator
            errors = {("mcd", "11"): "1e-10", ("mcd", "12"): "1e-10",
                      ("de", "11"): "1e+308", ("de", "12"): "1e+300"}
            lines = [l.split(",") for l in _read_bytes(results).decode().splitlines()]
            for fields in lines:
                if fields[1] == "sphere":
                    fields[6] = errors[fields[0], fields[3]]
            _write(results, "".join(",".join(fields) + "\n" for fields in lines))
        elif damage == "trace mean overflow":
            for seed in (11, 12):
                path = out / "traces" / f"de__sphere__seed{seed}.csv"
                lines = _read_bytes(path).decode().splitlines()
                _write(path, "".join(f"{l.split(',')[0]},1.7e308\n" if i else l + "\n"
                                     for i, l in enumerate(lines)))
        elif damage == "algorithm path":
            # a trace planted where the name leads, outside the directory
            os.makedirs(tmp_path / "outside")
            shutil.copy(trace, tmp_path / "outside" / "de__sphere__seed11.csv")
            _write(results, _read_bytes(results).decode().replace(
                "\nde,", "\n../../outside/de,"))
        elif damage == "unknown function":
            os.rename(trace, out / "traces" / "de__nosuch__seed11.csv")
            _write(results, _read_bytes(results).decode().replace(",sphere,", ",nosuch,"))
        elif damage in ("trace beyond budget", "trace header only", "trace first nfe",
                        "trace value rises", "trace nfe repeats", "trace last value",
                        "trace last dropped", "trace nfe arabic digit", "trace value space",
                        "trace nfe leading zero", "trace crlf", "trace value underscore"):
            # each breaks one rule of the evaluator's trace contract, or
            # keeps it in numbers or line ends that no run writes
            header, *rows = [l.split(",") for l in _read_bytes(trace).decode().splitlines()]
            end = "\r\n" if damage == "trace crlf" else "\n"
            if damage == "trace beyond budget":
                rows.append(["500", "0.5"])
            elif damage == "trace header only":
                rows = []
            elif damage == "trace first nfe":
                rows[0][0] = "2"
            elif damage == "trace value rises":
                rows[0][1] = "0.0"
            elif damage == "trace nfe repeats":
                rows[1][0] = rows[0][0]
            elif damage == "trace last value":
                rows[-1][1] = repr(float(rows[-1][1]) / 2)
            elif damage == "trace nfe arabic digit":
                rows[0][0] = "\u0661"
            elif damage == "trace value space":
                rows[0][1] = " " + rows[0][1]
            elif damage == "trace nfe leading zero":
                rows[0][0] = "01"
            elif damage == "trace value underscore":
                value = rows[0][1]
                rows[0][1] = f"{value[:3]}_{value[3:]}"
                assert float(rows[0][1]) == float(value)  # a digit separator
            elif damage == "trace last dropped":
                rows.pop()
            _write(trace, "".join(",".join(fields) + end for fields in [header] + rows))
        elif damage == "results negative":
            # the row and its trace agree, but no suite error is below 0
            lines = _read_bytes(results).decode().splitlines()
            fields = lines[1].split(",")
            fields[6] = "-1.0"
            _write(results, "\n".join([lines[0], ",".join(fields)]) + "\n")
            text = _read_bytes(trace).decode()
            _write(trace, text[:text.rindex(",") + 1] + "-1.0\n")
        elif damage == "results short row":
            # the row lacks its last field, wall_ms
            _write(results, _read_bytes(results).decode().replace(",\n", "\n"))
        elif damage == "results extra field":
            _write(results, _read_bytes(results).decode().replace(",\n", ",,extra\n"))
        elif damage == "results extra column":
            lines = _read_bytes(results).decode().splitlines()
            _write(results, "".join(l + (",x\n" if i else ",note\n")
                                    for i, l in enumerate(lines)))
        elif damage in ("results dim digits", "results max_nfe underscore",
                        "results seed plus", "results wall_ms text",
                        "results wall_ms leading zero", "results wall_ms untimed",
                        "results wall_ms dropped"):
            # each parses as its column's type, but no run of the config in
            # meta.json writes it so
            column, value = {"results dim digits": (2, "\u0664"),
                             "results max_nfe underscore": (4, "1_20"),
                             "results seed plus": (3, "+11"),
                             "results wall_ms text": (7, "abc"),
                             "results wall_ms leading zero": (7, "007"),
                             "results wall_ms untimed": (7, "12"),
                             "results wall_ms dropped": (7, "")}[damage]
            lines = _read_bytes(results).decode().splitlines()
            fields = lines[1].split(",")
            fields[column] = value
            _write(results, "\n".join([lines[0], ",".join(fields)]) + "\n")
        elif damage == "results not utf-8":
            # the last row's empty wall_ms field becomes the byte 0xe9
            results.write_bytes(_read_bytes(results)[:-1] + b"\xe9\n")
        else:
            fields = json.loads(_read_bytes(meta))
            if damage == "meta key":
                del fields["trace_grid"]
            elif damage == "meta types grid strings":
                fields["trace_grid"] = ["30", "60"]
            elif damage == "meta types grid scalar":
                fields["trace_grid"] = 5
            elif damage == "meta types dim float":
                fields["dim"] = 4.0
            elif damage == "meta tie_epsilon string":
                fields["tie_epsilon"] = "x"
            elif damage == "meta tie_epsilon negative":
                fields["tie_epsilon"] = -1
            elif damage == "meta tie_epsilon bool":
                fields["tie_epsilon"] = True
            elif damage == "meta tie_epsilon huge":
                fields["tie_epsilon"] = 10 ** 400  # an integer no float can hold
            elif damage == "meta grid descending":
                fields["trace_grid"] = fields["trace_grid"][::-1]
            elif damage == "meta grid beyond budget":
                fields["trace_grid"].append(121)
            elif damage == "meta dim zero":
                fields["dim"] = 0
            elif damage == "meta unknown algorithm":
                fields["algorithms"] = ["de", "pso"]
            elif damage == "meta budget":
                # too small for one mcd restart: a budget error, but exit 2 here
                fields["max_iter"] = 100
            elif damage == "meta repeats huge":
                # a grid of 10**9 cells, rejected before it is built
                fields["repeats"] = 10 ** 9
            elif damage == "meta de_pop_size 3":
                fields["de_pop_size"] = 3
            else:
                fields["repeats"] = True
            _write(meta, json.dumps(fields))
        assert cli.main(["report", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert self.DAMAGE_MESSAGES.get(damage, "") in err
        assert not (out / "summary.json").exists()
        assert not list((out / "plots").glob("*.svg"))

    def test_report_that_cannot_write_a_chart_leaves_no_summary(self, tmp_path, capsys):
        config = _mini_config(tmp_path / "out")
        config.algorithms = ["de"]
        run_grid(config)
        out = tmp_path / "out"
        before = _collect_outputs(out)
        shutil.rmtree(out / "plots")
        _write(out / "plots", "not a directory\n")
        assert cli.main(["report", "--in", str(out)]) == 2
        assert "file error" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        os.remove(out / "plots")
        assert cli.main(["report", "--in", str(out)]) == 0
        assert _collect_outputs(out) == before

    def test_failed_report_removes_the_summary_of_an_earlier_one(self, tmp_path, capsys):
        config = _mini_config(tmp_path / "out")
        config.algorithms = ["mcd", "de"]
        config.functions = ["sphere", "ackley"]
        run_grid(config)
        out = tmp_path / "out"
        assert cli.main(["report", "--in", str(out)]) == 0
        assert (out / "summary.json").is_file()
        trace = out / "traces" / "de__sphere__seed11.csv"
        _write(trace, _read_bytes(trace).decode() + "500,0.5\n")
        assert cli.main(["report", "--in", str(out)]) == 2
        assert "a trace must rise in nfe" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_report_on_traces_whose_mean_overflows(self, tmp_path, capsys):
        # each trace keeps the trace contract, but their first values
        # overflow their mean at the first checkpoint
        config = _mini_config(tmp_path / "out")
        config.algorithms = ["de"]
        config.functions = ["sphere"]
        run_grid(config)
        out = tmp_path / "out"
        shutil.rmtree(out / "plots")
        for seed in (11, 12):
            path = out / "traces" / f"de__sphere__seed{seed}.csv"
            header, _, rest = _read_bytes(path).decode().split("\n", 2)
            _write(path, f"{header}\n1,1.7e308\n{rest}")
        assert cli.main(["report", "--in", str(out)]) == 2
        assert "the mean trace of de on sphere is not finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not (out / "plots").exists()

    def test_crashed_rerun_leaves_a_directory_report_rejects(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = _mini_config(out)
        config.algorithms = ["mcd", "de"]
        config.functions = ["sphere", "ackley"]
        config.repeats = 1
        run_grid(config)
        assert cli.main(["report", "--in", str(out)]) == 0

        # a rerun of another experiment into the same directory dies in its
        # third cell, after two of its traces have replaced the first run's
        config.suite_seed = 9
        cells = []

        def dies_in_third_cell(*args):
            cells.append(args)
            if len(cells) == 3:
                raise KeyboardInterrupt
            return run_single(*args)

        monkeypatch.setattr(harness, "run_single", dies_in_third_cell)
        with pytest.raises(KeyboardInterrupt):
            run_grid(config)
        assert cli.main(["report", "--in", str(out)]) == 2
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("dim, code", [(1, 2), (4, 0)])
    def test_module_entry_point_exit_code(self, tmp_path, dim, code):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        manifest = tmp_path / "suite.json"
        done = subprocess.run(
            [sys.executable, "-m", "mcdopt.cli", "suite", "--dim", str(dim),
             "--manifest", str(manifest)],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        assert done.returncode == code, done.stderr
        assert manifest.is_file() == (code == 0)

    def test_suite_manifest_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "absent" / "x.json"
        assert cli.main(["suite", "--dim", "4", "--manifest", str(path)]) == 2
        assert "file error" in capsys.readouterr().err

    def test_output_dir_below_regular_file(self, tmp_path, capsys):
        blocker = _write(tmp_path / "blocker", "not a directory\n")
        config_path = _write(tmp_path / "grid.cfg",
                             VALID_CONFIG + f"output_dir = {blocker}/out\n")
        assert cli.main(["run", "--config", config_path]) == 2
        assert "file error" in capsys.readouterr().err

    def test_empty_output_dir_exit_code(self, tmp_path, monkeypatch, capsys):
        # an empty output_dir would clear and fill the working directory
        config_path = _write(tmp_path / "grid.cfg", VALID_CONFIG + "output_dir =\n")
        sentinel = _write(tmp_path / "meta.json", "not a grid\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", config_path]) == 2
        assert "output_dir must not be empty" in capsys.readouterr().err
        assert open(sentinel, encoding="utf-8").read() == "not a grid\n"
        assert sorted(os.listdir(tmp_path)) == ["grid.cfg", "meta.json"]

    def test_suite_dim_too_small(self, tmp_path):
        assert cli.main(["suite", "--dim", "1",
                         "--manifest", str(tmp_path / "m.json")]) == 2

    def test_missing_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2
