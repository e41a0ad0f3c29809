"""Tests for the benchmark's own arithmetic, checks and output contract.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from tracing import Tracer, layer_metrics, layer_self_times, traced

sys.path.insert(0, run.SRC)

from mcdopt import baselines, core, harness  # noqa: E402

TINY = {"algorithms": ["mcd", "de", "cc"], "functions": ["rastrigin", "sphere"],
        "cc_groups": 2, "dim": 4, "max_nfe": 80, "max_iter": 2, "repeats": 2}
TINY_CONFIG = run.grid_config(TINY, run.DEFAULT_SEED)


def _bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        wrapped_leaf()
        wrapped_leaf()
        clock.advance(0.5)

    def outer():
        wrapped_middle()
        clock.advance(3.0)

    wrapped_leaf = tracer.wrap("a.leaf", leaf)
    wrapped_middle = tracer.wrap("b.middle", middle)
    tracer.wrap("c.outer", outer)()

    stats = {name: s.as_list() for name, s in tracer.stats.items()}
    assert stats["a.leaf"] == [2, 2.0, 2.0, 0]
    assert stats["b.middle"] == [1, 4.5, 2.5, 0]
    assert stats["c.outer"] == [1, 7.5, 3.0, 0]
    assert sum(s[2] for s in stats.values()) == stats["c.outer"][1]


def test_failed_span_counts_an_error_and_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fails():
        clock.advance(1.0)
        raise core.BudgetExhausted("spent")

    wrapped = tracer.wrap("core.evaluate", fails)
    with pytest.raises(core.BudgetExhausted):
        tracer.wrap("harness.run_single", lambda: wrapped())()
    assert tracer.stats["core.evaluate"].as_list() == [1, 1.0, 1.0, 1]
    assert tracer.stats["harness.run_single"].as_list() == [1, 1.0, 0.0, 1]


def test_layer_self_times_plus_remainder_add_up_to_wall():
    stats = {"core.evaluate": [10, 3.0, 2.0, 0], "benchfns.evaluate": [10, 1.0, 1.0, 0],
             "harness.run_grid": [1, 4.5, 1.5, 0]}
    totals = layer_self_times(stats, 4.75)
    assert totals["core"] == 2.0 and totals["benchfns"] == 1.0 and totals["mcd"] == 0.0
    assert totals["remainder"] == pytest.approx(0.25)
    assert sum(totals.values()) == pytest.approx(4.75)


def test_percentile_and_sample_count():
    assert run.percentile([5, 1, 3, 2, 4], 50) == 3
    assert run.percentile(range(1, 12), 90) == 10
    assert run.percentile([1.0, 2.0], 25) == 1.25
    assert run.tail_percentile(8) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.describe([1.0, 2.0, 3.0]) == "median of 3"
    assert run.describe(list(range(100)), 2.0).startswith("median of 100, p90 178.2")


def test_seed_sets_suite_and_base_seeds():
    config = run.grid_config(run.WORKLOADS["grid-d100"], run.DEFAULT_SEED)
    assert (config["suite_seed"], config["base_seed"]) == (2026, 100)
    assert run.grid_config(TINY, 3)["base_seed"] == 103


def _tiny_grid(out_dir):
    config = harness.ExperimentConfig(**TINY_CONFIG, output_dir=str(out_dir))
    harness.run_grid(config)
    return harness.resolve_functions(config)


def test_check_rejects_a_tampered_trace(tmp_path):
    functions = _tiny_grid(tmp_path)
    assert checks.check_cells(str(tmp_path), TINY_CONFIG, functions) == {}
    before = checks.output_digest(str(tmp_path))

    path = tmp_path / "traces" / "de__sphere__seed101.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    nfe, value = lines[-1].split(",")
    lines[-1] = f"{nfe},{float(value) * 0.5!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    problems = checks.check_cells(str(tmp_path), TINY_CONFIG, functions)
    assert list(problems) == [("de", "sphere", 101)]
    assert "final error" in problems[("de", "sphere", 101)]
    assert checks.output_digest(str(tmp_path)) != before


def test_check_rejects_a_wrong_evaluation_count(tmp_path):
    functions = _tiny_grid(tmp_path)
    path = tmp_path / "results.csv"
    text = path.read_text(encoding="utf-8")
    row = next(line for line in text.splitlines() if line.startswith("mcd,rastrigin,4,100,"))
    fields = row.split(",")
    fields[5] = str(int(fields[5]) - 2)
    path.write_text(text.replace(row, ",".join(fields)), encoding="utf-8")
    problems = checks.check_cells(str(tmp_path), TINY_CONFIG, functions)
    assert list(problems) == [("mcd", "rastrigin", 100)]
    assert checks.expected_nfe("mcd", TINY) == 80 and checks.expected_nfe("cc", TINY) == 80


def test_traced_grid_writes_the_untraced_bytes_and_restores_the_patches(tmp_path):
    _tiny_grid(tmp_path / "plain")
    tracer = Tracer()
    originals = (harness.run_de, harness.run_cc, harness.convergence_svg,
                 core.BudgetedEvaluator.evaluate, baselines._generation_on)
    with traced(tracer):
        _tiny_grid(tmp_path / "traced")
    assert (harness.run_de, harness.run_cc, harness.convergence_svg,
            core.BudgetedEvaluator.evaluate, baselines._generation_on) == originals
    assert checks.output_digest(str(tmp_path / "plain")) == \
        checks.output_digest(str(tmp_path / "traced"))

    stats = {name: s.as_list() for name, s in tracer.stats.items()}
    cells = 2 * 2 * 3
    assert stats["harness.run_single"][0] == cells
    assert stats["harness.run_grid"][0] == 1
    for name in ("baselines.run_de", "baselines.run_cc", "svgplot.convergence_svg",
                 "benchfns.make_suite", "mcd.roi_step", "baselines.cc_cycle"):
        assert stats[name][0] > 0, name
    evaluations = cells * TINY["max_nfe"]
    exhausted = stats["core.evaluate"][3]
    assert stats["core.evaluate"][0] == evaluations + exhausted
    assert stats["benchfns.evaluate"][0] == evaluations
    assert 0 < tracer.replacements <= tracer.trials

    wall = stats["harness.run_grid"][1]
    metrics = layer_metrics(stats, tracer.trials, tracer.replacements, wall, wall, 1, 1)
    assert metrics["mcd.steps"][0] == 2 * 2 * TINY["max_nfe"] // 2
    assert metrics["trace.remainder_s"][0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_reports_every_named_metric(tmp_path, trace, section):
    outcome = run.measure(TINY, 0, 2, trace, None, str(tmp_path))
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == (36 if trace else 24)
    expected = {m["name"]: m["unit"] for m in _bench_spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        if name != "trace.remainder_s":
            assert metric["value"] > 0, name
    json.dumps(result)


def test_stored_digest_mismatch_fails_every_cell(tmp_path):
    result = run.measure(TINY, 0, 1, False, "0" * 64, str(tmp_path))["result"]
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_exits_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cells-d10", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 2
    assert done.stdout == b""
