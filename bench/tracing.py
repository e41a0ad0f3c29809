"""Layer spans for the traced benchmark run, recorded from outside the program.

`traced(tracer)` replaces the public entry points of each mcdopt module with
timing wrappers for the duration of a `with` block. Each wrapper patches the
name its callers actually resolve: `harness` imports `make_suite`, `run_de`,
`run_cc` and `convergence_svg` by name, so those are patched on `harness`;
the evaluation layers are methods, so they are patched on their classes.
The wrappers only time and count, so a traced grid writes the same bytes as
an untraced one.

Spans are aggregated as they close (calls, total time, self time, errors per
span name) instead of being kept one by one: one D=100 grid makes about
720,000 evaluation-path spans. A span's self time is its duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("core", "benchfns", "mcd", "baselines", "harness", "svgplot")


class SpanStat:
    """Running totals for one span name."""

    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0

    def as_list(self) -> list:
        return [self.calls, self.total, self.self_time, self.errors]


class Tracer:
    """Times nested calls; one stack frame per open span holds its children's time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = {}
        self._stack: list[float] = []
        # population replacements and trials seen by DE/CC generations
        self.trials = 0
        self.replacements = 0

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def count_generation(self, fn):
        """Wrap a generation routine `fn(population, ..., ev, rng)` to count
        trials (evaluations spent) and replacements (population slots whose
        candidate object changed)."""

        def wrapper(population, coords, context, cfg, ev, rng):
            before = list(population)
            used = ev.used_nfe
            try:
                return fn(population, coords, context, cfg, ev, rng)
            finally:
                self.trials += ev.used_nfe - used
                self.replacements += sum(a is not b for a, b in zip(before, population))

        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Patch every traced mcdopt entry point for the duration of the block."""
    from mcdopt import baselines, benchfns, core, harness, mcd

    targets = [
        (core.BudgetedEvaluator, "evaluate", "core.evaluate"),
        (benchfns.BenchFunction, "evaluate", "benchfns.evaluate"),
        (benchfns.BenchFunction, "_base_value", "benchfns.base_value"),
        (harness, "make_suite", "benchfns.make_suite"),
        (mcd, "run", "mcd.run"),
        (mcd, "roi_step", "mcd.roi_step"),
        (mcd, "fold", "mcd.fold"),
        (harness, "run_de", "baselines.run_de"),
        (harness, "run_cc", "baselines.run_cc"),
        (baselines, "de_generation", "baselines.de_generation"),
        (baselines, "cc_cycle", "baselines.cc_cycle"),
        (harness, "run_grid", "harness.run_grid"),
        (harness, "run_single", "harness.run_single"),
        (harness, "report_from_dir", "harness.report_from_dir"),
        (harness, "convergence_svg", "svgplot.convergence_svg"),
    ]
    saved = []
    for owner, attr, name in targets:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))
    # both baselines run every generation through this one routine
    original = vars(baselines)["_generation_on"]
    saved.append((baselines, "_generation_on", original))
    baselines._generation_on = tracer.count_generation(original)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_self_times(stats: dict, wall: float) -> dict[str, float]:
    """Self seconds per layer, plus the remainder of `wall` no span covers.

    `stats` maps span name to [calls, total, self, errors]; a span's layer is
    the part of its name before the first dot.
    """
    totals = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_time, _) in stats.items():
        totals[name.split(".", 1)[0]] += self_time
    totals["remainder"] = wall - sum(totals.values())
    return totals


def layer_metrics(stats: dict, trials: int, replacements: int, wall: float,
                  untraced_wall: float, files: int, nbytes: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced grid, as name -> (value, unit)."""

    def column(name, index):
        return stats[name][index] if name in stats else 0

    def per_call(name, scale):
        # self time: spans without wrapped children have self == total
        calls = column(name, 0)
        return column(name, 2) / calls * scale if calls else 0.0

    layers = layer_self_times(stats, wall)
    metrics = {
        "core.evaluate_calls": (column("core.evaluate", 0), "count"),
        "core.budget_exhausted": (column("core.evaluate", 3), "count"),
        "core.evaluate_self_us": (per_call("core.evaluate", 1e6), "us"),
        "benchfns.evaluate_self_us": (per_call("benchfns.evaluate", 1e6), "us"),
        "benchfns.base_value_us": (per_call("benchfns.base_value", 1e6), "us"),
        "benchfns.make_suite_s": (per_call("benchfns.make_suite", 1.0), "s"),
        "mcd.roi_step_self_us": (per_call("mcd.roi_step", 1e6), "us"),
        "mcd.fold_us": (per_call("mcd.fold", 1e6), "us"),
        "mcd.run_self_ms": (per_call("mcd.run", 1e3), "ms"),
        "mcd.steps": (column("mcd.roi_step", 0), "count"),
        "baselines.de_generation_self_ms": (per_call("baselines.de_generation", 1e3), "ms"),
        "baselines.cc_cycle_self_ms": (per_call("baselines.cc_cycle", 1e3), "ms"),
        "baselines.trial_accept_ratio": (replacements / trials if trials else 0.0, "ratio"),
        "harness.write_s": (per_call("harness.run_grid", 1.0), "s"),
        "harness.files_written": (files, "count"),
        "harness.bytes_written": (nbytes, "B"),
        "harness.report_self_s": (per_call("harness.report_from_dir", 1.0), "s"),
        "svgplot.svg_ms": (per_call("svgplot.convergence_svg", 1e3), "ms"),
        "trace_overhead_ratio": (wall / untraced_wall, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.remainder_s": (layers.pop("remainder"), "s"),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    return metrics
