"""mcdopt grid benchmark: end-to-end and per-layer timings with output checks.

    python3 bench/run.py --workload grid-d100 --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each phase runs in a fresh Python process (worker.py).

`--trace 0` runs a fixed number of whole grids back to back, as many as fit
in `--seconds` at the workload's nominal grid time, so the work per run does
not depend on the speed of the code under test, and rebuilds the report
three times after each. Set-up is timed five times before the grids; after
them come six rounds of one set-up and three report rebuilds, each in a
fresh process. Spreading these short samples over the run keeps their
median from following one burst of load from other tenants of the machine.
It prints the end-to-end metrics.

`--trace 1` runs one grid inside the layer wrappers of tracing.py between
two untraced grids, and prints the per-layer metrics.

The seed sets the grid's `suite_seed` (2026 + seed) and `base_seed`
(100 + seed); seed 0 is the instance set and seeds of the acceptance sweep,
and its output digest must equal the one stored in digests.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` (cells run), `failed` (cells whose outputs failed a
check) and `metrics`. Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

from tracing import layer_metrics, layer_self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
SETUP_SAMPLES = 5
REPORTS_PER_GRID = 3
# after the grids: rounds of one set-up and REPORTS_PER_GRID report rebuilds,
# each in a fresh process, so both kinds of sample span several seconds
AFTER_ROUNDS = 6
PHASE_TIMEOUT_S = 170

_GRID = {"algorithms": ["mcd", "de", "cc"], "functions": ["all"], "cc_groups": 10}

# Why each workload exists is in README.md, with the layer table. grid-d1000
# is not in BENCHMARK.json: with only eight cells per algorithm in a run, its
# medians spread wider than any bound on a shared 2-core machine.
WORKLOADS = {
    "grid-d100": dict(_GRID, dim=100, max_nfe=10000, max_iter=10, repeats=1),
    "grid-d1000": dict(_GRID, dim=1000, max_nfe=10000, max_iter=5, repeats=1),
    "cells-d10": dict(_GRID, dim=10, max_nfe=400, max_iter=10, repeats=5),
}

# Seconds one grid of each workload takes at the seed commit on a 2-core
# Xeon; they fix how many grids a run of a given length makes.
NOMINAL_GRID_S = {"grid-d100": 15.0, "grid-d1000": 30.0, "cells-d10": 3.5}

ALGORITHMS = ("mcd", "de", "cc")


class BenchError(Exception):
    """The benchmark could not run at all (as opposed to a failed check)."""


def grid_config(workload: dict, seed: int) -> dict:
    """ExperimentConfig fields, except output_dir, for one workload and seed."""
    return dict(workload, suite_seed=2026 + seed, base_seed=100 + seed)


def percentile(values, p: float) -> float:
    """Linearly interpolated p-th percentile (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int):
    """Highest of p99, p95, p90, p75 with at least ten of n samples above it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def describe(values, scale: float = 1.0) -> str:
    """'median of n' plus the tail percentile the sample count supports."""
    text = f"median of {len(values)}"
    p = tail_percentile(len(values))
    if p is not None:
        text += f", p{p} {percentile(values, p) * scale:.4g}"
    return text


def fingerprint() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def _phase(phase: str, spec: dict) -> dict:
    """Run one worker phase in a fresh interpreter and return its JSON result."""
    spec = dict(spec, src=SRC)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), phase, json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=PHASE_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase exceeded {PHASE_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{phase} phase exited with code {done.returncode}")
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def _check_digests(grids: list, reference, label: str) -> None:
    """Fail every cell of a grid whose digest differs from the reference."""
    for grid in grids:
        if reference is not None and grid["digest"] != reference:
            _fail(grid, f"output digest differs from the {label}")


def _fail(grid: dict, problem: str) -> None:
    grid["failed"] = grid["cells"]
    grid["problems"].append(problem)


def _per_layer(config: dict, out_dir: str, expected_digest, lines: list):
    """A traced grid between two untraced ones; the per-layer metrics of the
    traced grid. Its overhead ratio is taken against the mean of the untraced
    walls, so a steady drift in machine speed cancels."""
    def untraced(name):
        return _phase("grid", {"config": config, "out": os.path.join(out_dir, name),
                               "grids": 1, "reports": 1, "trace": False})["grids"][0]

    before = untraced("before")
    traced = _phase("grid", {"config": config, "out": os.path.join(out_dir, "traced"),
                             "grids": 1, "reports": 1, "trace": True})
    after = untraced("after")
    grid = traced["grids"][0]
    _check_digests([grid, after], before["digest"], "untraced run")
    _check_digests([before, grid, after], expected_digest, "stored digest")
    plain_wall = (before["wall"] + after["wall"]) / 2.0
    metrics = layer_metrics(traced["stats"], traced["trials"], traced["replacements"],
                            grid["wall"], plain_wall, grid["files"], grid["bytes"])
    lines.append(f"traced grid {grid['wall']:.3f} s = layer self times + remainder:")
    for layer, value in layer_self_times(traced["stats"], grid["wall"]).items():
        lines.append(f"  {layer:<10} {value:10.4f} s {value / grid['wall']:7.1%}")
    return metrics, [before, grid, after]


def _end_to_end(config: dict, grid_count: int, out_dir: str, expected_digest,
                lines: list):
    """Set-up samples, the timed grids and report rebuilds; the end-to-end metrics."""
    # the first set-up compiles bytecode and fills file caches; not timed
    setups = [_phase("setup", {"config": config})["setup_s"]
              for _ in range(SETUP_SAMPLES + 1)][1:]
    plain = _phase("grid", {"config": config, "out": out_dir, "grids": grid_count,
                            "reports": REPORTS_PER_GRID, "trace": False})
    grids, cells, reports = plain["grids"], plain["cell_times"], plain["report_times"]
    last = os.path.join(out_dir, f"grid{grid_count - 1}")
    for _ in range(AFTER_ROUNDS):
        setups.append(_phase("setup", {"config": config})["setup_s"])
        rebuilt = _phase("report", {"out": last, "reports": REPORTS_PER_GRID})
        reports += rebuilt["report_times"]
        if not rebuilt["unchanged"]:
            _fail(grids[-1], "report rebuilt different summary.json or charts")
    _check_digests(grids, grids[0]["digest"], "first grid of this run")
    _check_digests(grids, expected_digest, "stored digest")

    walls = [g["wall"] for g in grids]
    evaluations = sum(c[2] for c in cells)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "grid_wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (evaluations / sum(c[1] for c in cells), "1/s"),
    }
    notes = {"setup_s": describe(setups), "grid_wall_s": describe(walls),
             "evals_per_s": f"{evaluations} evaluations in {len(cells)} cells"}
    for algorithm in ALGORITHMS:
        times = [c[1] for c in cells if c[0] == algorithm]
        name = f"{algorithm}_cell_ms"
        metrics[name] = (statistics.median(times) * 1e3, "ms")
        notes[name] = describe(times, 1e3)
    metrics["report_s"] = (statistics.median(reports), "s")
    notes["report_s"] = describe(reports)
    metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
    lines += [f"  {name:<16} {value:12.6g} {unit:<4} {notes.get(name, '')}"
              for name, (value, unit) in metrics.items()]
    return metrics, grids


def measure(workload: dict, seed: int, grid_count: int, trace: bool,
            expected_digest, out_dir: str = OUT) -> dict:
    """Run one workload; returns the result object plus a human-readable report."""
    config = grid_config(workload, seed)
    shutil.rmtree(out_dir, ignore_errors=True)
    lines: list[str] = []
    if trace:
        metrics, grids = _per_layer(config, out_dir, expected_digest, lines)
    else:
        metrics, grids = _end_to_end(config, grid_count, out_dir, expected_digest, lines)
    attempted = sum(g["cells"] for g in grids)
    failed = sum(g["failed"] for g in grids)
    for grid in grids:
        lines += [f"  FAILED {problem}" for problem in grid["problems"][:10]]
    lines.append(f"  digest {grids[0]['digest']}")
    lines.append(f"  cells attempted {attempted}, failed {failed}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mcdopt", "__init__.py")):
        print(f"error: no mcdopt package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    expected = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), "r", encoding="utf-8") as handle:
            expected = json.load(handle)[args.workload]

    workload = WORKLOADS[args.workload]
    config = grid_config(workload, args.seed)
    print(f"machine {json.dumps(fingerprint())}")
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(config)}")
    try:
        grid_count = max(1, round(args.seconds / NOMINAL_GRID_S[args.workload]))
        outcome = measure(workload, args.seed, grid_count, bool(args.trace),
                          expected, os.path.join(OUT, args.workload))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
