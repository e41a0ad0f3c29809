"""One benchmark phase in a fresh process; prints its result as one JSON line.

    python3 bench/worker.py setup '<spec json>'
    python3 bench/worker.py grid '<spec json>'
    python3 bench/worker.py report '<spec json>'

`setup` times `import mcdopt`, building the ExperimentConfig and
`make_suite`, starting before the package is imported. `grid` runs `grids`
whole grids with `harness.run_grid`, checks each one's outputs, and times
`report_from_dir` on the directory just written; with `"trace": true` it
runs one grid inside the layer wrappers of tracing.py instead. `report`
times `report_from_dir` on a directory a grid phase wrote.

The spec holds `src` (the directory holding the mcdopt package); `config`
(ExperimentConfig fields except output_dir) for `setup` and `grid`; `out`
and `reports` for `grid` and `report`; and `grids` and `trace` for `grid`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def setup_phase(spec: dict) -> dict:
    started = time.perf_counter()
    from mcdopt import harness
    from mcdopt.benchfns import make_suite

    config = harness.ExperimentConfig(**spec["config"])
    harness.validate_config(config)
    make_suite(config.dim, config.suite_seed)
    return {"setup_s": time.perf_counter() - started}


def _one_grid(harness, checks, config_fields: dict, out_dir: str, tracer=None) -> dict:
    """Run and check one grid; returns its wall time, digest and failures."""
    from tracing import traced

    config = harness.ExperimentConfig(**config_fields, output_dir=out_dir)
    functions = harness.resolve_functions(config)
    started = time.perf_counter()
    if tracer is None:
        harness.run_grid(config)
    else:
        with traced(tracer):
            harness.run_grid(config)
    wall = time.perf_counter() - started
    files, nbytes = checks.written_totals(out_dir)
    problems = checks.check_cells(out_dir, config_fields, functions)
    return {"wall": wall, "cells": len(checks.expected_cells(config_fields, functions)),
            "failed": len(problems),
            "problems": [f"{cell}: {why}" for cell, why in sorted(problems.items())],
            "digest": checks.output_digest(out_dir), "files": files, "bytes": nbytes}


def _rebuild_all(harness, checks, out_dir: str, count: int, times: list) -> bool:
    """Time `count` calls of `report_from_dir`; True when none of them changed
    the files it rebuilds."""
    written = checks.derived_files(out_dir)
    unchanged = True
    for _ in range(count):
        started = time.perf_counter()
        harness.report_from_dir(out_dir)
        times.append(time.perf_counter() - started)
        unchanged = unchanged and checks.derived_files(out_dir) == written
    return unchanged


def _check_rebuild(harness, checks, grid: dict, out_dir: str, count: int,
                   times: list) -> None:
    if not _rebuild_all(harness, checks, out_dir, count, times):
        grid["failed"] = grid["cells"]
        grid["problems"].append("report rebuilt different summary.json or charts")


def grid_phase(spec: dict) -> dict:
    import checks
    from mcdopt import harness
    from tracing import Tracer

    fields = spec["config"]
    report_times: list[float] = []
    if spec["trace"]:
        tracer = Tracer()
        grid = _one_grid(harness, checks, fields, spec["out"], tracer)
        _check_rebuild(harness, checks, grid, spec["out"], spec["reports"], report_times)
        return {"grids": [grid],
                "stats": {name: s.as_list() for name, s in tracer.stats.items()},
                "trials": tracer.trials, "replacements": tracer.replacements}

    # cell times come from the wall time run_single already measures and returns
    cell_times: list[list] = []
    run_single = harness.run_single

    def observed(algorithm, *args, **kwargs):
        result = run_single(algorithm, *args, **kwargs)
        cell_times.append([algorithm, result[3], result[1]])
        return result

    harness.run_single = observed
    grids = []
    for index in range(spec["grids"]):
        out_dir = os.path.join(spec["out"], f"grid{index}")
        grids.append(_one_grid(harness, checks, fields, out_dir))
        _check_rebuild(harness, checks, grids[-1], out_dir, spec["reports"], report_times)
    harness.run_single = run_single
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"grids": grids, "cell_times": cell_times, "report_times": report_times,
            "peak_rss_mb": peak_kb / 1024.0}


def report_phase(spec: dict) -> dict:
    import checks
    from mcdopt import harness

    times: list[float] = []
    # one untimed call first, so every sample is a repeated call as in `grid`
    unchanged = _rebuild_all(harness, checks, spec["out"], spec["reports"] + 1, times)
    return {"report_times": times[1:], "unchanged": unchanged}


PHASES = {"setup": setup_phase, "grid": grid_phase, "report": report_phase}


def main(argv) -> int:
    phase, spec = argv[1], json.loads(argv[2])
    sys.path.insert(0, spec["src"])
    result = PHASES[phase](spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
