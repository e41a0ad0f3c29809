"""Correctness checks and the output digest of one grid results directory.

Per cell, `check_cells` requires:
- exactly one results.csv row per (algorithm, function, seed) of the grid;
- mcd spends exactly 2 * dim * max_iter * r_max evaluations, where r_max is
  the number of whole restarts the budget funds, and de/cc spend max_nfe;
- a finite final error of at least 0;
- a trace file whose evaluation counts strictly rise within the budget,
  whose values strictly fall, and whose last value is the final error
  (every suite optimum is 0).

The digest covers the byte-identical output set: results.csv, summary.json,
the traces and the charts.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os


def expected_cells(config: dict, functions: list[str]) -> list[tuple[str, str, int]]:
    return [(algorithm, name, config["base_seed"] + repeat)
            for algorithm in sorted(config["algorithms"])
            for name in sorted(functions)
            for repeat in range(config["repeats"])]


def expected_nfe(algorithm: str, config: dict) -> int:
    if algorithm == "mcd":
        per_restart = 2 * config["dim"] * config["max_iter"]
        return per_restart * (config["max_nfe"] // per_restart)
    return config["max_nfe"]


def _trace_problem(path: str, used_nfe: int, final_error: float):
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        return f"unreadable trace: {exc}"
    if not rows or rows[0] != ["nfe", "best_value"] or len(rows) < 2:
        return "trace has no header or no entries"
    try:
        entries = [(int(nfe), float(value)) for nfe, value in rows[1:]]
    except ValueError:
        return "trace entry does not parse"
    for (n0, v0), (n1, v1) in zip(entries, entries[1:]):
        if not (n1 > n0 and v1 < v0):
            return f"trace is not strictly improving at nfe {n1}"
    if entries[0][0] < 1 or entries[-1][0] > used_nfe:
        return "trace evaluation count outside the budget"
    if entries[-1][1] != final_error:
        return f"trace ends at {entries[-1][1]!r}, final error is {final_error!r}"
    return None


def check_cells(out_dir: str, config: dict, functions: list[str]) -> dict:
    """Map every failing cell (algorithm, function, seed) to its first problem."""
    cells = expected_cells(config, functions)
    problems = {}
    rows = {}
    try:
        with open(os.path.join(out_dir, "results.csv"), "r", encoding="utf-8",
                  newline="") as handle:
            for raw in csv.DictReader(handle):
                key = (raw["algorithm"], raw["function"], int(raw["seed"]))
                if key in rows:
                    problems[key] = "duplicate results row"
                rows[key] = raw
    except (OSError, KeyError, ValueError) as exc:
        return {cell: f"results.csv unreadable: {exc!r}" for cell in cells}
    for key in rows.keys() - set(cells):
        problems[key] = "unexpected results row"
    for cell in cells:
        if cell in problems:
            continue
        raw = rows.get(cell)
        if raw is None:
            problems[cell] = "missing results row"
            continue
        algorithm, name, seed = cell
        try:
            used = int(raw["used_nfe"])
            error = float(raw["final_error"])
        except ValueError:
            problems[cell] = "results row does not parse"
            continue
        if used != expected_nfe(algorithm, config):
            problems[cell] = f"used_nfe {used}, expected {expected_nfe(algorithm, config)}"
            continue
        if not (math.isfinite(error) and error >= 0.0):
            problems[cell] = f"final_error {error!r} is not a finite value >= 0"
            continue
        path = os.path.join(out_dir, "traces", f"{algorithm}__{name}__seed{seed}.csv")
        problem = _trace_problem(path, used, error)
        if problem:
            problems[cell] = problem
    return problems


def derived_files(out_dir: str) -> dict[str, bytes]:
    """The files `report` rebuilds: summary.json and every chart."""
    names = ["summary.json"]
    plots = os.path.join(out_dir, "plots")
    if os.path.isdir(plots):
        names += [f"plots/{name}" for name in sorted(os.listdir(plots))]
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as handle:
            out[name] = handle.read()
    return out


def output_digest(out_dir: str) -> str:
    """SHA-256 over results.csv, summary.json, traces/ and plots/, in name order."""
    names = ["results.csv", "summary.json"]
    for sub in ("traces", "plots"):
        names += [f"{sub}/{name}" for name in sorted(os.listdir(os.path.join(out_dir, sub)))]
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def written_totals(out_dir: str) -> tuple[int, int]:
    """(file count, byte count) of everything under `out_dir`."""
    files = nbytes = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            nbytes += os.path.getsize(os.path.join(root, name))
    return files, nbytes
