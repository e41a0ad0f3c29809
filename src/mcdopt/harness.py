"""Experiment harness: metrics, config files, run grids, reports.

A grid run executes algorithm x function x repeat cells, each with a fresh
budgeted evaluator, and writes run-level rows (results.csv), per-run
improvement traces (traces/), the config it ran (meta.json), an aggregate
(summary.json) and one convergence chart per function (plots/). `report`
derives the summary and the charts from the other files alone, so it can
delete and byte-identically regenerate them at any time.

`run` writes each line through the one rule `report` reads it back with,
and ends each in a newline: results.csv holds `",".join(RESULT_COLUMNS)`,
then one `_result_line` per cell (the repr of each number, each text as
is); a trace holds TRACE_HEADER, then one `_trace_line`, `nfe,repr(value)`,
per improvement; meta.json holds every ExperimentConfig field but
output_dir, as the grid resolved it. Wall times are opt-in (`wall_ms` is
empty unless `record_timing = true`), so a rerun of the same config
reproduces every derived file byte for byte.

Every file is written to a temp file beside it and moved into place with
`os.replace`. results.csv is written last: a grid that dies part-way leaves
no results table (see `run_grid`), so `report` rejects the directory.
"""

from __future__ import annotations

import contextlib
import glob
import json
import math
import operator
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import repeat
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import mcd
from .baselines import CCConfig, DEConfig, run_cc, run_de
from .benchfns import SUITE_NAMES, make_suite
from .core import InsufficientBudget, OptimizationError
from .svgplot import convergence_svg

ALGORITHMS = ("mcd", "de", "cc")

ALGORITHM_COLORS = {"mcd": "#c0392b", "de": "#2471a3", "cc": "#1e8449"}

# the results.csv columns in order, each with the parser report_from_dir
# reads it with; wall_ms is empty or a count of milliseconds
_RESULT_TYPES = {"algorithm": str, "function": str, "dim": int, "seed": int,
                 "max_nfe": int, "used_nfe": int, "final_error": float,
                 "wall_ms": lambda text: text and str(abs(int(text)))}
RESULT_COLUMNS = tuple(_RESULT_TYPES)
TRACE_HEADER = "nfe,best_value"


def _result_line(row: dict) -> str:
    """The results.csv line of a row: each text as is, the repr of each number."""
    return ",".join(value if isinstance(value, str) else repr(value)
                    for value in map(row.__getitem__, RESULT_COLUMNS))


def _trace_line(nfe: int, value: float) -> str:
    return f"{nfe},{value!r}"


def _text(header: str, lines) -> str:
    return "".join(f"{line}\n" for line in (header, *lines))


def _lines(path: str, text: str, header: str) -> list[str]:
    """The lines of a text that `_text` wrote with `header`."""
    lines = text.split("\n")
    if lines[0] != header or lines.pop():
        raise ConfigError(f"{path}: expected the header {header} and a newline after each line")
    return lines[1:]


class ConfigError(OptimizationError):
    """A config file is malformed or describes an impossible experiment."""


class LengthMismatch(OptimizationError):
    """Paired error lists do not have the same length."""


def compute_iar(err_baseline: float, err_mcd: float) -> float:
    """Accuracy ratio of a baseline error to the coordinate-descent error.

    Values above 1 mean the coordinate-descent run ended closer to the
    optimum. A zero denominator yields +inf (flagged by the report writer
    rather than raising); two exact-zero errors count as a tie of 1. A ratio
    that overflows is inf as well, which the report writer rejects.
    """
    if err_mcd == 0.0:
        return 1.0 if err_baseline == 0.0 else math.inf
    return err_baseline / err_mcd


def tally_wtl(errors_mcd, errors_baseline, tie_epsilon: float = 0.0) -> tuple[int, int, int]:
    """Win/tie/loss counts from the coordinate-descent side, pairwise.

    With a positive tie_epsilon, errors within that relative distance of
    each other count as ties.
    """
    if len(errors_mcd) != len(errors_baseline):
        raise LengthMismatch(
            f"got {len(errors_mcd)} and {len(errors_baseline)} paired errors")
    wins = ties = losses = 0
    for ours, theirs in zip(errors_mcd, errors_baseline):
        if tie_epsilon > 0.0:
            scale = max(abs(ours), abs(theirs))
            if abs(ours - theirs) <= tie_epsilon * scale:
                ties += 1
                continue
        if ours < theirs:
            wins += 1
        elif ours == theirs:
            ties += 1
        else:
            losses += 1
    return wins, ties, losses


@dataclass
class ExperimentConfig:
    """One experiment grid: which algorithms meet which functions, and how."""

    algorithms: list[str]
    dim: int
    max_nfe: int
    functions: list[str] = field(default_factory=lambda: ["all"])
    max_iter: int = 10
    repeats: int = 1
    base_seed: int = 0
    suite_seed: int = 0
    trace_grid: list[int] = field(default_factory=list)
    output_dir: str = "results"
    # meta.json gained the fields below output_dir after its first format;
    # one without them reads back with their defaults
    record_timing: bool = False
    tie_epsilon: float = 0.0
    de_pop_size: int = DEConfig.pop_size
    cc_pop_size: int = CCConfig.pop_size
    cc_groups: int = CCConfig.num_groups


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered not in ("true", "false"):
        raise ValueError(value)
    return lowered == "true"


_PARSERS = {
    int: int, float: float, bool: _parse_bool, str: str,
    list[str]: lambda value: [item.strip() for item in value.split(",") if item.strip()],
    list[int]: lambda value: [int(item) for item in value.split(",") if item.strip()],
}

# the config schema is ExperimentConfig itself: one parser per field type,
# and the fields without a default are the required keys
_FIELD_TYPES = get_type_hints(ExperimentConfig)
_FIELD_PARSERS = {name: _PARSERS[kind] for name, kind in _FIELD_TYPES.items()}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig)
                  if f.default is MISSING and f.default_factory is MISSING]


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` config format (# starts a comment)."""
    raw: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {number}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {number}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {number}: duplicate key '{key}'")
        raw[key] = value

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    data: dict = {}
    for key, value in raw.items():
        try:
            data[key] = _FIELD_PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse value '{value}'") from None

    config = ExperimentConfig(**data)
    validate_config(config)
    return config


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, line endings untranslated (a CRLF stays a
    CRLF); a file that cannot be read or decoded is a ConfigError."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    return parse_config_text(_read_text(path))


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Structural checks first (ConfigError), then budget checks per algorithm
    (InsufficientBudget). Returns the grid it checked, resolved: the
    algorithms sorted, the sorted function list and the explicit trace grid."""
    if not config.algorithms:
        raise ConfigError("at least one algorithm is required")
    for algorithm in config.algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm '{algorithm}'")
    if len(set(config.algorithms)) != len(config.algorithms):
        raise ConfigError("duplicate algorithm")
    for key, least in (("dim", 2), ("repeats", 1), ("max_nfe", 1), ("max_iter", 1)):
        if getattr(config, key) < least:
            raise ConfigError(f"{key} must be at least {least}")
    names = config.functions
    if not names:
        raise ConfigError("at least one function is required")
    if names != ["all"]:
        for name in names:
            if name not in SUITE_NAMES:
                raise ConfigError(f"unknown function '{name}'")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate function")
    grid = config.trace_grid
    if grid and not (1 <= grid[0] and grid == sorted(grid) and grid[-1] <= config.max_nfe):
        raise ConfigError("trace_grid checkpoints must be positive, ascending and "
                          "at most max_nfe")
    # run_grid would clear and fill the working directory; "." still names it
    if not config.output_dir:
        raise ConfigError("output_dir must not be empty")
    # compared, not converted: a JSON integer may be too large for a float
    if not 0.0 <= config.tie_epsilon <= sys.float_info.max:
        raise ConfigError("tie_epsilon must be a finite number of at least 0")
    # the baseline settings follow the rules of the configs they build
    try:
        DEConfig(pop_size=config.de_pop_size)
        CCConfig(pop_size=config.cc_pop_size, num_groups=config.cc_groups)
    except ValueError as exc:
        raise ConfigError(f"baseline setting: {exc}") from None
    if "mcd" in config.algorithms:
        mcd.restart_plan(config.dim, config.max_iter, config.max_nfe)
    return replace(config, algorithms=sorted(config.algorithms),
                   functions=resolve_functions(config), trace_grid=resolve_trace_grid(config))


def resolve_functions(config: ExperimentConfig) -> list[str]:
    return sorted(SUITE_NAMES if config.functions == ["all"] else config.functions)


def resolve_trace_grid(config: ExperimentConfig) -> list[int]:
    if config.trace_grid:
        return list(config.trace_grid)
    step = max(1, config.max_nfe // 100)
    return list(range(step, config.max_nfe + 1, step))


def grid_cells(config: ExperimentConfig) -> list[tuple[str, str, int]]:
    """The (algorithm, function, seed) cells of a resolved grid in run order, which is sorted."""
    return [(algorithm, name, config.base_seed + repeat)
            for algorithm in config.algorithms
            for name in config.functions
            for repeat in range(config.repeats)]


def run_single(algorithm: str, fn, seed: int, config: ExperimentConfig):
    """Execute one grid cell; the optimizer spends the budget through its own
    fresh evaluator.

    Returns (final_error, used_nfe, trace, wall_seconds), where the final
    error is the best value found minus the function's optimum value; an
    objective without one (an optimum_value of None) is a ConfigError before
    the first evaluation.
    """
    if fn.optimum_value is None:
        raise ConfigError("the final error needs an objective with an optimum_value")
    started = time.perf_counter()
    if algorithm == "mcd":
        result = mcd.run(fn, config.max_iter, config.max_nfe, seed)
    elif algorithm == "de":
        result = run_de(fn, config.max_nfe, seed, DEConfig(pop_size=config.de_pop_size))
    elif algorithm == "cc":
        cc_cfg = CCConfig(pop_size=config.cc_pop_size,
                          num_groups=min(config.cc_groups, fn.dim))
        result = run_cc(fn, config.max_nfe, seed, cc_cfg)
    else:
        raise ConfigError(f"unknown algorithm '{algorithm}'")
    wall = time.perf_counter() - started
    return result.best.value - fn.optimum_value, result.used_nfe, result.trace, wall


@dataclass(eq=False)
class ExperimentReport:
    """The rows of one results directory and the files derived from them."""

    output_dir: str
    rows: list[dict]
    summary: dict                # the contents of summary.json
    summary_path: str
    plot_paths: list[str]


def _trace_filename(algorithm: str, function: str, seed: int) -> str:
    return f"{algorithm}__{function}__seed{seed}.csv"


def _write_text(path: str, text: str) -> None:
    """Write `text` to a temp file beside `path`, then move it into place, so
    `path` never holds a partly written file."""
    temp = f"{path}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


# meta.json records every config field but output_dir, as the grid resolved them
_NAMES = [f.name for f in fields(ExperimentConfig)]
_META_FIELDS = tuple(name for name in _NAMES if name != "output_dir")
_META_DEFAULTS = {n: getattr(ExperimentConfig, n) for n in _NAMES[_NAMES.index("output_dir") + 1:]}


def run_grid(config: ExperimentConfig) -> ExperimentReport:
    """Execute the whole grid and write every output file.

    Cells run sequentially in sorted (algorithm, function, seed) order, so
    the output never depends on scheduling. The previous results.csv,
    meta.json and summary.json, and every trace and chart named as this
    package names them, are removed before the first cell; other files are
    left alone. results.csv is written last.
    """
    config = validate_config(config)
    suite = {fn.name: fn for fn in make_suite(config.dim, config.suite_seed)}
    out_dir = config.output_dir
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    # until results.csv is written again, report_from_dir rejects the directory
    stale = [os.path.join(out_dir, name) for name in ("results.csv", "meta.json", "summary.json")]
    stale += glob.glob(os.path.join(glob.escape(traces_dir), _trace_filename("*", "*", "*")))
    stale += glob.glob(os.path.join(glob.escape(out_dir), "plots", "*.svg"))
    for path in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)

    rows = []
    for algorithm, name, seed in grid_cells(config):
        err, used, trace, wall = run_single(algorithm, suite[name], seed, config)
        wall_ms = str(int(round(wall * 1000.0))) if config.record_timing else ""
        rows.append(dict(zip(RESULT_COLUMNS, (algorithm, name, config.dim, seed,
                                              config.max_nfe, used, err, wall_ms))))
        _write_text(os.path.join(traces_dir, _trace_filename(algorithm, name, seed)),
                    _text(TRACE_HEADER, (_trace_line(*point) for point in trace)))

    meta = {key: getattr(config, key) for key in _META_FIELDS}
    _write_text(os.path.join(out_dir, "meta.json"),
                json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _write_text(os.path.join(out_dir, "results.csv"),
                _text(",".join(RESULT_COLUMNS), map(_result_line, rows)))
    return report_from_dir(out_dir)


def _read_results(out_dir: str, config: ExperimentConfig) -> list[dict]:
    """The typed rows of results.csv, each line as `_result_line` writes it."""
    path = os.path.join(out_dir, "results.csv")
    rows = []
    for number, line in enumerate(_lines(path, _read_text(path), ",".join(RESULT_COLUMNS)),
                                  start=2):
        try:
            row = {column: kind(value) for (column, kind), value
                   in zip(_RESULT_TYPES.items(), line.split(","), strict=True)}
            if _result_line(row) != line:
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}, line {number}: cannot parse row") from None
        # every suite optimum is 0 and every suite value at least 0
        if not (0.0 <= row["final_error"] < math.inf and 1 <= row["used_nfe"] <= row["max_nfe"]
                and (row["dim"], row["max_nfe"]) == (config.dim, config.max_nfe)
                and bool(row["wall_ms"]) == config.record_timing):
            raise ConfigError(f"{path}, line {number}: a row needs a final_error in [0, inf), "
                              "the dim and max_nfe of meta.json, used_nfe in 1..max_nfe "
                              "and a wall_ms exactly when meta.json's record_timing is true")
        rows.append(row)
    return rows


def _read_trace(out_dir: str, row: dict) -> tuple[list[int], list[float]]:
    """The improvement trace of one results row, held to the evaluator's trace
    contract: counts from 1 strictly rising to at most the row's used_nfe, and
    finite values strictly falling to the row's final_error (every suite
    optimum is 0). Its text must be ASCII without blanks, each count as
    `str` writes it and no `_` after the header; a value need only parse as
    a float, as a round trip of every value through `_trace_line` made a
    D=100 report about 40% slower."""
    path = os.path.join(out_dir, "traces",
                        _trace_filename(row["algorithm"], row["function"], row["seed"]))
    text = _read_text(path)
    lines = _lines(path, text, TRACE_HEADER)
    try:
        # no ASCII blank, which int() and float() strip, no digit separator
        # after the header, and one comma a line, so that the counts and the
        # values alternate
        if (not text.isascii() or any(map(text.__contains__, " \t\r\v\f"))
                or "_" in text[len(TRACE_HEADER):]
                or set(map(str.count, lines, repeat(","))) - {1}):
            raise ValueError
        fields = ",".join(lines).split(",") if lines else []
        counts = fields[0::2]
        nfes = list(map(int, counts))
        values = list(map(float, fields[1::2]))
        if list(map(str, nfes)) != counts:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{path}: cannot parse trace rows") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{path}: trace values must be finite")
    if not (nfes and nfes[0] == 1 and nfes[-1] <= row["used_nfe"]
            and values[-1] == row["final_error"]
            and all(map(operator.lt, nfes, nfes[1:]))
            and all(map(operator.gt, values, values[1:]))):
        raise ConfigError(f"{path}: a trace must rise in nfe from 1 to at most used_nfe "
                          "and fall in value to final_error")
    return nfes, values


def _json_is(value, kind) -> bool:
    """Whether a JSON value has the config field type `kind`. type() rather
    than isinstance(): a JSON true is a bool, not a count."""
    if get_origin(kind) is list:
        return type(value) is list and all(_json_is(v, get_args(kind)[0]) for v in value)
    return type(value) is kind or (kind is float and type(value) is int)


def _read_meta(out_dir: str) -> ExperimentConfig:
    """The config a grid recorded in meta.json, held to the rules of `run` and resolved."""
    path = os.path.join(out_dir, "meta.json")
    try:
        meta = json.loads(_read_text(path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    meta = {**_META_DEFAULTS, **meta}
    wrong = [key for key in _META_FIELDS if not _json_is(meta.get(key), _FIELD_TYPES[key])]
    if wrong:
        raise ConfigError(f"{path}: missing or mistyped keys {', '.join(wrong)}")
    try:
        return validate_config(ExperimentConfig(**{key: meta[key] for key in _META_FIELDS}))
    except InsufficientBudget as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _mean_trace(traces, grid) -> list[float]:
    """The mean over repeats of the traces' values at each checkpoint, bit for
    bit `float(np.mean(...))` of each checkpoint's values, in one reduction.

    A trace's value at a checkpoint is its last improvement at or before it;
    every trace starts at nfe 1 and every checkpoint is at least 1, so there
    is always one. The repeats lie along the contiguous last axis: numpy sums
    each row of it pairwise, as it sums one checkpoint's values alone.
    Reduced along the other axis, numpy adds the rows one at a time, which
    rounds differently from eight repeats up.
    """
    dense = np.empty((len(grid), len(traces)))
    for j, (nfes, values) in enumerate(traces):
        dense[:, j] = np.take(values, np.searchsorted(nfes, grid, side="right") - 1)
    return np.mean(dense, axis=1).tolist()


@np.errstate(over="ignore")  # an overflowing mean is a ConfigError, not a warning
def report_from_dir(out_dir: str) -> ExperimentReport:
    """Build summary.json and the per-function charts from the files in
    `out_dir`, returning the aggregate report. summary.json is removed first
    and written last, so a summary.json on disk means that a report finished;
    every input is read and checked against the config in meta.json before
    the first chart is written."""
    summary_path = os.path.join(out_dir, "summary.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)
    config = _read_meta(out_dir)
    rows = _read_results(out_dir, config)
    algorithms, functions, grid = config.algorithms, config.functions, config.trace_grid
    # each cell of the grid once, in any order; no name from results.csv
    # reaches a trace or chart path before this check, and the cells are
    # counted before a grid as large as meta.json may claim is built
    cells = sorted((row["algorithm"], row["function"], row["seed"]) for row in rows)
    if (len(cells) != len(algorithms) * len(functions) * config.repeats
            or cells != grid_cells(config)):
        raise ConfigError(f"{out_dir}: results.csv must hold one row for each "
                          "(algorithm, function, seed) of the grid in meta.json")
    buckets: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        buckets.setdefault((row["algorithm"], row["function"]), []).append(row)

    # mean final error per cell, repeats in file order
    mean_errors = {key: float(np.mean([row["final_error"] for row in cell]))
                   for key, cell in buckets.items()}
    # finite errors can still overflow their sum
    for (algorithm, name), mean in mean_errors.items():
        if not math.isfinite(mean):
            raise ConfigError(f"{out_dir}: the mean final_error of {algorithm} on "
                              f"{name} is not finite")
    baselines = [a for a in algorithms if a != "mcd"] if "mcd" in algorithms else []
    aggregate = {}
    for name in functions:
        ratios = {b: compute_iar(mean_errors[b, name], mean_errors["mcd", name])
                  for b in baselines}
        # an infinite ratio is flagged only for a zero mcd error; one that
        # overflows from nonzero means is as broken as an overflowing mean
        if any(map(math.isinf, ratios.values())) and mean_errors["mcd", name] != 0.0:
            raise ConfigError(f"{out_dir}: an accuracy ratio to mcd on {name} "
                              "is not finite")
        aggregate[name] = {
            "mean_error": {a: mean_errors[a, name] for a in algorithms},
            "iar": {b: "inf" if math.isinf(r) else r for b, r in ratios.items()},
            "iar_flags": {b: "zero-denominator" if math.isinf(r) else "finite"
                          for b, r in ratios.items()},
        }
    wtl = {}
    for baseline in baselines:
        wins, ties, losses = tally_wtl([mean_errors["mcd", name] for name in functions],
                                       [mean_errors[baseline, name] for name in functions],
                                       config.tie_epsilon)
        wtl[baseline] = {"wins": wins, "ties": ties, "losses": losses}

    summary = {"algorithms": algorithms, "functions": functions, "dim": config.dim,
               "max_nfe": config.max_nfe, "repeats": config.repeats, "runs": len(rows),
               "aggregate": aggregate, "wtl": wtl}
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    # read and check every trace before the first chart, so a damaged
    # directory gets none
    charts = {}
    for name in functions:
        series = []
        for algorithm in algorithms:
            traces = [_read_trace(out_dir, row)
                      for row in sorted(buckets[algorithm, name], key=lambda row: row["seed"])]
            points = [(float(checkpoint), mean)
                      for checkpoint, mean in zip(grid, _mean_trace(traces, grid))]
            if not all(math.isfinite(value) for _, value in points):
                raise ConfigError(f"{out_dir}: the mean trace of {algorithm} on "
                                  f"{name} is not finite")
            series.append((algorithm, ALGORITHM_COLORS[algorithm], points))
        charts[name] = convergence_svg(f"{name} (dim {config.dim})", series)

    os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
    plot_paths = [os.path.join(out_dir, "plots", f"{name}.svg") for name in charts]
    for path, text in zip(plot_paths, charts.values()):
        _write_text(path, text)
    _write_text(summary_path, summary_text)
    return ExperimentReport(output_dir=out_dir, rows=rows, summary=summary,
                            summary_path=summary_path, plot_paths=plot_paths)
