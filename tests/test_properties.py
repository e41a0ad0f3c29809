"""Property tests over random small budgets, dimensions and group counts,
over generated grid configs and over damaged results directories.

Hypothesis is derandomized, so every run checks the same examples; the
@example rows pin the edge cases: one group, one group per dimension, a
group count that does not divide the dimension, and a budget smaller than
the population (initialization is cut short and no generation runs).
"""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcdopt import cli, mcd
from mcdopt.benchfns import SUITE_NAMES
from mcdopt.harness import (ALGORITHMS, _META_FIELDS, ConfigError, ExperimentConfig,
                            load_config, run_grid)
from mcdopt.baselines import CCConfig, DEConfig, cc_cycle, cc_init, run_cc, run_de
from mcdopt.core import BudgetedEvaluator, InsufficientBudget, named_stream

from helpers import sphere_objective

SETTINGS = settings(derandomize=True, deadline=None)


def _objective(dim, seed):
    shift = np.random.default_rng(seed).uniform(-50.0, 50.0, size=dim)
    return sphere_objective(dim, shift=shift)


def _check_run(result, max_nfe):
    assert result.used_nfe == max_nfe
    nfes = [n for n, _ in result.trace]
    values = [v for _, v in result.trace]
    assert nfes[0] == 1
    assert all(b > a for a, b in zip(nfes, nfes[1:]))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.best.value == values[-1]


@st.composite
def cc_cases(draw):
    dim = draw(st.integers(1, 9))
    num_groups = draw(st.integers(1, dim))
    pop_size = draw(st.integers(4, 10))
    max_nfe = draw(st.integers(1, 120))
    seed = draw(st.integers(0, 2**16))
    return dim, num_groups, pop_size, max_nfe, seed


@SETTINGS
@given(dim=st.integers(1, 9), pop_size=st.integers(4, 10),
       max_nfe=st.integers(1, 120), seed=st.integers(0, 2**16))
@example(dim=3, pop_size=8, max_nfe=5, seed=0)
@example(dim=1, pop_size=4, max_nfe=4, seed=1)
def test_de_spends_exact_budget_with_monotone_trace(dim, pop_size, max_nfe, seed):
    result = run_de(_objective(dim, seed), max_nfe, seed, DEConfig(pop_size=pop_size))
    _check_run(result, max_nfe)


@SETTINGS
@given(cc_cases())
@example((6, 1, 5, 70, 0))     # one group holds every dimension
@example((5, 5, 4, 60, 1))     # one dimension per group
@example((7, 3, 6, 90, 2))     # 3 does not divide 7: the last group takes 3
@example((4, 2, 10, 7, 3))     # budget below the population size
def test_cc_spends_exact_budget_and_partitions_every_cycle(case):
    dim, num_groups, pop_size, max_nfe, seed = case
    objective = _objective(dim, seed)
    cfg = CCConfig(pop_size=pop_size, num_groups=num_groups)
    _check_run(run_cc(objective, max_nfe, seed, cfg), max_nfe)

    # the same run, cycle by cycle
    ev = BudgetedEvaluator(objective, max_nfe)
    state = cc_init(cfg, ev, named_stream(seed, "cc-init"))
    gen_rng = named_stream(seed, "cc-gen")
    size = dim // num_groups
    while ev.remaining > 0:
        cc_cycle(state, cfg, ev, gen_rng)
        groups = state.last_groups
        assert sorted(int(i) for g in groups for i in g) == list(range(dim))
        assert [len(g) for g in groups] == \
            [size] * (num_groups - 1) + [dim - size * (num_groups - 1)]
    assert ev.used_nfe == max_nfe


@SETTINGS
@given(dim=st.integers(1, 6), max_iter=st.integers(1, 4),
       extra=st.integers(0, 200), seed=st.integers(0, 2**16))
def test_mcd_spends_whole_restarts_with_monotone_trace(dim, max_iter, extra, seed):
    per_restart = 2 * dim * max_iter
    max_nfe = per_restart + extra
    outcome = mcd.run(_objective(dim, seed), max_iter, max_nfe, seed)
    _check_run(outcome, (max_nfe // per_restart) * per_restart)


# ---------------------------------------------------------------------------
# report over damaged directories


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid") / "out"
    run_grid(ExperimentConfig(algorithms=["mcd", "de"], functions=["sphere", "ackley"],
                              dim=4, max_nfe=120, max_iter=3, repeats=2, de_pop_size=8,
                              output_dir=str(out)))
    os.remove(out / "summary.json")
    shutil.rmtree(out / "plots")
    names = ["results.csv", "meta.json"] + sorted(
        os.path.join("traces", name) for name in os.listdir(out / "traces"))
    return out, names


def _damage(text, operation, at, to, value):
    """One edit of a file's lines: drop, duplicate or swap rows, set a
    comma-separated field, or cut the text short."""
    lines = text.splitlines(keepends=True)
    if operation == "truncate" or not lines:
        return text[:at % (len(text) + 1)]
    i, j = at % len(lines), to % len(lines)
    if operation == "drop":
        del lines[i]
    elif operation == "duplicate":
        lines.insert(j, lines[i])
    elif operation == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].rstrip("\n").split(",")
        fields[to % len(fields)] = value
        lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


damages = st.lists(st.tuples(
    st.integers(0, 9),  # results.csv, meta.json or one of the eight traces
    st.sampled_from(["drop", "duplicate", "swap", "set", "truncate"]),
    st.integers(0, 10**4), st.integers(0, 10**4),
    st.sampled_from(["1.7e308", "1.7e+308", "1e-320", "-1.0", "-0.0", "0", "+0", "\u0661",
                     "nan", "inf", "-inf", "", "x", "\u00e9", "../up", "500"])),
    min_size=1, max_size=3)


def _refuse(constant):
    raise ValueError(f"summary.json holds {constant}")


def _report(out_dir):
    """Exit code of `report`, and summary.json's text if it wrote one."""
    code = cli.main(["report", "--in", out_dir])
    path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(path):
        return code, None
    with open(path, "r", encoding="utf-8") as handle:
        return code, handle.read()


@settings(SETTINGS, max_examples=100)
@given(damages)
@example([(0, "set", 1, 6, "-1.0")])    # a negative final error
@example([(2, "set", 1, 0, "500")])     # a trace count beyond the budget
@example([(3, "truncate", 15, 0, "")])  # a trace cut to its header
@example([(0, "swap", 1, 2, "")])       # results rows in another order
def test_report_accepts_or_rejects_a_damaged_directory_whole(small_grid, tmp_path_factory,
                                                             edits):
    grid, names = small_grid
    out = str(tmp_path_factory.mktemp("damaged") / "out")
    shutil.copytree(grid, out)
    for index, operation, at, to, value in edits:
        path = os.path.join(out, names[index])
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(_damage(text, operation, at, to, value))

    _check_whole(out)


def _check_whole(out):
    """`report` exits 0 with strict JSON that a rerun rebuilds byte for byte,
    or exits 2 and writes nothing."""
    code, summary = _report(out)
    if code == 0:
        json.loads(summary, parse_constant=_refuse)
        os.remove(os.path.join(out, "summary.json"))
        assert _report(out) == (0, summary)
    else:
        assert (code, summary) == (2, None)
        assert not os.path.exists(os.path.join(out, "plots"))
    shutil.rmtree(out)


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 10**9), st.just(10**400),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(-1, 10**9), max_size=4),
    st.lists(st.sampled_from(sorted(SUITE_NAMES) + list(ALGORITHMS)), max_size=4))


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(_META_FIELDS), json_values)
@example("repeats", 10**9)           # a grid too large to build
@example("tie_epsilon", 10**400)     # an integer no float can hold
@example("functions", ["ackley", "sphere"])
def test_report_accepts_or_rejects_a_generated_meta_value_whole(small_grid, tmp_path_factory,
                                                                key, value):
    grid, _ = small_grid
    out = str(tmp_path_factory.mktemp("meta") / "out")
    shutil.copytree(grid, out)
    path = os.path.join(out, "meta.json")
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    meta[key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    _check_whole(out)


# ---------------------------------------------------------------------------
# run over generated configs


@st.composite
def grid_settings(draw):
    """The keys of a grid config file. Each optional key is left out or
    drawn, and each drawn key is, now and then, one `run` must reject."""
    def some(valid, invalid):
        return draw(st.sampled_from([valid] * 7 + [invalid]))

    def joined(names):
        return ", ".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                                       unique=True)))

    max_nfe = draw(st.integers(1, 200))
    grid = draw(st.lists(st.integers(1, max_nfe), unique=True, max_size=4).map(sorted))
    keys = {
        "algorithms": some(joined(ALGORITHMS), "mcd, pso"),
        "dim": some(draw(st.integers(2, 6)), 1),
        "max_nfe": max_nfe,
        "functions": some(joined(sorted(SUITE_NAMES) + ["all"]), "sphere, sphere"),
        "max_iter": some(draw(st.integers(1, 4)), 0),
        "repeats": some(draw(st.integers(1, 2)), 0),
        "base_seed": draw(st.integers(0, 3)),
        "suite_seed": draw(st.integers(0, 3)),
        "trace_grid": some(", ".join(map(str, grid)), max_nfe + 1),
        "record_timing": some(draw(st.sampled_from(["true", "false"])), "yes"),
        "tie_epsilon": some(draw(st.sampled_from(["0", "0.25", "1e-9"])), "nan"),
        "de_pop_size": some(draw(st.integers(4, 9)), 3),
        "cc_pop_size": some(draw(st.integers(4, 9)), 3),
        "cc_groups": some(draw(st.integers(1, 7)), 0),
    }
    required = ("algorithms", "dim", "max_nfe")
    optional = draw(st.sets(st.sampled_from([key for key in keys if key not in required])))
    return {key: value for key, value in keys.items() if key in required or key in optional}


@settings(SETTINGS, max_examples=50)
@given(grid_settings())
@example({"algorithms": "mcd, de, cc", "dim": 6, "max_nfe": 200, "functions": "all",
          "repeats": 2, "max_iter": 4, "record_timing": "true"})  # the largest grid
@example({"algorithms": "mcd", "dim": 6, "max_nfe": 47, "max_iter": 4})  # a budget error
def test_run_exits_with_a_documented_code_over_generated_configs(tmp_path_factory, grid):
    """`run` exits 0, 2 or 3 and never raises: 2 or 3 exactly when the config
    breaks a grid or budget rule, and 0 with a directory `report` reads back."""
    top = tmp_path_factory.mktemp("run")
    grid = dict(grid, output_dir=str(top / "out"))
    path = top / "grid.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in grid.items()),
                    encoding="utf-8")
    try:
        load_config(str(path))
        expected = 0
    except ConfigError:
        expected = 2
    except InsufficientBudget:
        expected = 3
    code = cli.main(["run", "--config", str(path)])
    assert code == expected
    if code == 0:
        os.remove(top / "out" / "summary.json")
        assert cli.main(["report", "--in", str(top / "out")]) == 0
    shutil.rmtree(top)
