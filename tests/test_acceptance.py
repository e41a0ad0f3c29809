"""Acceptance gate: one test per primary criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a PASS summary visible under `-s`.
"""

import os
import time

import numpy as np

from mcdopt.baselines import DEConfig, _init_population, de_generation, delta_grouping
from mcdopt.benchfns import make_suite
from mcdopt.core import Box, BudgetedEvaluator, Objective, named_stream
from mcdopt.harness import ExperimentConfig, compute_iar, run_grid, run_single, tally_wtl
from mcdopt.mcd import fold, roi_step, run

from helpers import Recorder, chunked_by_delta, fold_1d, sphere_objective, straight_line_descent


def test_budget_exactness():
    """A completed run consumes exactly 2*D*max_iter*r_max evaluations."""
    cases = [(10, 10, 1000, 5), (100, 10, 10000, 5), (1000, 5, 10000, 1)]
    for dim, max_iter, max_nfe, expected_restarts in cases:
        started = time.perf_counter()
        outcome = run(sphere_objective(dim), max_iter, max_nfe, seed=1)
        elapsed = time.perf_counter() - started
        assert outcome.restarts == expected_restarts
        assert outcome.used_nfe == 2 * dim * max_iter * expected_restarts
        assert elapsed < 1.0
    print("PASS budget exactness: evaluation counts match 2*D*max_iter*r_max "
          "for budgets 1000/10000/10000 (restarts 5/5/1), each under 1 s")


def test_deterministic_fold_sequence():
    """1000-D sphere folds to f = 9765.625 exactly, for any permutation seed."""
    winners = fold_1d(lambda t: t * t, -100.0, 100.0, 5)
    assert winners == [50.0, 25.0, 12.5, 6.25, 3.125]
    expected = 1000 * 3.125 ** 2
    assert expected == 9765.625
    started = time.perf_counter()
    for seed in (0, 1, 2, 3, 4):
        outcome = run(sphere_objective(1000), max_iter=5, max_nfe=10000, seed=seed)
        assert outcome.restart_best.value == 9765.625
        assert np.all(outcome.restart_best.position == 3.125)
        assert outcome.used_nfe == 10000
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS deterministic fold: five seeds all end at 9765.625 exactly "
          f"({elapsed:.2f} s)")


def test_worked_example_transcript():
    """The 2-D example reproduces its full 8-evaluation transcript exactly."""
    fn = lambda p: (p[0] - 60.0) ** 2 + (p[1] + 20.0) ** 2
    obj = Objective(fn, Box([0.0, -100.0], [100.0, 100.0]), optimum_value=0.0)
    outcome = run(obj, max_iter=2, max_nfe=8, seed=0, permutations=[[0, 1]],
                  record_steps=True)
    expected = [
        ([25.0, 0.0], [75.0, 0.0], 1625.0, 625.0, False),
        ([75.0, -50.0], [75.0, 50.0], 1125.0, 5125.0, True),
        ([62.5, -50.0], [87.5, -50.0], 906.25, 1656.25, True),
        ([62.5, -75.0], [62.5, -25.0], 3031.25, 31.25, False),
    ]
    assert outcome.used_nfe == 8
    assert len(outcome.steps) == 4
    for step, (xp, yp, f_x, f_y, keep) in zip(outcome.steps, expected):
        assert step.x_position.tolist() == xp
        assert step.y_position.tolist() == yp
        assert step.f_x == f_x and step.f_y == f_y
        assert step.keep_lower == keep
    assert outcome.restart_best.position.tolist() == [62.5, -25.0]
    assert outcome.restart_best.value == 31.25
    print("PASS worked example: 8-evaluation transcript ends at S=(62.5, -25), "
          "f=31.25 exactly")


def test_geometric_shrinkage():
    """After k halving passes every width equals original/2^k (rel 1e-12)."""
    for dim in (1, 3, 50):
        lower = np.array([-50.0 - 3.0 * i for i in range(dim)])
        upper = np.array([70.0 + 2.0 * i for i in range(dim)])
        box = Box(lower, upper)
        shift = lower + 0.37 * (upper - lower)
        obj = Objective(lambda p: float((p - shift) @ (p - shift)), box)
        ev = BudgetedEvaluator(obj, 2 * dim * 10)
        work = box.copy()
        x = work.midpoint()
        original = box.upper - box.lower
        for k in range(1, 11):
            for i in range(dim):
                px, py, _, _, keep_lower = roi_step(work, x, i, ev)
                fold(work, i, keep_lower)
                x = px if keep_lower else py
            expected = original / 2.0 ** k
            width = work.upper - work.lower
            assert np.all(np.abs(width - expected) <= 1e-12 * expected)
    print("PASS geometric shrinkage: widths halve per pass for D in {1, 3, 50}, "
          "k up to 10, within relative 1e-12")


def test_accuracy_ratio_fixtures():
    """The two published accuracy-ratio values are reproduced within 1%."""
    first = compute_iar(4.17e10, 5.67e7)
    assert abs(first - 7.36e2) <= 0.01 * 7.36e2
    second = compute_iar(2.08e1, 2.85e0)
    assert abs(second - 7.31) <= 0.01 * 7.31
    print(f"PASS accuracy ratio fixtures: {first:.1f} within 1% of 736, "
          f"{second:.3f} within 1% of 7.31")


def test_straight_line_oracle_equivalence():
    """Probe-and-fold sequence matches a flat re-transcription, 100 seeds."""
    rng = np.random.default_rng(2025)
    started = time.perf_counter()
    for seed in range(100):
        dim = int(rng.integers(1, 4))
        max_iter = int(rng.integers(1, 5))
        lower = rng.uniform(-10.0, 0.0, size=dim)
        upper = lower + rng.uniform(0.5, 20.0, size=dim)
        target = lower + rng.uniform(0.1, 0.9, size=dim) * (upper - lower)
        weights = rng.uniform(0.1, 5.0, size=dim)
        couple = float(rng.uniform(-0.5, 0.5))

        def fn(p, t=target, w=weights, c=couple):
            z = p - t
            return float(w @ (z * z) + c * p[0] * p[-1])

        obj = Objective(fn, Box(lower, upper))
        per_restart = 2 * dim * max_iter
        restarts = int(rng.integers(1, 3))
        max_nfe = per_restart * restarts + int(rng.integers(0, per_restart))

        outcome = run(obj, max_iter, max_nfe, seed, record_steps=True)
        steps, (final_pos, final_val) = straight_line_descent(obj, max_iter,
                                                              max_nfe, seed)
        assert len(outcome.steps) == len(steps) == restarts * max_iter * dim
        for ours, ref in zip(outcome.steps, steps):
            assert ours.x_position.tolist() == ref["x"]
            assert ours.y_position.tolist() == ref["y"]
            assert ours.f_x == ref["f_x"] and ours.f_y == ref["f_y"]
            assert ours.keep_lower == ref["keep_lower"]
        assert outcome.restart_best.position.tolist() == final_pos
        assert outcome.restart_best.value == final_val
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS straight-line oracle: 100 seeded runs match step-for-step "
          f"({elapsed:.2f} s)")


def test_delta_grouping_oracle():
    """Grouping equals the independent sort-then-chunk oracle, 200 vectors."""
    rng = np.random.default_rng(404)
    for _ in range(200):
        d = int(rng.integers(1, 65))
        num_groups = int(rng.integers(1, min(d, 8) + 1))
        style = rng.integers(3)
        if style == 0:
            deltas = rng.uniform(0.0, 100.0, size=d)
        elif style == 1:
            deltas = rng.integers(0, 5, size=d).astype(float)  # heavy ties
        else:
            deltas = np.zeros(d)
        ours = [g.tolist() for g in delta_grouping(deltas, num_groups)]
        assert ours == chunked_by_delta(deltas, num_groups)
    print("PASS delta grouping oracle: 200 random vectors, exact agreement")


def test_de_generation_properties():
    """1000 generations: trials stay in the box, values never rise."""
    rng = np.random.default_rng(77)
    cfg = DEConfig(pop_size=8)
    generations = 0
    for case in range(10):
        dim = int(rng.integers(2, 6))
        lower = rng.uniform(-8.0, -1.0, size=dim)
        upper = rng.uniform(1.0, 6.0, size=dim)
        target = lower + rng.uniform(0.0, 1.0, size=dim) * (upper - lower)

        def fn(p, t=target):
            z = p - t
            return float(z @ z + 3.0 * np.sum(np.abs(z)))

        recorder = Recorder(Objective(fn, Box(lower, upper)))
        ev = BudgetedEvaluator(recorder, 8 + 100 * 8)
        population = _init_population(8, ev, named_stream(case, "de-init"))
        gen_rng = named_stream(case, "de-gen")
        for _ in range(100):
            before = [c.value for c in population]
            de_generation(population, cfg, ev, gen_rng)
            for cand, prior in zip(population, before):
                assert cand.value <= prior
            generations += 1
        for call in recorder.calls:
            assert np.all(call >= lower) and np.all(call <= upper)
    assert generations == 1000
    print("PASS rand/1/bin properties: 1000 generations, all trials in-box, "
          "per-slot values never increased")


SEPARABLE = ("ackley", "elliptic", "rastrigin", "sphere")


def test_directional_comparison_low_budget():
    """At D=100 with 100*D evaluations, the fold search beats rand/1/bin on
    every separable function and wins the suite overall."""
    started = time.perf_counter()
    suite = make_suite(100, 2026)
    seeds = range(100, 111)
    config = ExperimentConfig(algorithms=["mcd", "de"], dim=100, max_nfe=10000, max_iter=10)
    mean_errors = {"mcd": {}, "de": {}}
    for fn in suite:
        for algorithm in ("mcd", "de"):
            errors = [run_single(algorithm, fn, seed, config)[0]
                      for seed in seeds]
            mean_errors[algorithm][fn.name] = float(np.mean(errors))
    for name in SEPARABLE:
        assert mean_errors["mcd"][name] < mean_errors["de"][name], name
    names = sorted(fn.name for fn in suite)
    wins, ties, losses = tally_wtl([mean_errors["mcd"][n] for n in names],
                                   [mean_errors["de"][n] for n in names])
    assert wins > losses
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"PASS directional comparison: separable sweep 4/4, suite w/t/l "
          f"{wins}/{ties}/{losses}, {elapsed:.1f} s")


def test_suite_optimum_values():
    """Every suite function evaluates to at most 1e-9 at its optimum."""
    for dim in (2, 10, 100, 1000):
        for fn in make_suite(dim, 2026):
            assert abs(fn.evaluate(fn.optimum_position)) <= 1e-9
    print("PASS suite optima: |f(optimum)| <= 1e-9 for all 8 functions at "
          "D in {2, 10, 100, 1000}")


def test_byte_identical_reproduction(tmp_path):
    """The same config produces byte-identical tables and charts."""
    def config(out_dir):
        return ExperimentConfig(
            algorithms=["mcd", "de", "cc"],
            functions=["sphere", "schwefel12"],
            dim=4,
            max_nfe=120,
            max_iter=3,
            repeats=2,
            base_seed=7,
            suite_seed=3,
            de_pop_size=8,
            cc_pop_size=8,
            cc_groups=2,
            output_dir=str(out_dir),
        )

    run_grid(config(tmp_path / "one"))
    run_grid(config(tmp_path / "two"))

    def read(path):
        with open(path, "rb") as handle:
            return handle.read()

    compared = 0
    for name in ("results.csv", "summary.json"):
        assert read(tmp_path / "one" / name) == read(tmp_path / "two" / name)
        compared += 1
    for svg in sorted(os.listdir(tmp_path / "one" / "plots")):
        assert svg.endswith(".svg")
        assert read(tmp_path / "one" / "plots" / svg) \
            == read(tmp_path / "two" / "plots" / svg)
        compared += 1
    assert compared == 4
    print("PASS reproducibility: results.csv and every chart byte-identical "
          "across two runs")
