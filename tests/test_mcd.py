"""Tests for the folding coordinate-descent optimizer."""

import math

import numpy as np
import pytest

from mcdopt.benchfns import SUITE_NAMES, make_function
from mcdopt.core import Box, BudgetedEvaluator, InsufficientBudget, Objective, named_stream
from mcdopt.mcd import fold, restart_plan, roi_step, run

from helpers import fold_1d, sphere_objective, straight_line_descent, transcript_improvements


class TestRestartPlan:
    def test_known_budgets(self):
        assert restart_plan(10, 10, 1000) == 5
        assert restart_plan(100, 10, 10000) == 5
        assert restart_plan(1000, 5, 10000) == 1
        assert restart_plan(10, 10, 5000) == 25
        # leftover budget funds no extra restart
        assert restart_plan(10, 10, 1199) == 5

    def test_insufficient_budget(self):
        with pytest.raises(InsufficientBudget):
            restart_plan(1000, 5, 9999)
        with pytest.raises(InsufficientBudget,
                           match="needs at least 200 evaluations for dim 10 and max_iter 10"):
            restart_plan(10, 10, 199)

    @pytest.mark.parametrize("count", [0, -1, 1.5, True, math.inf, math.nan, "10"])
    def test_rejects_counts_that_are_not_whole_numbers_of_at_least_1(self, count):
        below = isinstance(count, int) and not isinstance(count, bool)
        calls = [("dim", lambda: restart_plan(count, 10, 100)),
                 ("max_iter", lambda: restart_plan(10, count, 100)),
                 ("max_nfe", lambda: restart_plan(10, 10, count)),
                 # run spends max_iter as an int, so True is no longer taken for 1
                 ("max_iter", lambda: run(sphere_objective(4), count, 400, 0))]
        for name, call in calls:
            rule = "must all be at least 1" if below else f"{name} must be a whole number"
            with pytest.raises(ValueError, match=rule):
                call()


class TestInitCenter:
    """Every restart starts from the box midpoint, which is never evaluated."""

    def test_symmetric_box(self):
        box = Box(np.full(4, -100.0), np.full(4, 100.0))
        assert np.array_equal(box.midpoint(), np.zeros(4))

    def test_asymmetric_box(self):
        box = Box([0.0, -100.0], [100.0, 100.0])
        assert np.array_equal(box.midpoint(), [50.0, 0.0])

    def test_large_box(self):
        box = Box(np.full(1000, -100.0), np.full(1000, 100.0))
        assert np.array_equal(box.midpoint(), np.zeros(1000))

    def test_candidates_are_detached(self):
        box = Box([0.0], [2.0])
        x = box.midpoint()
        x[0] = 9.0
        assert box.midpoint()[0] == 1.0

    def test_first_probe_of_every_restart_is_at_the_center(self):
        obj = sphere_objective(4, shift=np.array([10.0, -20.0, 30.0, -40.0]))
        outcome = run(obj, max_iter=1, max_nfe=24, seed=2, record_steps=True)
        assert outcome.restarts == 3
        assert outcome.used_nfe == 2 * len(outcome.steps)
        for r in range(3):
            first = [s for s in outcome.steps if s.restart == r][0]
            i = first.dim_index
            off = [j for j in range(4) if j != i]
            assert np.array_equal(first.x_position[off], np.zeros(3))
            assert np.array_equal(first.y_position[off], np.zeros(3))
            assert first.x_position[i] == -50.0 and first.y_position[i] == 50.0

    def test_asymmetric_first_probe(self):
        box = Box([0.0, -100.0], [100.0, 100.0])
        obj = Objective(lambda p: float(p @ p), box)
        outcome = run(obj, max_iter=1, max_nfe=4, seed=0, permutations=[[1, 0]],
                      record_steps=True)
        assert outcome.steps[0].x_position.tolist() == [50.0, -50.0]
        assert outcome.steps[0].y_position.tolist() == [50.0, 50.0]


class TestRestartOrderings:
    """Each restart takes its dimension ordering from the "perm" stream."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 33])
    def test_orderings_come_from_the_perm_stream(self, dim):
        # every iteration of a restart walks the ordering drawn for it
        outcome = run(sphere_objective(dim), max_iter=2, max_nfe=12 * dim, seed=3,
                      record_steps=True)
        rng = named_stream(3, "perm")
        drawn = [rng.permutation(dim).tolist() for _ in range(3)]
        walked = [[[s.dim_index for s in outcome.steps if (s.restart, s.iteration) == (r, it)]
                   for it in range(2)] for r in range(outcome.restarts)]
        assert walked == [[order, order] for order in drawn]
        assert all(sorted(order) == list(range(dim)) for order in drawn)

    def test_bad_pinned_ordering_costs_no_evaluation(self):
        calls = []

        def fn(p):
            calls.append(p.copy())
            return float(p @ p)

        obj = Objective(fn, Box([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match="restart 1: not a permutation of 0..1"):
            run(obj, max_iter=2, max_nfe=16, seed=0, permutations=[[0, 1], [0, 0]])
        assert calls == []


class TestRoiStep:
    def test_lower_half_wins(self):
        # values scripted by position of the probed coordinate
        table = {-50.0: 10.0, 50.0: 20.0}
        obj = Objective(lambda p: table[p[0]],
                        Box(np.full(4, -100.0), np.full(4, 100.0)))
        ev = BudgetedEvaluator(obj, 2)
        [(px, py, f_x, f_y, keep_lower)] = roi_step(
            [obj.box.lower], [obj.box.upper], obj.box.midpoint()[None], [0], ev)
        assert keep_lower is True
        assert np.array_equal(px, [-50.0, 0.0, 0.0, 0.0])
        assert f_x == 10.0
        assert f_y == 20.0
        assert ev.used_nfe == 2

    def test_upper_half_wins(self):
        obj = Objective(lambda p: (p[0] - 60.0) ** 2, Box([0.0], [100.0]))
        ev = BudgetedEvaluator(obj, 2)
        [(px, py, f_x, f_y, keep_lower)] = roi_step(
            [obj.box.lower], [obj.box.upper], obj.box.midpoint()[None], [0], ev)
        assert keep_lower is False
        assert py[0] == 75.0
        assert f_y == 225.0

    def test_tie_keeps_upper(self):
        obj = sphere_objective(1)
        ev = BudgetedEvaluator(obj, 2)
        [(px, py, f_x, f_y, keep_lower)] = roi_step(
            [obj.box.lower], [obj.box.upper], obj.box.midpoint()[None], [0], ev)
        # f(-50) == f(50) == 2500, strict-less branch selects the upper probe
        assert keep_lower is False
        assert py[0] == 50.0
        assert f_x == f_y == 2500.0

    def test_working_point_and_box_untouched(self):
        obj = Objective(lambda p: (p[0] - 60.0) ** 2 + p[1] ** 2,
                        Box([0.0, -4.0], [100.0, 4.0]))
        ev = BudgetedEvaluator(obj, 2)
        x = np.array([50.0, 1.5])
        [(px, py, _, _, _)] = roi_step([obj.box.lower], [obj.box.upper], x[None], [0], ev)
        assert x.tolist() == [50.0, 1.5]
        assert obj.box.lower.tolist() == [0.0, -4.0]
        assert obj.box.upper.tolist() == [100.0, 4.0]
        assert px.tolist() == [25.0, 1.5] and py.tolist() == [75.0, 1.5]

    def test_state_collapses_onto_winner(self):
        # the working point collapses onto the winner: the next step probes
        # around it, differing from it only in the newly probed coordinate
        obj = sphere_objective(3, shift=np.array([17.0, -41.0, 66.0]))
        outcome = run(obj, max_iter=3, max_nfe=18, seed=9, record_steps=True)
        for prev, step in zip(outcome.steps, outcome.steps[1:]):
            winner = prev.x_position if prev.keep_lower else prev.y_position
            off = [j for j in range(3) if j != step.dim_index]
            assert np.array_equal(step.x_position[off], winner[off])
            assert np.array_equal(step.y_position[off], winner[off])
        last = outcome.steps[-1]
        winner = last.x_position if last.keep_lower else last.y_position
        assert np.array_equal(outcome.restart_best.position, winner)
        assert outcome.restart_best.value == min(last.f_x, last.f_y)

    def test_winner_value_is_min_of_probes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            shift = rng.uniform(-80.0, 80.0, size=3)
            obj = sphere_objective(3, shift=shift)
            ev = BudgetedEvaluator(obj, 2)
            i = int(rng.integers(3))
            [(px, py, f_x, f_y, keep_lower)] = roi_step(
                [obj.box.lower], [obj.box.upper], obj.box.midpoint()[None], [i], ev)
            assert keep_lower == (f_x < f_y)
            assert (f_x if keep_lower else f_y) == min(f_x, f_y)


class TestFold:
    def test_keep_lower(self):
        box = Box([-100.0], [100.0])
        fold(box.lower, box.upper, 0, True)
        assert box.lower[0] == -100.0 and box.upper[0] == 0.0

    def test_keep_upper(self):
        box = Box([-100.0], [100.0])
        fold(box.lower, box.upper, 0, False)
        assert box.lower[0] == 0.0 and box.upper[0] == 100.0

    def test_offset_interval(self):
        box = Box([50.0], [100.0])
        fold(box.lower, box.upper, 0, True)
        assert box.lower[0] == 50.0 and box.upper[0] == 75.0

    def test_other_dimensions_untouched(self):
        box = Box([0.0, -8.0], [10.0, 8.0])
        fold(box.lower, box.upper, 0, False)
        assert box.lower[1] == -8.0 and box.upper[1] == 8.0

    def test_folds_in_place(self):
        box = Box([-100.0], [100.0])
        lower, upper = box.lower, box.upper
        assert fold(box.lower, box.upper, 0, True) is None
        assert box.lower is lower and box.upper is upper
        assert upper[0] == 0.0

    def test_width_exactly_halved(self):
        for i in (0, 1):
            for keep_lower in (True, False):
                box = Box([-3.0, 7.0], [5.0, 9.0])
                before = box.upper - box.lower
                fold(box.lower, box.upper, i, keep_lower)
                assert (box.upper - box.lower)[i] == before[i] / 2.0

    def test_resolution_floor_stops_folding(self):
        # midpoint of [1, 1 + 2^-52] rounds back onto the lower bound
        box = Box([1.0], [1.0 + 2.0 ** -52])
        fold(box.lower, box.upper, 0, True)
        assert box.lower[0] == 1.0
        assert box.upper[0] == 1.0 + 2.0 ** -52


def _oracle_objective(kind):
    if kind == "quadratic":
        fn = lambda p: (p[0] - 0.4) ** 2 + 2.0 * (p[1] + 1.1) ** 2 + 0.5 * p[0] * p[1]
        return Objective(fn, Box([-3.0, -4.0], [2.0, 1.5]), optimum_value=None)
    if kind == "sphere":
        return sphere_objective(5, shift=np.array([12.5, -3.25, 44.0, -60.0, 9.0]))
    return make_function(kind, 6, 11)


def _worked_objective():
    fn = lambda p: (p[0] - 60.0) ** 2 + (p[1] + 20.0) ** 2
    return Objective(fn, Box([0.0, -100.0], [100.0, 100.0]), optimum_value=0.0)


class TestRun:
    def test_worked_two_dim_transcript(self):
        outcome = run(_worked_objective(), max_iter=2, max_nfe=8, seed=0,
                      permutations=[[0, 1]], record_steps=True)
        expected = [
            # (x probe, y probe, f_x, f_y, keep_lower)
            ([25.0, 0.0], [75.0, 0.0], 1625.0, 625.0, False),
            ([75.0, -50.0], [75.0, 50.0], 1125.0, 5125.0, True),
            ([62.5, -50.0], [87.5, -50.0], 906.25, 1656.25, True),
            ([62.5, -75.0], [62.5, -25.0], 3031.25, 31.25, False),
        ]
        assert len(outcome.steps) == 4
        for step, (xp, yp, f_x, f_y, keep) in zip(outcome.steps, expected):
            assert np.array_equal(step.x_position, xp)
            assert np.array_equal(step.y_position, yp)
            assert step.f_x == f_x
            assert step.f_y == f_y
            assert step.keep_lower == keep
        assert np.array_equal(outcome.restart_best.position, [62.5, -25.0])
        assert outcome.restart_best.value == 31.25
        assert outcome.best.value == 31.25
        assert outcome.used_nfe == 8

    def test_one_dim_monotone_function(self):
        obj = Objective(lambda p: float(p[0]), Box([0.0], [1.0]), optimum_value=0.0)
        outcome = run(obj, max_iter=3, max_nfe=6, seed=4, record_steps=True)
        winners = [min(s.f_x, s.f_y) for s in outcome.steps]
        assert winners == [0.25, 0.125, 0.0625]
        assert outcome.restart_best.value == 0.0625
        assert outcome.best.value == 0.0625

    def test_evaluation_exactness_with_leftover(self):
        obj = sphere_objective(10)
        outcome = run(obj, max_iter=10, max_nfe=1050, seed=3)
        assert outcome.restarts == 5
        assert outcome.used_nfe == 1000

    def test_permutation_invariance_on_separable_sphere(self):
        # one restart, three halving passes per dimension
        values = []
        positions = []
        for seed in (0, 1, 2, 3):
            outcome = run(sphere_objective(10), max_iter=3, max_nfe=60, seed=seed)
            values.append(outcome.restart_best.value)
            positions.append(outcome.restart_best.position)
        assert len(set(values)) == 1
        for pos in positions[1:]:
            assert np.array_equal(pos, positions[0])
        # every coordinate follows the one-dimensional recursion
        winners = fold_1d(lambda t: t * t, -100.0, 100.0, 3)
        assert positions[0].tolist() == [winners[-1]] * 10
        assert values[0] == 10 * winners[-1] ** 2

    @pytest.mark.parametrize("restarts", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", ["quadratic", "sphere", *SUITE_NAMES])
    def test_matches_straight_line_oracle(self, kind, restarts):
        # the two plain objectives take the evaluator's row loop, the suite
        # functions their own evaluate_batch
        obj = _oracle_objective(kind)
        max_iter = 3
        per_restart = 2 * obj.dim * max_iter
        max_nfe = restarts * per_restart + per_restart // 2  # the rest stays unspent
        outcome = run(obj, max_iter=max_iter, max_nfe=max_nfe, seed=21, record_steps=True)
        steps, (final_pos, final_val) = straight_line_descent(obj, max_iter, max_nfe, 21)
        trace, (best_pos, best_val) = transcript_improvements(steps)
        assert outcome.restarts == restarts and outcome.used_nfe == 2 * len(steps)
        assert len(outcome.steps) == len(steps) == restarts * max_iter * obj.dim
        for ours, ref in zip(outcome.steps, steps):
            assert (ours.restart, ours.iteration, ours.dim_index) == \
                (ref["restart"], ref["iteration"], ref["dim"])
            assert ours.x_position.tolist() == ref["x"]
            assert ours.y_position.tolist() == ref["y"]
            assert ours.f_x.hex() == ref["f_x"].hex()
            assert ours.f_y.hex() == ref["f_y"].hex()
            assert ours.keep_lower == ref["keep_lower"]
        assert [(n, v.hex()) for n, v in outcome.trace] == [(n, v.hex()) for n, v in trace]
        assert outcome.best.position.tobytes() == np.array(best_pos).tobytes()
        assert outcome.best.value.hex() == best_val.hex()
        assert outcome.restart_best.position.tobytes() == np.array(final_pos).tobytes()
        assert outcome.restart_best.value.hex() == final_val.hex()

    def test_one_probe_block_per_step(self):
        blocks = []
        fn = make_function("rastrigin", 4, 2)

        class Counting:
            dim, box, optimum_value, checks_bounds = fn.dim, fn.box, 0.0, True
            evaluate = fn.evaluate

            def evaluate_batch(self, positions):
                blocks.append(len(positions))
                return fn.evaluate_batch(positions)

        outcome = run(Counting(), max_iter=2, max_nfe=5 * 16, seed=1)
        assert outcome.restarts == 5
        assert blocks == [10] * (2 * 4)
        assert outcome.trace == run(fn, max_iter=2, max_nfe=5 * 16, seed=1).trace

    def test_all_probes_inside_original_box(self):
        shift = np.array([31.0, -54.0, 7.0])
        obj = sphere_objective(3, shift=shift)
        outcome = run(obj, max_iter=4, max_nfe=48, seed=8, record_steps=True)
        for step in outcome.steps:
            for p in (step.x_position, step.y_position):
                assert p.shape == obj.box.lower.shape
                assert (obj.box.lower <= p).all() and (p <= obj.box.upper).all()

    def test_trace_values_non_increasing(self):
        obj = sphere_objective(5, shift=np.array([12.0, -3.0, 44.0, -60.0, 9.0]))
        outcome = run(obj, max_iter=4, max_nfe=120, seed=6)
        values = [v for _, v in outcome.trace]
        assert all(b < a for a, b in zip(values, values[1:]))
        counts = [n for n, _ in outcome.trace]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_restart_box_resets(self):
        # restarts 0 and 1 share a pinned ordering: identical transcripts are
        # only possible if restart 1 starts again from the full original box
        obj = sphere_objective(2)
        outcome = run(obj, max_iter=2, max_nfe=24, seed=5, record_steps=True,
                      permutations=[[0, 1], [0, 1], [1, 0]])
        assert outcome.restarts == 3
        first = [s for s in outcome.steps if s.restart == 0]
        second = [s for s in outcome.steps if s.restart == 1]
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            assert np.array_equal(a.x_position, b.x_position)
            assert np.array_equal(a.y_position, b.y_position)
            assert a.f_x == b.f_x and a.f_y == b.f_y
        # the sphere is separable, so the third restart's final winner agrees
        third = [s for s in outcome.steps if s.restart == 2]
        assert min(third[-1].f_x, third[-1].f_y) == outcome.restart_best.value

    def test_objective_box_never_folded(self):
        # each restart folds its own copy of the box in place
        obj = sphere_objective(3)
        run(obj, max_iter=3, max_nfe=36, seed=1)
        assert obj.box.lower.tolist() == [-100.0] * 3
        assert obj.box.upper.tolist() == [100.0] * 3

    def test_pinned_permutations_validation(self):
        obj = sphere_objective(2)
        with pytest.raises(ValueError):
            run(obj, max_iter=2, max_nfe=16, seed=0, permutations=[[0, 1]])  # needs 2
        with pytest.raises(ValueError):
            run(obj, max_iter=2, max_nfe=8, seed=0, permutations=[[0, 0]])
        # non-integer entries would be cast to the valid orderings [0, 1] and [1, 0]
        with pytest.raises(ValueError):
            run(obj, max_iter=2, max_nfe=8, seed=0, permutations=[[0.5, 1.7]])
        with pytest.raises(ValueError):
            run(obj, max_iter=2, max_nfe=8, seed=0, permutations=[[True, False]])
        # a bare index is no ordering, even of one dimension
        with pytest.raises(ValueError, match="restart 0: not a permutation of 0..0"):
            run(sphere_objective(1), max_iter=1, max_nfe=2, seed=0, permutations=[0])

    def test_insufficient_budget_propagates(self):
        with pytest.raises(InsufficientBudget):
            run(sphere_objective(10), max_iter=10, max_nfe=100, seed=0)

    def test_determinism_across_calls(self):
        obj = sphere_objective(3, shift=np.array([5.0, -2.0, 60.0]))
        a = run(obj, max_iter=3, max_nfe=36, seed=13)
        b = run(obj, max_iter=3, max_nfe=36, seed=13)
        assert a.restart_best.value == b.restart_best.value
        assert np.array_equal(a.restart_best.position, b.restart_best.position)
        assert a.trace == b.trace
