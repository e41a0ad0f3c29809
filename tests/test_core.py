"""Tests for the shared domain types: boxes, named streams, objectives and the
budget-counting evaluator."""

import math

import numpy as np
import pytest

from mcdopt.core import (
    Box,
    BudgetedEvaluator,
    BudgetExhausted,
    NonFiniteValue,
    Objective,
    OutOfBox,
    named_stream,
)

from mcdopt import mcd
from mcdopt.baselines import run_cc, run_de
from mcdopt.benchfns import make_function

from helpers import PureBatched, Recorder, sphere_objective


class TestBox:
    def test_basic_properties(self):
        box = Box([-100.0, 0.0], [100.0, 50.0])
        assert box.dim == 2
        assert np.array_equal(box.upper - box.lower, [200.0, 50.0])
        assert np.array_equal(box.midpoint(), [0.0, 25.0])

    def test_midpoint_uses_half_width_form(self):
        box = Box([50.0], [100.0])
        assert box.midpoint()[0] == 75.0

    def test_rejects_collapsed_dimension(self):
        with pytest.raises(ValueError):
            Box([0.0, 1.0], [1.0, 1.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Box([2.0], [1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Box([0.0, 0.0], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Box([], [])

    def test_constructor_copies_input_arrays(self):
        lower = np.array([0.0])
        box = Box(lower, np.array([1.0]))
        lower[0] = -9.0
        assert box.lower[0] == 0.0


class TestNamedStream:
    def test_same_pair_replays(self):
        a = named_stream(42, "perm").random(8)
        b = named_stream(42, "perm").random(8)
        assert np.array_equal(a, b)

    def test_names_are_independent(self):
        a = named_stream(42, "perm").random(8)
        b = named_stream(42, "de-init").random(8)
        assert not np.array_equal(a, b)

    def test_seeds_are_independent(self):
        a = named_stream(1, "perm").random(8)
        b = named_stream(2, "perm").random(8)
        assert not np.array_equal(a, b)

    def test_returns_generator(self):
        assert isinstance(named_stream(0, "x"), np.random.Generator)

    @pytest.mark.parametrize("seed", [1.5, True, False, math.inf, -math.inf, math.nan, "1"])
    def test_rejects_seeds_that_are_no_whole_number(self, seed):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            named_stream(seed, "perm")

    def test_whole_seeds_keep_their_streams(self):
        a = named_stream(7, "perm").random(8)
        assert np.array_equal(named_stream(7.0, "perm").random(8), a)
        assert np.array_equal(named_stream(np.int64(7), "perm").random(8), a)
        # an integer enters as its low 64 bits
        assert np.array_equal(named_stream(7 + 2 ** 64, "perm").random(8), a)
        assert np.array_equal(named_stream(-1, "perm").random(8),
                              named_stream(2 ** 64 - 1, "perm").random(8))

    def test_run_with_an_infinite_seed_is_a_value_error(self):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            mcd.run(sphere_objective(1), 1, 100, math.inf)


class TestObjective:
    def test_adapter_contract(self):
        obj = Objective(lambda x: float(x.sum()), Box([0.0, 0.0], [1.0, 1.0]),
                        optimum_value=0.0, name="sum")
        assert obj.dim == 2
        assert obj.evaluate([0.25, 0.5]) == 0.75
        assert obj.optimum_value == 0.0
        assert obj.name == "sum"


class TestBudgetedEvaluator:
    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            BudgetedEvaluator(sphere_objective(2), 0)

    @pytest.mark.parametrize("max_nfe", [1.5, 3.5, 10.7, True, math.inf, -math.inf, math.nan,
                                         "10"])
    def test_rejects_budgets_that_are_no_whole_number(self, max_nfe):
        with pytest.raises(ValueError, match="max_nfe must be a whole number"):
            BudgetedEvaluator(sphere_objective(2), max_nfe)
        # a lane plan's counts follow the same rule; 3.5 lanes could never fill
        ev = BudgetedEvaluator(sphere_objective(2), 100)
        with pytest.raises(ValueError, match="count must be a whole number"):
            ev.plan_lanes(max_nfe, 3)
        with pytest.raises(ValueError, match="length must be a whole number"):
            ev.plan_lanes(2, max_nfe)
        ev.plan_lanes(2.0, 3)

    @pytest.mark.parametrize("run", [
        lambda obj, max_nfe: run_de(obj, max_nfe, 0),
        lambda obj, max_nfe: run_cc(obj, max_nfe, 0),
        lambda obj, max_nfe: mcd.run(obj, 1, max_nfe, 0)])
    def test_optimizers_reject_a_fractional_budget(self, run):
        with pytest.raises(ValueError, match="max_nfe must be a whole number"):
            run(sphere_objective(10), 60.9)

    def test_whole_numbers_of_other_types_are_taken_as_ints(self):
        for max_nfe in (10.0, np.int64(10), np.float64(10.0)):
            ev = BudgetedEvaluator(sphere_objective(2), max_nfe)
            assert ev.max_nfe == 10 and type(ev.max_nfe) is int

    def test_counts_each_call(self):
        ev = BudgetedEvaluator(sphere_objective(2), 10)
        assert ev.used_nfe == 0
        assert ev.evaluate(np.zeros(2)) == 0.0
        assert ev.used_nfe == 1
        assert ev.remaining == 9

    def test_trace_records_improvements_only(self):
        ev = BudgetedEvaluator(sphere_objective(1), 10)
        ev.evaluate([3.0])
        ev.evaluate([2.0])
        assert ev.trace == [(1, 9.0), (2, 4.0)]
        ev.evaluate([5.0])  # worse, no trace entry
        assert ev.trace == [(1, 9.0), (2, 4.0)]
        assert ev.best.value == 4.0

    def test_equal_value_does_not_extend_trace(self):
        ev = BudgetedEvaluator(sphere_objective(1), 10)
        ev.evaluate([2.0])
        ev.evaluate([-2.0])
        assert ev.trace == [(1, 4.0)]

    def test_budget_boundary(self):
        ev = BudgetedEvaluator(sphere_objective(1), 1)
        ev.evaluate([1.0])
        with pytest.raises(BudgetExhausted):
            ev.evaluate([1.0])
        assert ev.used_nfe == 1

    def test_out_of_box_rejected_without_spending(self):
        ev = BudgetedEvaluator(sphere_objective(2, low=-1.0, high=1.0), 5)
        with pytest.raises(OutOfBox):
            ev.evaluate([2.0, 0.0])
        assert ev.used_nfe == 0

    def test_duck_typed_objective_is_checked_before_it_is_called(self):
        recorder = Recorder(sphere_objective(2, low=-1.0, high=1.0))
        ev = BudgetedEvaluator(recorder, 5)
        for position in ([2.0, 0.0], [1.0000001, 0.0], np.zeros((1, 2)), np.zeros(3)):
            with pytest.raises(OutOfBox):
                ev.evaluate(position)
        assert recorder.calls == [] and ev.used_nfe == 0
        # the bounds themselves are inside the box
        assert ev.evaluate([1.0, -1.0]) == 2.0 and ev.used_nfe == 1

    def test_nan_first_value_rejected_without_spending(self):
        values = iter([math.nan, 1.0, 0.5])
        ev = BudgetedEvaluator(Objective(lambda p: next(values), Box([-1.0], [1.0])), 5)
        with pytest.raises(NonFiniteValue):
            ev.evaluate([0.0])
        assert ev.used_nfe == 0 and ev.best is None and ev.trace == []
        ev.evaluate([0.0])
        ev.evaluate([0.0])
        assert ev.trace == [(1, 1.0), (2, 0.5)]
        assert ev.best.value == 0.5

    def test_nan_later_value_leaves_best_and_trace(self):
        values = iter([1.0, math.nan, 0.5])
        ev = BudgetedEvaluator(Objective(lambda p: next(values), Box([-1.0], [1.0])), 5)
        ev.evaluate([0.0])
        with pytest.raises(NonFiniteValue):
            ev.evaluate([0.5])
        assert ev.used_nfe == 1 and ev.trace == [(1, 1.0)]
        assert ev.best.value == 1.0 and ev.best.position[0] == 0.0
        ev.evaluate([0.0])
        assert ev.trace == [(1, 1.0), (2, 0.5)]

    def test_infinite_values_are_ordered(self):
        values = iter([math.inf, 1.0, -math.inf, 0.0])
        ev = BudgetedEvaluator(Objective(lambda p: next(values), Box([-1.0], [1.0])), 5)
        for _ in range(4):
            ev.evaluate([0.0])
        assert ev.used_nfe == 4
        assert ev.trace == [(1, math.inf), (2, 1.0), (3, -math.inf)]

    def test_best_position_is_detached(self):
        ev = BudgetedEvaluator(sphere_objective(1), 5)
        p = np.array([3.0])
        ev.evaluate(p)
        p[0] = 0.0
        assert ev.best.position[0] == 3.0

    def test_replay_gives_identical_trace(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(-100.0, 100.0, size=(40, 3))
        first = BudgetedEvaluator(sphere_objective(3), 50)
        second = BudgetedEvaluator(sphere_objective(3), 50)
        for p in positions:
            first.evaluate(p)
        for p in positions:
            second.evaluate(p)
        assert first.trace == second.trace
        assert first.best.value == second.best.value

    def test_shadow_minimum_property(self):
        rng = np.random.default_rng(11)
        ev = BudgetedEvaluator(sphere_objective(4), 200)
        shadow = np.inf
        for _ in range(200):
            value = ev.evaluate(rng.uniform(-100.0, 100.0, size=4))
            shadow = min(shadow, value)
            assert ev.best.value == shadow
        assert ev.used_nfe == 200



def _lane_order(blocks, count):
    """The rows of lockstep blocks in lane order: every row lane 0 took, then
    every row of lane 1, and so on."""
    lanes = [[] for _ in range(count)]
    for block in blocks:
        rows = len(block) // count
        for k in range(count):
            lanes[k] += list(block[k * rows:(k + 1) * rows])
    return [row for lane in lanes for row in lane]


class TestEvaluateBatch:
    """The batched entry: one objective call per block, bookkeeping as if
    the rows had been evaluated one by one in sequential order."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_unplanned_block_counts_its_rows_in_order(self, batched):
        obj = sphere_objective(3) if not batched else PureBatched(sphere_objective(3))
        rng = np.random.default_rng(5)
        rows = rng.uniform(-100.0, 100.0, size=(30, 3))
        ev = BudgetedEvaluator(obj, 40)
        sequential = BudgetedEvaluator(sphere_objective(3), 40)
        ev.evaluate([50.0, 50.0, 50.0])
        sequential.evaluate([50.0, 50.0, 50.0])
        values = ev.evaluate_batch(rows[:12]) + ev.evaluate_batch(rows[12:])
        assert values == [sequential.evaluate(row) for row in rows]
        assert all(type(v) is float for v in values)
        assert ev.used_nfe == sequential.used_nfe == 31
        assert ev.trace == sequential.trace
        assert ev.best.position.tobytes() == sequential.best.position.tobytes()
        assert ev.best.value == sequential.best.value

    @pytest.mark.parametrize("seed", range(12))
    def test_planned_lanes_rebuild_the_sequential_trace(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 4))
        blocks_per_lane = int(rng.integers(1, 5))
        length = rows * blocks_per_lane
        obj = PureBatched(sphere_objective(2)) if seed % 2 else sphere_objective(2)
        ev = BudgetedEvaluator(obj, count * length + 7)
        sequential = BudgetedEvaluator(sphere_objective(2), count * length + 7)
        # a few evaluations before the lanes, so they start from a best
        for _ in range(int(rng.integers(0, 3))):
            p = rng.uniform(-100.0, 100.0, size=2)
            ev.evaluate(p)
            sequential.evaluate(p)
        ev.plan_lanes(count, length)
        blocks = [rng.uniform(-100.0, 100.0, size=(count * rows, 2)) * rng.uniform(0.1, 1.0)
                  for _ in range(blocks_per_lane)]
        for b, block in enumerate(blocks):
            before = (list(ev.trace), ev.best)
            ev.evaluate_batch(block)
            if b < blocks_per_lane - 1:
                # best and trace wait until every lane is full
                assert (ev.trace, ev.best) == before
        for row in _lane_order(blocks, count):
            sequential.evaluate(row)
        assert ev.used_nfe == sequential.used_nfe
        assert ev.trace == sequential.trace
        assert ev.best.position.tobytes() == sequential.best.position.tobytes()
        assert ev.best.value == sequential.best.value
        # the lanes are closed: a further block counts in row order again
        ev.evaluate_batch(np.zeros((1, 2)))
        sequential.evaluate(np.zeros(2))
        assert ev.trace == sequential.trace

    def test_lane_ties_keep_the_earlier_point(self):
        ev = BudgetedEvaluator(sphere_objective(1), 4)
        ev.plan_lanes(2, 2)
        ev.evaluate_batch([[3.0], [-3.0]])
        ev.evaluate_batch([[2.0], [-2.0]])
        assert ev.trace == [(1, 9.0), (2, 4.0)]
        assert ev.best.position.tolist() == [2.0]

    def test_nan_in_a_block_charges_nothing(self):
        values = iter([1.0, math.nan, 0.5])
        ev = BudgetedEvaluator(Objective(lambda p: next(values), Box([-1.0], [1.0])), 5)
        with pytest.raises(NonFiniteValue):
            ev.evaluate_batch(np.zeros((3, 1)))
        assert ev.used_nfe == 0 and ev.best is None and ev.trace == []

    def test_block_past_the_budget_charges_nothing(self):
        recorder = Recorder(sphere_objective(1))
        ev = BudgetedEvaluator(recorder, 3)
        ev.evaluate_batch([[1.0], [2.0]])
        with pytest.raises(BudgetExhausted):
            ev.evaluate_batch([[0.0], [0.5]])
        assert ev.used_nfe == 2 and len(recorder.calls) == 2

    def test_block_past_a_lane_charges_nothing(self):
        ev = BudgetedEvaluator(sphere_objective(1), 10)
        ev.plan_lanes(2, 1)
        with pytest.raises(BudgetExhausted):
            ev.evaluate_batch([[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="same rows"):
            ev.evaluate_batch([[1.0], [2.0], [3.0]])
        assert ev.used_nfe == 0

    def test_lane_plans_are_checked(self):
        ev = BudgetedEvaluator(sphere_objective(1), 10)
        with pytest.raises(BudgetExhausted):
            ev.plan_lanes(3, 4)
        with pytest.raises(ValueError):
            ev.plan_lanes(0, 4)
        ev.plan_lanes(2, 5)
        with pytest.raises(ValueError, match="not full yet"):
            ev.plan_lanes(1, 1)

    def test_lone_charges_wait_until_the_lanes_are_full(self):
        # charged in the middle of the plan, evaluate([1.0]) would be
        # evaluation 3, which lane 1's first row already stands for
        recorder = Recorder(sphere_objective(1))
        ev = BudgetedEvaluator(recorder, 5)
        ev.plan_lanes(2, 2)
        ev.evaluate_batch([[5.0], [4.0]])
        with pytest.raises(ValueError, match="not full yet"):
            ev.evaluate([1.0])
        with pytest.raises(ValueError, match="not full yet"):
            ev.commit([1.0], 1.0)
        assert ev.used_nfe == 2 and len(recorder.calls) == 2 and ev.trace == []
        ev.evaluate_batch([[3.0], [0.5]])
        assert ev.used_nfe == 4
        assert ev.trace == [(1, 25.0), (2, 9.0), (4, 0.25)]
        ev.evaluate([1.0])
        assert ev.used_nfe == 5 and ev.trace == [(1, 25.0), (2, 9.0), (4, 0.25)]

    @pytest.mark.parametrize("block", [
        [[0.0, 0.0], [2.0, 0.0]], [[0.0, math.nan]], [[0.0, 0.0, 0.0]], [0.0, 0.0],
        np.zeros((0, 2)), np.zeros((1, 1, 2)), 0.0])
    def test_duck_typed_block_is_checked_before_it_is_called(self, block):
        recorder = Recorder(sphere_objective(2, low=-1.0, high=1.0))
        ev = BudgetedEvaluator(recorder, 5)
        with pytest.raises(OutOfBox):
            ev.evaluate_batch(block)
        assert recorder.calls == [] and ev.used_nfe == 0 and ev.best is None

    def test_a_batch_of_the_wrong_length_is_refused(self):
        obj = PureBatched(sphere_objective(1))
        obj.evaluate_batch = lambda positions: [1.0]
        ev = BudgetedEvaluator(obj, 5)
        with pytest.raises(ValueError, match="returned shape"):
            ev.evaluate_batch([[0.0], [0.5]])
        assert ev.used_nfe == 0


class TestSpeculate:
    """Uncharged evaluation of a pure objective's block, and the commits that
    charge its rows one by one."""

    def test_speculated_rows_committed_in_order_equal_evaluate(self):
        rows = np.random.default_rng(3).uniform(-100.0, 100.0, size=(30, 3))
        ev = BudgetedEvaluator(PureBatched(sphere_objective(3)), 40)
        sequential = BudgetedEvaluator(sphere_objective(3), 40)
        values = ev.speculate(rows)
        assert all(type(v) is float for v in values)
        assert ev.speculated == 30
        assert ev.used_nfe == 0 and ev.best is None and ev.trace == []
        for row, value in zip(rows, values):
            assert ev.commit(row, value) == sequential.evaluate(row)
        assert ev.used_nfe == sequential.used_nfe == 30
        assert ev.trace == sequential.trace
        assert ev.best.position.tobytes() == sequential.best.position.tobytes()
        assert not np.shares_memory(ev.best.position, rows)

    def test_a_commit_past_the_budget_charges_nothing(self):
        ev = BudgetedEvaluator(PureBatched(sphere_objective(1)), 2)
        rows = [[3.0], [1.0], [0.0]]
        values = ev.speculate(rows)
        ev.commit(rows[0], values[0])
        ev.commit(rows[1], values[1])
        with pytest.raises(BudgetExhausted):
            ev.commit(rows[2], values[2])
        assert ev.used_nfe == 2
        assert ev.trace == [(1, 9.0), (2, 1.0)] and ev.best.value == 1.0

    def test_a_nan_is_speculated_but_not_committed(self):
        values = iter([math.nan, 4.0])
        ev = BudgetedEvaluator(PureBatched(Objective(lambda p: next(values),
                                                     Box([-1.0], [1.0]))), 5)
        speculated = ev.speculate([[0.5], [1.0]])
        assert math.isnan(speculated[0]) and speculated[1] == 4.0
        with pytest.raises(NonFiniteValue):
            ev.commit([0.5], speculated[0])
        assert ev.used_nfe == 0 and ev.best is None and ev.trace == []
        assert ev.commit([1.0], speculated[1]) == 4.0
        assert ev.trace == [(1, 4.0)]

    @pytest.mark.parametrize("block", [
        [[0.0, 0.0], [2.0, 0.0]], [[0.0, math.nan]], [[0.0, 0.0, 0.0]], [0.0, 0.0],
        np.zeros((0, 2)), np.zeros((1, 1, 2)), 0.0])
    def test_an_out_of_box_block_is_refused_before_it_is_called(self, block):
        obj = PureBatched(sphere_objective(2, low=-1.0, high=1.0))
        ev = BudgetedEvaluator(obj, 5)
        with pytest.raises(OutOfBox):
            ev.speculate(block)
        assert obj.batched == obj.evaluated == 0
        assert ev.speculated == ev.used_nfe == 0 and ev.best is None

    def test_a_suite_function_refuses_an_out_of_box_block_itself(self):
        ev = BudgetedEvaluator(make_function("sphere", 3, 0), 5)
        with pytest.raises(OutOfBox):
            ev.speculate([[0.0, 0.0, 0.0], [0.0, 101.0, 0.0]])
        assert ev.speculated == ev.used_nfe == 0

    def test_only_a_pure_objective_is_speculated(self):
        recorder = Recorder(sphere_objective(1))
        ev = BudgetedEvaluator(recorder, 5)
        with pytest.raises(ValueError, match="pure"):
            ev.speculate([[0.0]])
        assert recorder.calls == [] and ev.speculated == 0
