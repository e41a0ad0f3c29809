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

from helpers import Recorder, sphere_objective


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

    def test_contains_includes_bounds(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        assert box.contains([1.0, -1.0])
        assert box.contains([0.0, 0.0])
        assert not box.contains([1.0000001, 0.0])
        assert not box.contains([0.0])

    def test_copy_is_independent(self):
        box = Box([0.0], [1.0])
        other = box.copy()
        other.lower[0] = -5.0
        assert box.lower[0] == 0.0

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
        with pytest.raises(OutOfBox):
            ev.evaluate([2.0, 0.0])
        assert recorder.calls == [] and ev.used_nfe == 0

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

