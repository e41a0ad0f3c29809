"""Shared domain types: search boxes, candidates, budget-counted evaluation.

Each optimizer run builds one `BudgetedEvaluator` from its objective and
budget and spends every evaluation through it, so budget fairness lives in
exactly one place; the run's result hands over the evaluator's best
candidate and improvement trace. Bounds are checked once per evaluation: by
`BudgetedEvaluator`, or by the objective's own `evaluate` when its class
sets `checks_bounds = True` (as `BenchFunction` does).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class OptimizationError(Exception):
    """Base class for every error raised by this package."""


class BudgetExhausted(OptimizationError):
    """An evaluation was requested after the whole budget had been spent."""


class OutOfBox(OptimizationError):
    """A position violates the bounds of the search box."""


class NonFiniteValue(OptimizationError):
    """The objective returned NaN, which no value can be ranked against."""


class InsufficientBudget(OptimizationError):
    """The evaluation budget cannot fund even one unit of planned work."""


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Return a dedicated random generator for the pair (seed, stream name).

    Streams with different names are statistically independent even under the
    same seed, and the same (seed, name) pair always yields the same state, so
    each stochastic component of a run can be replayed in isolation.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *(int(w) for w in words)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class Box:
    """Axis-aligned search region with strictly ordered per-dimension bounds.

    A collapsed dimension (lower == upper) is rejected at construction; code
    that halves boxes is expected to stop touching a dimension before its
    width reaches floating-point resolution.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lower = np.array(lower, dtype=float, copy=True)
        upper = np.array(upper, dtype=float, copy=True)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if lower.size < 1:
            raise ValueError("a box needs at least one dimension")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must lie strictly below its upper bound")
        self.lower = lower
        self.upper = upper

    @property
    def dim(self) -> int:
        return self.lower.size

    def midpoint(self) -> np.ndarray:
        return self.lower + (self.upper - self.lower) / 2.0

    def contains(self, position) -> bool:
        p = np.asarray(position, dtype=float)
        if p.shape != self.lower.shape:
            return False
        return bool((p >= self.lower).all() and (p <= self.upper).all())

    def copy(self) -> "Box":
        return Box(self.lower, self.upper)

    def __repr__(self) -> str:
        return f"Box(dim={self.dim})"


@dataclass(eq=False)
class Candidate:
    """A point in the search box and the objective value at that position.

    The value is never stored speculatively: it is the result of actually
    evaluating the objective at this position.
    """

    position: np.ndarray
    value: float


class Objective:
    """Adapter giving a plain callable the full objective contract.

    Any object with `dim`, `box`, `optimum_value` and `evaluate(position)` is
    accepted wherever an objective is expected; this class is the cheapest way
    to build one from a function.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], box: Box,
                 optimum_value: Optional[float] = None, name: str = "objective"):
        self.fn = fn
        self.box = box
        self.optimum_value = optimum_value
        self.name = name

    @property
    def dim(self) -> int:
        return self.box.dim

    def evaluate(self, position) -> float:
        return float(self.fn(np.asarray(position, dtype=float)))


class BudgetedEvaluator:
    """Counts objective evaluations against a hard budget.

    Also tracks the best point seen and an improvement trace: one
    (nfe, best_value) entry per strict improvement, so the nfe column is
    strictly increasing and the value column strictly decreasing.

    Positions outside the objective's box raise OutOfBox and NaN values raise
    NonFiniteValue; neither is charged or recorded. An objective whose class
    sets `checks_bounds = True` raises OutOfBox from its own `evaluate`, so
    its positions are checked there instead of twice.
    """

    def __init__(self, objective, max_nfe: int):
        if max_nfe < 1:
            raise ValueError("max_nfe must be at least 1")
        self.objective = objective
        self.max_nfe = int(max_nfe)
        self.used_nfe = 0
        self.best: Optional[Candidate] = None
        self.trace: list[tuple[int, float]] = []
        self._check_bounds = not getattr(objective, "checks_bounds", False)

    @property
    def remaining(self) -> int:
        return self.max_nfe - self.used_nfe

    def evaluate(self, position) -> float:
        if self.used_nfe >= self.max_nfe:
            raise BudgetExhausted(f"evaluation budget of {self.max_nfe} already spent")
        p = np.asarray(position, dtype=float)
        if self._check_bounds and not self.objective.box.contains(p):
            raise OutOfBox("position lies outside the objective bounds")
        value = float(self.objective.evaluate(p))
        if math.isnan(value):
            raise NonFiniteValue("objective returned NaN")
        self.used_nfe += 1
        if self.best is None or value < self.best.value:
            self.best = Candidate(p.copy(), value)
            self.trace.append((self.used_nfe, value))
        return value
