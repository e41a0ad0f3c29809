"""Shared domain types: search boxes, candidates, budget-counted evaluation.

Each optimizer run builds one `BudgetedEvaluator` from its objective and
budget and spends every evaluation through it, so budget fairness lives in
exactly one place; the run's result hands over the evaluator's best
candidate and improvement trace. Bounds are checked once per evaluation: by
`BudgetedEvaluator._block`, on a block or one position as a one-row block,
or by the objective's own `evaluate` (and `evaluate_batch`) when its class
sets `checks_bounds = True` (as `BenchFunction` does). An objective whose
class sets `pure = True` (as `BenchFunction` does) may also be evaluated
ahead of charging: the evaluator returns a block's values uncharged, and
each row counts only when it is committed. A budget, a lane plan's counts and
a stream seed follow one whole-number rule, `_whole_number`.
"""

from __future__ import annotations

import hashlib
import math
import numbers
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


def _whole_number(value, name: str, least: Optional[int] = None) -> int:
    """`value` as an int: an integer or a finite float with no fraction, not
    below `least` when one is given. A bool, a fraction, a non-finite number,
    a string or a value below `least` raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral)
            or (math.isfinite(value) and value == math.floor(value))):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Return a dedicated random generator for the pair (seed, stream name).

    Streams with different names are statistically independent even under the
    same seed, and the same (seed, name) pair always yields the same state, so
    each stochastic component of a run can be replayed in isolation. The seed
    must be a whole number (`_whole_number`); it enters as its low 64 bits.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    entropy = [_whole_number(seed, "seed") & 0xFFFFFFFFFFFFFFFF, *(int(w) for w in words)]
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
    to build one from a function. An objective may also offer
    `evaluate_batch(positions)`: one value per row of an `(n, dim)` block,
    each with the bits of `evaluate(row)` and under the same bounds and NaN
    rules; `BudgetedEvaluator.evaluate_batch` uses it when it is there. A
    class that sets `pure = True` promises that a value depends on the
    position alone and that an evaluation changes nothing else, so that
    `BudgetedEvaluator.speculate` may evaluate rows it never charges.
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

    Positions outside the objective's box (checked by `_block`, one position
    as a one-row block) raise OutOfBox and NaN values NonFiniteValue; neither
    is charged or recorded. An objective whose class sets `checks_bounds =
    True` raises OutOfBox from its own `evaluate`, so it is checked once.

    `evaluate_batch` evaluates a block of rows in one objective call. After
    `plan_lanes(count, length)` the budget it spends is `count` lanes of
    `length` evaluations that stand one after another in one sequential run
    but are filled in lockstep, each block giving every lane its next rows;
    best and trace are rebuilt in that sequential order once every lane is
    full. Between `plan_lanes` and that point the budget is spent through
    `evaluate_batch` only: `evaluate` and `commit` raise ValueError and
    charge nothing.

    `pure` is the objective's `pure` flag (False when its class sets none).
    `speculate` evaluates a pure objective's block without charging it, and
    `commit` charges one row with its value under the rules of `evaluate`,
    which is itself an objective call followed by a commit.
    """

    def __init__(self, objective, max_nfe: int):
        max_nfe = _whole_number(max_nfe, "max_nfe", 1)
        self.objective = objective
        self.max_nfe = max_nfe
        self.used_nfe = 0
        self.best: Optional[Candidate] = None
        self.trace: list[tuple[int, float]] = []
        self.speculated = 0
        self._check_bounds = not getattr(objective, "checks_bounds", False)
        self.pure = getattr(objective, "pure", False)
        self._batch = getattr(objective, "evaluate_batch", None)
        self._lanes: Optional[_Lanes] = None

    @property
    def remaining(self) -> int:
        return self.max_nfe - self.used_nfe

    def evaluate(self, position) -> float:
        # checked before the objective is called, so that an evaluation that
        # cannot be charged never reaches it
        self._check_chargeable()
        p = np.asarray(position, dtype=float)
        self._block(p[None])
        return self.commit(p, float(self.objective.evaluate(p)))

    def speculate(self, positions) -> list[float]:
        """Evaluate an `(n, dim)` block of positions without charging any of
        it, in one `evaluate_batch` call (row by row when the objective has
        none); returns their values as floats.

        Only a pure objective (one whose class sets `pure = True`) is
        evaluated uncharged, so a row that is never committed changes nothing
        but `speculated`, the count of rows evaluated this way. The block
        passes `evaluate_batch`'s shape and bounds check; a NaN value is
        returned as it is, for `commit` to refuse.
        """
        if not self.pure:
            raise ValueError("only a pure objective is evaluated uncharged")
        p = self._block(positions)
        values = self._values(p)
        self.speculated += len(p)
        return values

    def commit(self, position, value: float) -> float:
        """Charge one evaluation of `position` that gave `value`, with the
        budget, NaN, `best` and trace rules of `evaluate`; `best` keeps a
        copy of the position. A commit past the budget raises BudgetExhausted,
        one while planned lanes are filling ValueError and a NaN value
        NonFiniteValue, and none of them is charged."""
        self._check_chargeable()
        if math.isnan(value):
            raise NonFiniteValue("objective returned NaN")
        self.used_nfe += 1
        if self.best is None or value < self.best.value:
            self.best = Candidate(np.array(position, dtype=float), value)
            self.trace.append((self.used_nfe, value))
        return value

    def _check_chargeable(self) -> None:
        """Raise unless one evaluation may be charged on its own: not while
        planned lanes are filling, nor past the budget."""
        if self._lanes is not None:
            raise ValueError("the lanes planned earlier are not full yet")
        if self.used_nfe >= self.max_nfe:
            raise BudgetExhausted(f"evaluation budget of {self.max_nfe} already spent")

    def plan_lanes(self, count: int, length: int) -> None:
        """Reserve the next `count * length` evaluations as `count` lanes of
        `length` evaluations each, for `evaluate_batch` to fill in lockstep:
        lane k stands for evaluations `used_nfe + k * length + 1` through
        `used_nfe + (k + 1) * length` of the sequential run. Both counts are
        whole numbers of at least 1."""
        if self._lanes is not None:
            raise ValueError("the lanes planned earlier are not full yet")
        count = _whole_number(count, "count")
        length = _whole_number(length, "length")
        if count < 1 or length < 1:
            raise ValueError("lanes need a count and a length of at least 1")
        if count * length > self.remaining:
            raise BudgetExhausted(f"{count} lanes of {length} evaluations exceed the "
                                  f"{self.remaining} left of the budget")
        self._lanes = _Lanes(count, length, self.used_nfe)

    def evaluate_batch(self, positions) -> list[float]:
        """Evaluate an `(n, dim)` block of positions in one objective call and
        charge all n rows; returns their values as floats.

        Without planned lanes the rows count in order, as n calls of
        `evaluate` would. With them, the block must give every lane the same
        number of rows, lane by lane. A wrong shape or an out-of-box row
        raises OutOfBox, a NaN value NonFiniteValue and a block past the
        budget BudgetExhausted, and then no row of the block is charged. An
        objective without `evaluate_batch` has its rows evaluated one by one.
        """
        p = self._block(positions)
        n = len(p)
        lanes = self._lanes
        if lanes is None:
            if n > self.remaining:
                raise BudgetExhausted(f"evaluation budget of {self.max_nfe} cannot fund "
                                      f"{n} more evaluations")
            lanes = _Lanes(1, n, self.used_nfe)
        rows, uneven = divmod(n, lanes.count)
        if uneven:
            raise ValueError(f"a block must give each of {lanes.count} lanes the same rows")
        if lanes.filled + rows > lanes.length:
            raise BudgetExhausted(f"lanes of {lanes.length} evaluations already filled")
        values = self._values(p)
        if any(map(math.isnan, values)):
            raise NonFiniteValue("objective returned NaN")
        lanes.record(p, values, rows)
        self.used_nfe += n
        if lanes.filled == lanes.length:
            self._lanes = None
            # lane k's improvements count where every value of lanes 0..k-1
            # (and of the run before them) is behind it
            for best, trace in zip(lanes.best, lanes.trace):
                if self.best is not None:
                    trace = [entry for entry in trace if entry[1] < self.best.value]
                if trace:
                    self.trace += trace
                    self.best = best
        return values

    def _block(self, positions) -> np.ndarray:
        """`positions` as an `(n, dim)` float block, n >= 1, with every row in
        the box; anything else raises OutOfBox. An objective that checks its
        own bounds checks the rows when it is called."""
        p = np.asarray(positions, dtype=float)
        if p.ndim != 2 or not len(p) or p.shape[1] != self.objective.dim:
            raise OutOfBox(f"positions must be an (n, {self.objective.dim}) block, n >= 1")
        if self._check_bounds and not ((p >= self.objective.box.lower).all()
                                       and (p <= self.objective.box.upper).all()):
            raise OutOfBox("a position lies outside the objective bounds")
        return p

    def _values(self, p: np.ndarray) -> list[float]:
        """The objective's values of a checked block as floats, from one
        `evaluate_batch` call or else row by row."""
        if self._batch is None:
            return [float(self.objective.evaluate(row)) for row in p]
        values = np.asarray(self._batch(p), dtype=float)
        if values.shape != (len(p),):
            raise ValueError(f"evaluate_batch returned shape {values.shape} for {len(p)} rows")
        return values.tolist()


class _Lanes:
    """Each planned lane's fill level, best candidate and own improvement
    trace, numbered as in the sequential run."""

    __slots__ = ("count", "length", "start", "filled", "best", "trace")

    def __init__(self, count: int, length: int, start: int):
        self.count = count
        self.length = length
        self.start = start
        self.filled = 0
        self.best: list[Optional[Candidate]] = [None] * count
        self.trace: list[list[tuple[int, float]]] = [[] for _ in range(count)]

    def record(self, positions: np.ndarray, values: list[float], rows: int) -> None:
        """Take `rows` rows of the block per lane, lane by lane."""
        for k in range(self.count):
            best = self.best[k]
            low = None if best is None else best.value
            first = k * rows
            winner = None
            for j in range(first, first + rows):
                value = values[j]
                if low is None or value < low:
                    low = value
                    winner = j
                    self.trace[k].append((self.start + k * self.length + self.filled
                                          + j - first + 1, value))
            if winner is not None:
                self.best[k] = Candidate(positions[winner].copy(), low)
        self.filled += rows
