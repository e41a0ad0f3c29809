"""Budgeted coordinate descent by interval bisection and box folding.

One step picks a dimension, evaluates the centers of the lower and upper
halves of that dimension's current interval, and folds the box onto the
winning half. A full pass over all dimensions therefore halves every width,
shrinking the box volume by a factor of 2**dim per pass. The search restarts
from the original box under a fresh dimension ordering as many times as the
evaluation budget allows; budget that cannot fund a whole restart is left
unspent so the evaluation count is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    Box,
    BudgetedEvaluator,
    Candidate,
    InsufficientBudget,
    named_stream,
)


def restart_plan(dim: int, max_iter: int, max_nfe: int) -> int:
    """How many restarts of exactly 2 * dim * max_iter evaluations a budget
    funds; the remainder of the budget is left unspent.

    Raises InsufficientBudget when not even one restart fits.
    """
    if dim < 1 or max_iter < 1 or max_nfe < 1:
        raise ValueError("dim, max_iter and max_nfe must all be at least 1")
    per_restart = 2 * dim * max_iter
    if per_restart > max_nfe:
        raise InsufficientBudget(
            f"mcd needs at least {per_restart} evaluations for dim {dim} "
            f"and max_iter {max_iter}, budget is {max_nfe}")
    return max_nfe // per_restart


def roi_step(box: Box, x: np.ndarray, i: int, ev: BudgetedEvaluator) -> tuple:
    """Bisect dimension i: evaluate the centers of both halves of its interval.

    The probes are copies of the working point `x` with coordinate i moved to
    a half-interval center; `x` and `box` are left as they are. Spends exactly
    two evaluations and returns the probe record (px, py, f_x, f_y,
    keep_lower). The lower half wins only on a strictly better value; an
    exact tie keeps the upper half.
    """
    lo = box.lower[i]
    hi = box.upper[i]
    quarter = (hi - lo) / 4.0
    px = x.copy()
    py = x.copy()
    px[i] = lo + quarter
    py[i] = hi - quarter
    f_x = ev.evaluate(px)
    f_y = ev.evaluate(py)
    return px, py, f_x, f_y, f_x < f_y


def fold(box: Box, i: int, keep_lower: bool) -> None:
    """Halve dimension i of the box in place, keeping the lower or upper half.

    When the midpoint is no longer representable strictly between the bounds
    (the width has reached floating-point resolution) the box is left
    unchanged and that dimension simply stops shrinking.
    """
    lo = box.lower[i]
    hi = box.upper[i]
    mid = lo + (hi - lo) / 2.0
    if lo < mid < hi:
        if keep_lower:
            box.upper[i] = mid
        else:
            box.lower[i] = mid


@dataclass(eq=False)
class StepRecord:
    """One bisection step: the two probed points and the fold direction."""

    restart: int
    iteration: int
    dim_index: int
    x_position: np.ndarray
    y_position: np.ndarray
    f_x: float
    f_y: float
    keep_lower: bool


@dataclass(eq=False)
class RunOutcome:
    """Result of a full budgeted run.

    `best` is the best point ever evaluated. `restart_best` is the winner of
    the across-restart comparison, decided on cached values only, so it never
    costs an extra evaluation; it can differ from `best` when a restart walked
    through a better point than the one it finished on.
    """

    best: Candidate
    restart_best: Candidate
    restarts: int
    used_nfe: int
    trace: list[tuple[int, float]] = field(default_factory=list)
    steps: Optional[list[StepRecord]] = None


def run(objective, max_iter: int, max_nfe: int, seed: int,
        permutations: Optional[Sequence[Sequence[int]]] = None,
        record_steps: bool = False) -> RunOutcome:
    """Run the complete budgeted search: `restart_plan` restarts from the
    original box.

    Every restart begins at the box center and performs max_iter halving
    passes over all dimensions in its own ordering, folding the box after
    each step. Every ordering is settled before the first evaluation: drawn
    from the "perm" stream of `seed` in restart order, or taken from
    `permutations` (for worked examples and tests), one integer ordering per
    planned restart, so a bad one raises before any objective call.
    """
    dim = objective.dim
    restarts = restart_plan(dim, max_iter, max_nfe)
    if permutations is None:
        perm_rng = named_stream(seed, "perm")
        orders = [perm_rng.permutation(dim) for _ in range(restarts)]
    elif len(permutations) != restarts:
        raise ValueError(f"need {restarts} pinned permutations, got {len(permutations)}")
    else:
        orders = [np.asarray(perm) for perm in permutations]
        for r, perm in enumerate(orders):
            # bools and floats would otherwise be cast to indices silently
            if (perm.ndim != 1 or perm.dtype.kind not in "iu"
                    or sorted(perm.tolist()) != list(range(dim))):
                raise ValueError(f"restart {r}: not a permutation of 0..{dim - 1}")
    ev = BudgetedEvaluator(objective, max_nfe)
    steps: Optional[list[StepRecord]] = [] if record_steps else None
    restart_best: Optional[Candidate] = None
    for r, order in enumerate(orders):
        box = objective.box.copy()
        x = box.midpoint()
        for it in range(max_iter):
            for i in order.tolist():
                probe = roi_step(box, x, i, ev)
                px, py, f_x, f_y, keep_lower = probe
                fold(box, i, keep_lower)
                # roi_step never writes to x, so the step record may share it
                x = px if keep_lower else py
                if steps is not None:
                    steps.append(StepRecord(r, it, i, *probe))
        # compare restart winners on cached values only, no extra evaluation
        value = min(f_x, f_y)
        if restart_best is None or value < restart_best.value:
            restart_best = Candidate(x, value)

    return RunOutcome(best=ev.best, restart_best=restart_best, restarts=restarts,
                      used_nfe=ev.used_nfe, trace=ev.trace, steps=steps)
