"""Budgeted coordinate descent by interval bisection and box folding.

One step picks a dimension, evaluates the centers of the lower and upper
halves of that dimension's current interval, and folds the box onto the
winning half. A full pass over all dimensions therefore halves every width,
shrinking the box volume by a factor of 2**dim per pass. The search restarts
from the original box under a fresh dimension ordering as many times as the
evaluation budget allows; budget that cannot fund a whole restart is left
unspent so the evaluation count is exact by construction.

The restarts run in lockstep: every ordering is drawn before the first
evaluation, so each step bisects one dimension of every restart and
evaluates all their probes as one block. The evaluator numbers restart r's
evaluations as if the restarts ran one after another, so the steps, trace,
best and restart winner are those of running them in sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    BudgetedEvaluator,
    Candidate,
    InsufficientBudget,
    _whole_number,
    named_stream,
)


def restart_plan(dim: int, max_iter: int, max_nfe: int) -> int:
    """How many restarts of exactly 2 * dim * max_iter evaluations a budget
    funds; the remainder of the budget is left unspent.

    Each count must be a whole number (`_whole_number`) of at least 1, else
    ValueError; raises InsufficientBudget when not even one restart fits.
    """
    dim = _whole_number(dim, "dim")
    max_iter = _whole_number(max_iter, "max_iter")
    max_nfe = _whole_number(max_nfe, "max_nfe")
    if dim < 1 or max_iter < 1 or max_nfe < 1:
        raise ValueError("dim, max_iter and max_nfe must all be at least 1")
    per_restart = 2 * dim * max_iter
    if per_restart > max_nfe:
        raise InsufficientBudget(
            f"mcd needs at least {per_restart} evaluations for dim {dim} "
            f"and max_iter {max_iter}, budget is {max_nfe}")
    return max_nfe // per_restart


def roi_step(lower: Sequence[list], upper: Sequence[list], points: np.ndarray,
             dims: Sequence[int], ev: BudgetedEvaluator) -> list[tuple]:
    """Bisect one dimension per restart: evaluate the centers of both halves
    of restart r's interval on dimension dims[r], every restart in one block.

    `lower[r]` and `upper[r]` are restart r's bounds and `points[r]` its
    working point. Restart r's probes are copies of `points[r]` with
    coordinate dims[r] moved to a half-interval center, rows 2r and 2r + 1 of
    one `(2 * restarts, dim)` block; bounds and points are left as they are.
    Spends exactly two evaluations per restart and returns one probe record
    (px, py, f_x, f_y, keep_lower) per restart. The lower half wins only on a
    strictly better value; an exact tie keeps the upper half.
    """
    probes = points.repeat(2, axis=0)
    for r, i in enumerate(dims):
        lo = lower[r][i]
        hi = upper[r][i]
        quarter = (hi - lo) / 4.0
        probes[2 * r, i] = lo + quarter
        probes[2 * r + 1, i] = hi - quarter
    f = ev.evaluate_batch(probes)
    return [(probes[k], probes[k + 1], f[k], f[k + 1], f[k] < f[k + 1])
            for k in range(0, len(f), 2)]


def fold(lower: list, upper: list, i: int, keep_lower: bool) -> None:
    """Halve dimension i of the bounds `lower`, `upper` in place, keeping the
    lower or upper half.

    When the midpoint is no longer representable strictly between the bounds
    (the width has reached floating-point resolution) the bounds are left
    unchanged and that dimension simply stops shrinking.
    """
    lo = lower[i]
    hi = upper[i]
    mid = lo + (hi - lo) / 2.0
    if lo < mid < hi:
        if keep_lower:
            upper[i] = mid
        else:
            lower[i] = mid


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
    passes over all dimensions in its own ordering, folding its own bounds
    after each step; the restarts advance together, one probe block per
    step, with the outputs of running them one after another. Every ordering
    is settled before the first evaluation: drawn from the "perm" stream of
    `seed` in restart order, or taken from `permutations` (for worked
    examples and tests), one integer ordering per planned restart, so a bad
    one raises before any objective call.
    """
    dim = objective.dim
    ev = BudgetedEvaluator(objective, max_nfe)
    max_iter = _whole_number(max_iter, "max_iter")
    restarts = restart_plan(dim, max_iter, ev.max_nfe)
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
    ev.plan_lanes(restarts, 2 * dim * max_iter)
    # each restart's bounds as Python floats: folding one coordinate of a
    # list is far cheaper than indexing into an array
    lower = [objective.box.lower.tolist() for _ in range(restarts)]
    upper = [objective.box.upper.tolist() for _ in range(restarts)]
    points = np.tile(objective.box.midpoint(), (restarts, 1))
    # the dimension each restart bisects at each position of its ordering
    columns = np.stack(orders, axis=1).tolist()
    records: list[list[StepRecord]] = [[] for _ in range(restarts)]
    for it in range(max_iter):
        for dims in columns:
            probes = roi_step(lower, upper, points, dims, ev)
            for r, probe in enumerate(probes):
                px, py, f_x, f_y, keep_lower = probe
                i = dims[r]
                fold(lower[r], upper[r], i, keep_lower)
                points[r] = px if keep_lower else py
                if record_steps:
                    records[r].append(StepRecord(r, it, i, *probe))
    # compare restart winners on cached values only, no extra evaluation
    restart_best: Optional[Candidate] = None
    for px, py, f_x, f_y, keep_lower in probes:
        value = min(f_x, f_y)
        if restart_best is None or value < restart_best.value:
            restart_best = Candidate(px if keep_lower else py, value)

    steps = [step for restart in records for step in restart] if record_steps else None
    return RunOutcome(best=ev.best, restart_best=restart_best, restarts=restarts,
                      used_nfe=ev.used_nfe, trace=ev.trace, steps=steps)
