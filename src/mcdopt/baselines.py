"""Comparison optimizers: differential evolution and cooperative co-evolution.

Both spend evaluations only through a BudgetedEvaluator, so comparisons
against the folding coordinate-descent optimizer are budget-fair. Trial
coordinates that leave the box are clamped to the violated bound before
evaluation, so these optimizers never trigger an out-of-bounds error.

Each trial draws its donors, scale factor, crossover coin flips and forced
crossover index, in that order. A generation takes the draws of all its
trials before the first: on a numpy Generator over PCG64 (every
`named_stream`) it decodes them from one bulk read of raw words as arrays,
with the same values and the same final generator state as the method
calls. A generation where numpy would redraw a Lemire rejection (below
size / 2**32 per bounded draw), like every generation on any other
generator, is drawn trial by trial through the generator's methods. It then
builds every trial row in one pass from the start-of-generation population,
and only a trial whose donors were replaced earlier in the generation builds
its own again. Since the draws are taken per generation, an OutOfBox or
NonFiniteValue that escapes a generation leaves any generator further along
than trial-by-trial calls would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    BudgetedEvaluator,
    BudgetExhausted,
    Candidate,
    InsufficientBudget,
    named_stream,
)


@dataclass
class DEConfig:
    """rand/1/bin settings: fixed crossover rate, scale factor drawn per individual
    from the (low, high) pair `f_range`."""

    pop_size: int = 50
    cr: float = 0.9
    f_range: tuple[float, float] = (0.2, 0.8)

    def __post_init__(self):
        if self.pop_size < 4:
            raise ValueError("rand/1 mutation needs a population of at least 4")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must lie in [0, 1]")
        low, high = self.f_range
        if not math.isfinite(high - low):
            raise ValueError("f_range bounds and their width must be finite")
        if low > high:
            raise ValueError("f_range low must not exceed high")


@dataclass
class CCConfig:
    """Co-evolution settings: group count plus the inner DE constants."""

    pop_size: int = 50
    f: float = 0.5
    cr: float = 0.9
    num_groups: int = 10

    def __post_init__(self):
        self.inner_de()  # population, crossover and scale factor follow DE's rules
        if self.num_groups < 1:
            raise ValueError("num_groups must be at least 1")

    def inner_de(self) -> DEConfig:
        """The settings of each group's DE generation: one fixed scale factor."""
        return DEConfig(pop_size=self.pop_size, cr=self.cr, f_range=(self.f, self.f))


@dataclass(eq=False)
class RunResult:
    """Outcome of one budgeted baseline run."""

    best: Candidate
    used_nfe: int
    trace: list[tuple[int, float]] = field(default_factory=list)


def _init_population(pop_size: int, ev: BudgetedEvaluator,
                     rng: np.random.Generator) -> list[Candidate]:
    """Uniform random population, evaluated up-front.

    The min(pop_size, ev.remaining) rows the budget funds are drawn in one
    block, with the values of one draw per row, so a small budget truncates
    the population silently. Each position is its own array; a truncated or
    failing initialization leaves `rng` at the rows it drew.
    """
    box = ev.objective.box
    population = []
    for row in rng.random((min(pop_size, ev.remaining), box.dim)):
        position = box.lower + row * (box.upper - box.lower)
        population.append(Candidate(position, ev.evaluate(position)))
    return population


def _donor_table(n: int) -> np.ndarray:
    """An (n, n-1) index table whose row i lists every index except i, in order."""
    columns = np.arange(n - 1)
    return columns + (columns >= np.arange(n)[:, None])


def _method_draws(rng, n: int, k: int, trials: int, cfg: DEConfig):
    """The draws of trials 0 .. trials-1 from the generator's own methods,
    called trial by trial in order.

    Returns (donors, scales, masks): a (trials, 3) array of three distinct
    individuals other than each target, the (trials,) scale factors, and the
    (trials, k) crossover masks with their forced indices set.
    """
    pools = _donor_table(n)
    f_low, f_high = cfg.f_range
    donors = np.empty((trials, 3), dtype=np.intp)
    scales = np.empty(trials)
    masks = np.empty((trials, k), dtype=bool)
    for i in range(trials):
        donors[i] = rng.choice(pools[i], size=3, replace=False)
        scales[i] = rng.uniform(f_low, f_high)
        masks[i] = rng.random(k) <= cfg.cr
        masks[i, int(rng.integers(k))] = True
    return donors, scales, masks


class _Layout(NamedTuple):
    """Where a generation's draws sit in its bulk read of raw words.

    Each trial makes six bounded draws in this order: Floyd's three on
    [0, j] for j = n-4 .. n-2, the shuffle's two on [0, 2] and [0, 1], and
    the crossover index on [0, k-1]; its k + 1 doubles come between the
    fifth and the sixth. A draw on one value takes no half-word. Every array
    is read-only.
    """

    sizes: np.ndarray       # (6 * trials,) range size of each bounded draw
    thresholds: np.ndarray  # Lemire's threshold 2**32 % size of each draw
    words: np.ndarray       # the word holding each draw's last half-word
    shifts: np.ndarray      # 0 where that half-word is a low half, 32 where high
    buffered: int           # leading draws whose last half-word is the starting buffer
    doubles: np.ndarray     # (trials, k + 1) word of each trial's doubles
    used: int               # words read through the last draw
    has_uint32: int         # numpy's half-word buffer flag after the last draw
    last_word: int          # the word whose high half numpy buffers last


@functools.lru_cache(maxsize=128)
def _draw_layout(n: int, k: int, trials: int, has_uint32: int) -> _Layout:
    """The layout of `trials` trials' draws, starting from numpy's half-word
    buffer flag `has_uint32`, when no draw is rejected.

    Half-words are taken in draw order: the buffer's high half when
    `has_uint32` is set, else the low half of the next unread word, which
    sets the flag. Doubles take whole words and leave the buffer alone.
    """
    sizes = np.tile(np.array([n - 3, n - 2, n - 1, 3, 2, k], dtype=np.uint64), trials)
    counts = (sizes > 1).astype(np.intp)
    # q: index of each draw's last half-word among those taken from unread
    # words (-1 is the starting buffer); pair r of them is word r's two halves
    q = np.cumsum(counts) - 1 - has_uint32
    # half-words taken from unread words before each trial's doubles
    before = q[4::6] + 1
    pairs = (int(q[-1]) + 2) // 2
    r = np.arange(pairs)
    # a pair's word follows the doubles of every trial whose block precedes its low half
    pair_words = (k + 1) * np.searchsorted(before, 2 * r, side="right") + r
    taken = np.maximum(q, 0)
    doubles = ((k + 1) * np.arange(trials) + (before + 1) // 2)[:, None] + np.arange(k + 1)
    arrays = dict(sizes=sizes, thresholds=(1 << 32) % sizes, words=pair_words[taken // 2],
                  shifts=(taken % 2 * 32).astype(np.uint64), doubles=doubles)
    for array in arrays.values():
        array.flags.writeable = False
    return _Layout(**arrays, buffered=int(np.count_nonzero(q < 0)),
                   used=(k + 1) * trials + pairs, has_uint32=(int(q[-1]) + 1) % 2,
                   last_word=int(pair_words[-1]))


# numpy's shuffle of three picks (swap place 2 with s2, then place 1 with
# s1) as the order it leaves them in, for each (s2, s1)
_SHUFFLES = np.array([[[1, 2, 0], [2, 1, 0]],
                      [[2, 0, 1], [0, 2, 1]],
                      [[1, 0, 2], [0, 1, 2]]])
_SHUFFLES.flags.writeable = False


def _pcg64_draws(rng: np.random.Generator, n: int, k: int, trials: int,
                 cfg: DEConfig):
    """`_method_draws(rng, n, k, trials, cfg)`, decoded from one bulk read of
    the PCG64 bit generator's raw words.

    Numpy draws every double from one whole word, `(w >> 11) * 2**-53`, and
    every bounded integer below 2**32 from one 32-bit half-word with Lemire
    rejection; half-words come from the generator's `has_uint32` buffer (the
    high half of the word whose low half was used last) or else from the low
    half of the next word. Per trial, `choice` takes Floyd's three draws and
    shuffles with two more, `uniform` takes one double, `random(k)` k
    doubles, and `integers(k)` one draw (see `_Layout`). The read takes
    exactly the words the draws use when none is rejected, and every
    half-word is tested against its Lemire threshold at once. The generator
    is left exactly where the method calls would leave it.

    Returns None, with the generator untouched, when `rng` is not a plain
    Generator on PCG64, when the calls would raise (`choice` on a population
    below 4, `uniform` on an infinite f_high - f_low), or when a draw is
    rejected, so that the caller redraws through the generator's methods.
    """
    f_low, f_high = cfg.f_range
    if (type(rng) is not np.random.Generator or type(rng.bit_generator) is not np.random.PCG64
            or n < 4 or not math.isfinite(f_high - f_low)):
        return None
    bg = rng.bit_generator
    start = bg.state
    layout = _draw_layout(n, k, trials, start["has_uint32"])
    words = bg.random_raw(layout.used)
    halves = (words[layout.words] >> layout.shifts) & 0xFFFFFFFF
    halves[:layout.buffered] = start["uinteger"]
    products = halves * layout.sizes
    if ((products & 0xFFFFFFFF) < layout.thresholds).any():
        bg.state = start
        return None
    end = bg.state
    end["has_uint32"] = layout.has_uint32
    end["uinteger"] = int(words[layout.last_word] >> 32)
    bg.state = end

    values = (products >> 32).astype(np.intp).reshape(trials, 6)
    a, b, c, s2, s1, forced = values.T  # views of the columns
    # Floyd: a value already taken is replaced by its draw's upper end (c is
    # compared with the replaced b)
    values[:, 1] = np.where(b == a, n - 3, b)
    values[:, 2] = np.where((c == a) | (c == b), n - 2, c)
    targets = np.arange(trials)[:, None]
    picked = values.ravel()[6 * targets + _SHUFFLES[s2, s1]]
    # position v in target i's donor pool is individual v + (v >= i)
    donors = picked + (picked >= targets)
    doubles = (words[layout.doubles] >> 11) * 2.0 ** -53
    scales = f_low + (f_high - f_low) * doubles[:, 0]
    masks = doubles[:, 1:] <= cfg.cr
    masks[targets[:, 0], forced] = True
    return donors, scales, masks


def _trial_rows(subs, r1, r2, r3, scale, keep, target, lo, hi):
    """rand/1/bin trial coordinates: the mutant `subs[r1] + scale * (subs[r2]
    - subs[r3])`, with the target's coordinates where `keep` is set, clamped
    to [lo, hi]. Takes one trial (integer donors) or many (donor arrays, one
    row of `scale`, `keep` and `target` each) and returns a new array."""
    rows = subs[r2] - subs[r3]
    rows *= scale
    rows += subs[r1]
    np.copyto(rows, target, where=keep)
    np.maximum(rows, lo, out=rows)
    np.minimum(rows, hi, out=rows)
    return rows


def _generation_on(population: list[Candidate], coords: np.ndarray,
                   context: Optional[np.ndarray], cfg: DEConfig,
                   ev: BudgetedEvaluator, rng: np.random.Generator) -> bool:
    """One rand/1/bin generation over the given coordinate subset.

    Trial points take the coordinates outside `coords` from `context`; when
    every coordinate is in play the context is irrelevant and this is plain
    differential evolution. Selection is immediate (a completed trial that
    does not worsen its target replaces it right away), so later mutants in
    the same generation may draw on already-updated individuals. Returns
    False when the budget ran out mid-generation; the completed replacements
    are kept and the rest of the generation is abandoned.

    The draws of the trials that draw (those up to and including the one
    that meets BudgetExhausted) are taken before the first trial: decoded
    on a numpy Generator on PCG64, else from the generator's methods. Their
    trial rows are then built in one pass from the start-of-generation
    population; a trial whose donors were replaced earlier in the generation
    builds its own row from the current ones instead.
    """
    box = ev.objective.box
    n = len(population)
    k = coords.size
    lo = box.lower[coords]
    hi = box.upper[coords]
    trials = min(n, ev.remaining + 1)
    draws = _pcg64_draws(rng, n, k, trials, cfg)
    if draws is None:
        draws = _method_draws(rng, n, k, trials, cfg)
    donors, scales, masks = draws
    keep = ~masks  # the coordinates each trial takes from its target
    # row i holds population[i].position[coords], kept current on replacement
    subs = np.array([c.position for c in population])[:, coords]
    # target row i cannot change before trial i, so only a replaced donor
    # makes a precomputed row stale
    rows = _trial_rows(subs, *donors.T, scales[:, None], keep, subs[:trials], lo, hi)
    replaced = [False] * n
    for i, (r1, r2, r3) in enumerate(donors.tolist()):
        if replaced[r1] or replaced[r2] or replaced[r3]:
            sub = _trial_rows(subs, r1, r2, r3, scales[i], keep[i], subs[i], lo, hi)
        else:
            sub = rows[i]
        if context is None:
            point = sub
        else:
            point = context.copy()
            point[coords] = sub
        try:
            value = ev.evaluate(point)
        except BudgetExhausted:
            return False
        if value <= population[i].value:
            if point.base is rows:
                point = point.copy()  # hold no view of the generation's rows
            population[i] = Candidate(point, value)
            subs[i] = sub
            replaced[i] = True
    return True


def de_generation(population: list[Candidate], cfg: DEConfig,
                  ev: BudgetedEvaluator, rng: np.random.Generator) -> list[Candidate]:
    """Advance the population by one full rand/1/bin generation in place."""
    dim = ev.objective.box.dim
    _generation_on(population, np.arange(dim), None, cfg, ev, rng)
    return population


def run_de(objective, max_nfe: int, seed: int,
           cfg: Optional[DEConfig] = None) -> RunResult:
    """Budgeted rand/1/bin run: uniform initialization, then generations until
    the budget is gone."""
    cfg = cfg if cfg is not None else DEConfig()
    ev = BudgetedEvaluator(objective, max_nfe)
    init_rng = named_stream(seed, "de-init")
    gen_rng = named_stream(seed, "de-gen")
    population = _init_population(cfg.pop_size, ev, init_rng)
    while ev.remaining > 0:
        de_generation(population, cfg, ev, gen_rng)
    return RunResult(best=ev.best, used_nfe=ev.used_nfe, trace=ev.trace)


def delta_grouping(deltas, num_groups: int) -> list[np.ndarray]:
    """Partition dimension indices into groups by descending delta.

    Dimensions are ordered by delta, largest first with ties broken by
    ascending index, then cut into num_groups contiguous chunks of size
    floor(D / num_groups); the last chunk absorbs any remainder.
    """
    deltas = np.asarray(deltas, dtype=float)
    d = deltas.size
    if not 1 <= num_groups <= d:
        raise ValueError(f"num_groups must lie in [1, {d}], got {num_groups}")
    order = np.lexsort((np.arange(d), -deltas))
    size = d // num_groups
    groups = [order[k * size:(k + 1) * size] for k in range(num_groups - 1)]
    groups.append(order[(num_groups - 1) * size:])
    return groups


@dataclass(eq=False)
class CCState:
    """Population and grouping anchor between cycles.

    `anchor` is the best position at the start of the previous cycle (the
    initial best before the first cycle). The evaluator holds the current
    best, so each cycle groups coordinates by how far the best moved since
    `anchor`.
    """

    population: list[Candidate]
    anchor: np.ndarray
    last_groups: Optional[list[np.ndarray]] = None


def cc_init(cfg: CCConfig, ev: BudgetedEvaluator, rng: np.random.Generator) -> CCState:
    """Evaluate a fresh uniform population and anchor on the initial best."""
    population = _init_population(cfg.pop_size, ev, rng)
    if not population:
        raise InsufficientBudget("budget died before any individual was evaluated")
    return CCState(population=population, anchor=ev.best.position.copy())


def cc_cycle(state: CCState, cfg: CCConfig, ev: BudgetedEvaluator,
             rng: np.random.Generator) -> CCState:
    """One co-evolutionary cycle: regroup, then one DE generation per group.

    Groups follow the best solution's coordinate-wise movement since
    `state.anchor`, largest movement first; in the first cycle nothing has
    moved, so the index tie-break gives contiguous groups. The anchor then
    moves to the current best. Each trial is completed through the context
    vector: the global best at the start of the group supplies every
    coordinate outside the group.
    """
    groups = delta_grouping(np.abs(ev.best.position - state.anchor), cfg.num_groups)
    state.anchor = ev.best.position.copy()
    state.last_groups = groups
    inner = cfg.inner_de()
    for group in groups:
        if not _generation_on(state.population, group, ev.best.position,
                              inner, ev, rng):
            break
    return state


def run_cc(objective, max_nfe: int, seed: int,
           cfg: Optional[CCConfig] = None) -> RunResult:
    """Budgeted co-evolution run: initialization, then cycles until the budget
    is gone. More groups than dimensions is a ValueError before the first
    evaluation."""
    cfg = cfg if cfg is not None else CCConfig()
    dim = objective.box.dim
    if cfg.num_groups > dim:
        raise ValueError(f"num_groups must lie in [1, {dim}], got {cfg.num_groups}")
    ev = BudgetedEvaluator(objective, max_nfe)
    state = cc_init(cfg, ev, named_stream(seed, "cc-init"))
    gen_rng = named_stream(seed, "cc-gen")
    while ev.remaining > 0:
        cc_cycle(state, cfg, ev, gen_rng)
    return RunResult(best=ev.best, used_nfe=ev.used_nfe, trace=ev.trace)
