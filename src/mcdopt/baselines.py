"""Comparison optimizers: differential evolution and cooperative co-evolution.

Both spend evaluations only through a BudgetedEvaluator, so comparisons
against the folding coordinate-descent optimizer are budget-fair. Trial
coordinates that leave the box are clamped to the violated bound before
evaluation, so these optimizers never trigger an out-of-bounds error.

Each trial draws its donors, scale factor, crossover coin flips and forced
crossover index, in that order. On a numpy Generator over PCG64 (every
`named_stream`), a generation decodes all of its trials' draws from one bulk
read of raw words before the first trial, with the same values and the same
final generator state as the method calls; any other generator is called
trial by trial. Since the draws are taken per generation, an OutOfBox or
NonFiniteValue that escapes a generation leaves a PCG64 generator further
along than trial-by-trial calls would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
    """rand/1/bin settings: fixed crossover rate, scale factor drawn per individual."""

    pop_size: int = 50
    cr: float = 0.9
    f_range: tuple[float, float] = (0.2, 0.8)

    def __post_init__(self):
        if self.pop_size < 4:
            raise ValueError("rand/1 mutation needs a population of at least 4")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must lie in [0, 1]")
        if isinstance(self.f_range, (int, float)):
            self.f_range = (float(self.f_range), float(self.f_range))
        low, high = self.f_range
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
        if self.pop_size < 4:
            raise ValueError("the inner DE needs a population of at least 4")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must lie in [0, 1]")
        if self.num_groups < 1:
            raise ValueError("num_groups must be at least 1")


@dataclass(eq=False)
class RunResult:
    """Outcome of one budgeted baseline run."""

    best: Candidate
    used_nfe: int
    trace: list[tuple[int, float]] = field(default_factory=list)


def _init_population(pop_size: int, ev: BudgetedEvaluator,
                     rng: np.random.Generator) -> list[Candidate]:
    """Uniform random population, evaluated up-front.

    Truncated silently if the budget dies during initialization.
    """
    box = ev.objective.box
    population = []
    for _ in range(pop_size):
        position = box.lower + rng.random(box.dim) * (box.upper - box.lower)
        try:
            value = ev(position)
        except BudgetExhausted:
            break
        population.append(Candidate(position, value))
    return population


def _donor_table(n: int) -> np.ndarray:
    """An (n, n-1) index table whose row i lists every index except i, in order."""
    columns = np.arange(n - 1)
    return columns + (columns >= np.arange(n)[:, None])


# Raw 64-bit words read per trial besides its k + 1 doubles: one for each of
# its (at most six) bounded draws. Only Lemire rejections, each with
# probability below size / 2**32, can need more; a generation whose read runs
# short is drawn through the generator's own methods instead.
_SPARE_WORDS = 6


def _method_draws(rng, n: int, k: int, cfg: DEConfig):
    """Each trial's draws from the generator's own methods, lazily, in order.

    Yields (donors, scale, mask) for trials 0 .. n-1: three distinct
    individuals other than the target, the scale factor, and the crossover
    mask with its forced index set.
    """
    donors = _donor_table(n)
    f_low, f_high = cfg.f_range
    for i in range(n):
        picked = rng.choice(donors[i], size=3, replace=False)
        scale = rng.uniform(f_low, f_high)
        mask = rng.random(k) <= cfg.cr
        mask[int(rng.integers(k))] = True
        yield picked, scale, mask


def _pcg64_draws(rng: np.random.Generator, n: int, k: int, trials: int,
                 cfg: DEConfig):
    """The first `trials` entries of `_method_draws`, decoded from one bulk
    read of the PCG64 bit generator's raw words.

    Numpy draws every double from one whole word, `(w >> 11) * 2**-53`, and
    every bounded integer below 2**32 from one 32-bit half-word with Lemire
    rejection; half-words come from the generator's `has_uint32` buffer (the
    high half of the word whose low half was used last) or else from the low
    half of the next word. Per trial, `choice` takes Floyd's three draws on
    [0, j] for j = n-4 .. n-2 (a j of 0 draws nothing) and shuffles with two
    draws on [0, 2] and [0, 1]; `uniform` takes one double, `random(k)` k
    doubles, and `integers(k)` one draw on [0, k-1] (nothing when k is 1).
    The generator is left exactly where those calls would leave it.

    Returns None, with the generator untouched, when `rng` is not a plain
    Generator on PCG64, when the calls would raise (`choice` on a population
    below 4, `uniform` on an infinite f_high - f_low), or when the read fell
    short.
    """
    f_low, f_high = cfg.f_range
    if (type(rng) is not np.random.Generator or type(rng.bit_generator) is not np.random.PCG64
            or n < 4 or not math.isfinite(f_high - f_low)):
        return None
    bg = rng.bit_generator
    start = bg.state
    has32, buf = start["has_uint32"], start["uinteger"]
    words = bg.random_raw(trials * (k + 1 + _SPARE_WORDS))
    raw = memoryview(words)
    p = 0

    def bounded(size, threshold):
        """A Lemire draw on [0, size) from the half-word stream."""
        nonlocal p, has32, buf
        if size == 1:
            return 0
        while True:
            if has32:
                has32 = 0
                half = buf
            else:
                word = raw[p]
                p += 1
                half = word & 0xFFFFFFFF
                buf = word >> 32
                has32 = 1
            m = half * size
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    # (range size, Lemire threshold) of each bounded draw, in draw order
    floyd_and_shuffle = [(j + 1, (1 << 32) % (j + 1)) for j in (n - 4, n - 3, n - 2, 2, 1)]
    crossover = (k, (1 << 32) % k)
    donors, blocks, forced = [], [], []
    try:
        for i in range(trials):
            a, b, c, s2, s1 = [bounded(*draw) for draw in floyd_and_shuffle]
            # the doubles of uniform and random(k) come before integers(k)
            blocks.append(p)
            p += k + 1
            forced.append(bounded(*crossover))
            # Floyd: a value already taken is replaced by its draw's upper end
            if b == a:
                b = n - 3
            if c == a or c == b:
                c = n - 2
            # then numpy's shuffle: swap place 2 with s2, then place 1 with s1
            picked = [a, b, c]
            picked[s2], picked[2] = picked[2], picked[s2]
            picked[s1], picked[1] = picked[1], picked[s1]
            # position v in target i's donor pool is individual v + (v >= i)
            donors.append([v + (v >= i) for v in picked])
    except IndexError:
        bg.state = start
        return None
    bg.advance(p - words.size)  # step back over the words left unread
    end = bg.state
    end["has_uint32"], end["uinteger"] = has32, buf
    bg.state = end

    doubles = (words[np.add.outer(blocks, np.arange(k + 1))] >> 11) * 2.0 ** -53
    scales = (f_low + (f_high - f_low) * doubles[:, 0]).tolist()
    masks = doubles[:, 1:] <= cfg.cr
    masks[np.arange(trials), forced] = True
    return zip(donors, scales, masks)


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

    A numpy Generator on PCG64 has all draws of the trials that draw (those
    up to and including the one that meets BudgetExhausted) decoded before
    the first trial; any other generator is called trial by trial.
    """
    box = ev.objective.box
    n = len(population)
    k = coords.size
    lo = box.lower[coords]
    hi = box.upper[coords]
    draws = _pcg64_draws(rng, n, k, min(n, ev.remaining + 1), cfg)
    if draws is None:
        draws = _method_draws(rng, n, k, cfg)
    # row i holds population[i].position[coords], kept current on replacement
    subs = np.array([c.position for c in population])[:, coords]
    for i, ((r1, r2, r3), scale, mask) in enumerate(draws):
        mutant = subs[r1] + scale * (subs[r2] - subs[r3])
        sub = np.where(mask, mutant, subs[i])
        np.maximum(sub, lo, out=sub)
        np.minimum(sub, hi, out=sub)
        if context is None:
            point = sub
        else:
            point = context.copy()
            point[coords] = sub
        try:
            value = ev(point)
        except BudgetExhausted:
            return False
        if value <= population[i].value:
            population[i] = Candidate(point, value)
            subs[i] = sub
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
    dim = ev.objective.box.dim
    if cfg.num_groups > dim:
        raise ValueError(f"num_groups {cfg.num_groups} exceeds dimension {dim}")
    groups = delta_grouping(np.abs(ev.best.position - state.anchor), cfg.num_groups)
    state.anchor = ev.best.position.copy()
    state.last_groups = groups
    inner = DEConfig(pop_size=cfg.pop_size, cr=cfg.cr, f_range=(cfg.f, cfg.f))
    for group in groups:
        if not _generation_on(state.population, group, ev.best.position,
                              inner, ev, rng):
            break
    return state


def run_cc(objective, max_nfe: int, seed: int,
           cfg: Optional[CCConfig] = None) -> RunResult:
    """Budgeted co-evolution run: initialization, then cycles until the budget
    is gone."""
    cfg = cfg if cfg is not None else CCConfig()
    ev = BudgetedEvaluator(objective, max_nfe)
    state = cc_init(cfg, ev, named_stream(seed, "cc-init"))
    gen_rng = named_stream(seed, "cc-gen")
    while ev.remaining > 0:
        cc_cycle(state, cfg, ev, gen_rng)
    return RunResult(best=ev.best, used_nfe=ev.used_nfe, trace=ev.trace)
