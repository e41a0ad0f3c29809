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
generator, is drawn trial by trial through the generator's methods.
`run_de` and `run_cc` keep their streams to themselves and decode several
generations of one shape in one read (`_ReadAhead`); `de_generation` and
`cc_cycle` on the caller's generator take one generation's draws.

A generation then builds every trial point in one pass from the
start-of-generation population. On a pure objective it evaluates the funded
points in one uncharged wave, then settles the trials in order: once every
earlier donor of a trial has settled, its value stands if none of them was
accepted with a row that moved (differs in some bit from its target's
start row), and otherwise its point is built again from the settled donors
and evaluated with the other rebuilt points in one more wave, so no trial
is evaluated more than twice. A donor accepted with its target's row bit
for bit would rebuild the same point, which a pure objective values the
same. The settled values are then committed in trial order. Any other
objective is called on each point, as the population stands, just before
it is charged, so there is no first wave to keep. Since the draws are
taken per generation, an OutOfBox or NonFiniteValue that escapes a
generation leaves the generator passed to `de_generation` or `cc_cycle`
further along than trial-by-trial calls would, by the draws of that
generation's trials that never ran.
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


@dataclass(frozen=True)
class DEConfig:
    """rand/1/bin settings: fixed crossover rate, scale factor drawn per individual
    from the (low, high) pair `f_range`. Checked here and frozen, so the checks
    hold for the object's life; vary a field with `dataclasses.replace`."""

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


@dataclass(frozen=True)
class CCConfig:
    """Co-evolution settings: group count plus the inner DE constants; frozen
    like `DEConfig`. `delta_grouping` refuses more groups than dimensions."""

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
    rows = rng.random((min(pop_size, ev.remaining), box.dim))
    positions = box.lower + rows * (box.upper - box.lower)
    return [Candidate(position.copy(), ev.evaluate(position)) for position in positions]


def _donor_table(n: int) -> np.ndarray:
    """An (n, n-1) index table whose row i lists every index except i, in order."""
    columns = np.arange(n - 1)
    return columns + (columns >= np.arange(n)[:, None])


def _method_draws(rng, n: int, k: int, trials: int, cfg: DEConfig):
    """The draws of trials 0 .. trials-1 from the generator's own methods,
    called trial by trial in order; trial i's target is individual i % n, so
    the trials may span generations.

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
        donors[i] = rng.choice(pools[i % n], size=3, replace=False)
        scales[i] = rng.uniform(f_low, f_high)
        masks[i] = rng.random(k) <= cfg.cr
        masks[i, int(rng.integers(k))] = True
    return donors, scales, masks


class _Layout(NamedTuple):
    """Where the draws of a run of trials sit in their bulk read of raw words.

    Each trial makes six bounded draws in this order: Floyd's three on
    [0, j] for j = n-4 .. n-2, the shuffle's two on [0, 2] and [0, 1], and
    the crossover index on [0, k-1]; its k + 1 doubles come between the
    fifth and the sixth. A draw on one value takes no half-word. Every array
    is read-only.
    """

    sizes: np.ndarray       # (6,) range size of each bounded draw of a trial
    thresholds: np.ndarray  # (6,) Lemire's threshold 2**32 % size of each
    words: np.ndarray       # (6 * trials,) the word holding each draw's last half-word
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
    sizes = np.array([n - 3, n - 2, n - 1, 3, 2, k], dtype=np.uint64)
    counts = np.tile(sizes > 1, trials).astype(np.intp)
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
    Generator on PCG64, when `choice` would raise (a population below 4), or
    when a draw is rejected, so that the caller redraws through the
    generator's methods.
    """
    f_low, f_high = cfg.f_range
    if (type(rng) is not np.random.Generator or type(rng.bit_generator) is not np.random.PCG64
            or n < 4):
        return None
    bg = rng.bit_generator
    start = bg.state
    layout = _draw_layout(n, k, trials, start["has_uint32"])
    words = bg.random_raw(layout.used)
    # each draw's half-word, then its product with the range size, in place
    # (a read of many trials would otherwise hold several copies at once)
    products = words[layout.words]
    products >>= layout.shifts
    products &= 0xFFFFFFFF
    products[:layout.buffered] = start["uinteger"]
    products = products.reshape(trials, 6)
    products *= layout.sizes
    if ((products & 0xFFFFFFFF) < layout.thresholds).any():
        bg.state = start
        return None
    end = bg.state
    end["has_uint32"] = layout.has_uint32
    end["uinteger"] = int(words[layout.last_word] >> 32)
    bg.state = end

    products >>= 32
    values = products.view(np.intp)
    a, b, c, s2, s1, forced = values.T  # views of the columns
    # Floyd: a value already taken is replaced by its draw's upper end (c is
    # compared with the replaced b)
    values[:, 1] = np.where(b == a, n - 3, b)
    values[:, 2] = np.where((c == a) | (c == b), n - 2, c)
    order = np.arange(trials)
    picked = values.ravel()[6 * order[:, None] + _SHUFFLES[s2, s1]]
    # position v in target i's donor pool is individual v + (v >= i), and
    # trial t's target is t % n
    targets = order % n
    donors = picked + (picked >= targets[:, None])
    # a double is (w >> 11) * 2**-53, exactly, so it is compared with cr
    # as the integer it scales
    doubles = words[layout.doubles]
    doubles >>= 11
    scales = f_low + (f_high - f_low) * (doubles[:, 0] * 2.0 ** -53)
    masks = doubles[:, 1:] <= cfg.cr * 2.0 ** 53
    masks[order, forced] = True
    return donors, scales, masks


def _trial_rows(table, donors, scales, keep, targets, lo, hi, out=None):
    """rand/1/bin trial coordinates, one row per trial: the mutant `r1 +
    scale * (r2 - r3)` of the trial's donor rows `table[donors]`, with the
    target's coordinates where `keep` is set, clamped to [lo, hi]. Takes the
    donor rows with one `take` of shape (m, 3, k); writes into `out`, else
    into a new array."""
    picked = table.take(donors, axis=0)
    rows = np.subtract(picked[:, 1], picked[:, 2], out=out)
    rows *= scales[:, None]
    rows += picked[:, 0]
    np.copyto(rows, targets, where=keep)
    np.maximum(rows, lo, out=rows)
    np.minimum(rows, hi, out=rows)
    return rows


# the raw words one read of a run's read-ahead takes at most; at k = 100 a
# read of more than about three generations is no cheaper per generation
_READ_WORDS = 1 << 14


class _ReadAhead:
    """A run's generation draws, decoded from its generator `rng` a chunk of
    generations at a time.

    The run's generations draw on one population with the coordinate counts
    `ks` in turn, one per generation and cyclically (DE's dimension, or CC's
    group sizes). A chunk is one `_pcg64_draws` read of trials that span
    consecutive generations with the same count: one generation at least,
    else as many as fit in `_READ_WORDS` raw words, and no more trials than
    the budget `ev` can still draw. Where numpy would reject a draw in the
    chunk, the generation at hand is drawn on its own, as on a plain
    generator, and the next one starts a new chunk.
    """

    def __init__(self, rng: np.random.Generator, ev: BudgetedEvaluator, ks: tuple[int, ...]):
        self.rng = rng
        self.ev = ev
        self.ks = ks
        self.turn = 0  # the index in `ks` of the next generation
        self.draws = ()
        self.served = self.read = 0  # trials of `draws` served and decoded

    def take(self, n: int, k: int, trials: int, cfg: DEConfig):
        """The draws of the next generation's first `trials` trials."""
        if self.served == self.read:
            self._read(n, k, trials, cfg)
        self.turn = (self.turn + 1) % len(self.ks)
        start = self.served
        stop = self.served = start + trials
        donors, scales, masks = self.draws
        return donors[start:stop], scales[start:stop], masks[start:stop]

    def _read(self, n: int, k: int, trials: int, cfg: DEConfig) -> None:
        ks = self.ks
        gens = max(1, _READ_WORDS // (n * (k + 4)))  # about k + 4 words per trial
        for ahead in range(1, min(gens, len(ks))):
            if ks[(self.turn + ahead) % len(ks)] != k:
                gens = ahead
                break
        count = min(gens * n, self.ev.remaining + 1)
        draws = _pcg64_draws(self.rng, n, k, count, cfg)
        if draws is None:
            count = trials
            draws = _generation_draws(self.rng, n, k, trials, cfg)
        self.draws = draws
        self.served, self.read = 0, count


def _generation_draws(rng, n: int, k: int, trials: int, cfg: DEConfig):
    """The draws of a generation's first `trials` trials: served by a run's
    read-ahead, else decoded from a PCG64 generator's raw words, else drawn
    through the generator's methods."""
    if isinstance(rng, _ReadAhead):
        return rng.take(n, k, trials, cfg)
    draws = _pcg64_draws(rng, n, k, trials, cfg)
    return draws if draws is not None else _method_draws(rng, n, k, trials, cfg)


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
    that meets BudgetExhausted) are taken before the first trial, from a
    run's read-ahead or from the generator (see `_generation_draws`). Every
    trial row is then built in one pass from the start-of-generation
    population. Trial i's row depends only on which of its earlier donors
    (trials before i) were accepted, since its target and its later donors
    are unchanged at trial i. On a pure objective the funded rows are
    evaluated uncharged in one wave, and the trials settle in order: a trial
    settles once every earlier donor has. Its first-wave value stands when
    none of those was accepted with a row that moved, one that differs in
    some bit from its target's start-of-generation row (a rebuilt row counts
    as moved); otherwise its row is built again once, from the trial row of
    each such donor and the start-of-generation row of every other donor,
    and evaluated with the other rebuilt rows in one more wave. An accepted
    donor that did not move would give the same input bits, so the same row
    and, the objective being pure, the same value. So no trial is evaluated
    more than twice. Once every funded trial has settled, each is charged in
    trial order with `ev.commit` and the accepted ones replace their
    targets. Any other objective is called through `ev.evaluate` trial by
    trial, on each row as the population stands just before that trial; it
    is called once per charged row anyway, so it keeps no first-wave value
    that a moved-row test could spare.
    """
    box = ev.objective.box
    n = len(population)
    k = coords.size
    lo = box.lower[coords]
    hi = box.upper[coords]
    trials = min(n, ev.remaining + 1)
    funded = min(trials, ev.remaining)
    donors, scales, masks = _generation_draws(rng, n, k, trials, cfg)
    keep = ~masks  # the coordinates each trial takes from its target
    # rows 0 .. n-1 hold the start-of-generation coordinates, row n + i
    # trial i's row as last built
    table = np.empty((n + trials, k))
    np.take(np.array([c.position for c in population]), coords, axis=1, out=table[:n])
    rows = _trial_rows(table, donors, scales, keep, table[:trials], lo, hi, out=table[n:])
    if context is None:
        points = rows
    else:
        points = np.tile(context, (trials, 1))
        points[:, coords] = rows
    accepted = [False] * n  # trial i replaced its target

    def rebuild(at: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """Build the rows of the trials `at` again from the rows `picks` of
        `table`, three per trial; returns their points."""
        fresh = _trial_rows(table, picks, scales[at], keep[at], table[at], lo, hi)
        table[n + at] = fresh
        if context is None:
            return fresh
        block = points[at]
        block[:, coords] = fresh
        return block

    if not ev.pure:
        for i, triple in enumerate(donors.tolist()):
            point = points[i]
            sources = [d + n if accepted[d] else d for d in triple]  # only d < i is settled
            if sources != triple:
                point = rebuild(np.array([i]), np.array([sources]))[0]
            try:
                value = ev.evaluate(point)
            except BudgetExhausted:
                return False
            if value <= population[i].value:
                population[i] = Candidate(point.copy(), value)
                accepted[i] = True
        return True

    # values[i] is the objective at trial i's row, uncharged until committed
    values = ev.speculate(points[:funded]) if funded else []
    # moved[i]: trial i's row differs in some bit from its target's start row
    # (bits, since -0.0 == 0.0). An accepted donor that did not move leaves its
    # followers' rows, and so their values, as they were built. The compare
    # takes two slices; a gather of the targets' rows cost DE about 10%
    moved = (table[n:n + funded].view(np.int64)
             != table[:funded].view(np.int64)).any(axis=1).tolist()
    # trial i settles once its waits[i] earlier donors have, and is built
    # again first when one of them was accepted and moved (redo[i]);
    # sources[i] lists the rows of `table` it is built from
    sources = donors.copy()
    slots = sources.reshape(-1)
    early = sources[:funded] < np.arange(funded)[:, None]
    waits = early.sum(axis=1).tolist()
    redo = [False] * funded
    followers = [[] for _ in range(funded)]  # (trial, slot) of each later use
    uses = np.flatnonzero(early)
    for slot, d in zip(uses.tolist(), slots[uses].tolist()):
        followers[d].append((slot // 3, slot))
    ready = [i for i in range(funded) if not waits[i]]
    rebuilt = False
    while ready:
        stale = []
        for i in ready:  # a trial released here is visited in this pass
            if redo[i]:
                stale.append(i)
                continue
            accepted[i] = values[i] <= population[i].value
            stirs = accepted[i] and moved[i]
            for j, slot in followers[i]:
                if stirs:
                    redo[j] = True
                    slots[slot] = n + i
                waits[j] -= 1
                if not waits[j]:
                    ready.append(j)
        ready = sorted(stale)
        if stale:
            at = np.array(ready)
            for i, value in zip(ready, ev.speculate(rebuild(at, sources[at]))):
                values[i] = value
                redo[i] = False
                # counted as moved without a compare: at worst one more rebuild
                moved[i] = True
            rebuilt = True
    if rebuilt and context is not None:
        points[:, coords] = rows
    for i in range(trials):
        try:
            # the trial past the budget, if any, meets BudgetExhausted
            point = points[i]
            value = ev.commit(point, values[i]) if i < funded else ev.evaluate(point)
        except BudgetExhausted:
            return False
        if accepted[i]:
            population[i] = Candidate(point.copy(), value)
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
    population = _init_population(cfg.pop_size, ev, named_stream(seed, "de-init"))
    gen = _ReadAhead(named_stream(seed, "de-gen"), ev, (objective.box.dim,))
    while ev.remaining > 0:
        de_generation(population, cfg, ev, gen)
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
    # every cycle's groups have these sizes, in this order; delta_grouping
    # raises here on more groups than dimensions
    sizes = tuple(map(len, delta_grouping(np.zeros(objective.box.dim), cfg.num_groups)))
    ev = BudgetedEvaluator(objective, max_nfe)
    state = cc_init(cfg, ev, named_stream(seed, "cc-init"))
    gen = _ReadAhead(named_stream(seed, "cc-gen"), ev, sizes)
    while ev.remaining > 0:
        cc_cycle(state, cfg, ev, gen)
    return RunResult(best=ev.best, used_nfe=ev.used_nfe, trace=ev.trace)
