"""Tests for the two comparison optimizers and the delta-grouping rules."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mcdopt import baselines
from mcdopt.baselines import (
    _READ_WORDS,
    CCConfig,
    CCState,
    DEConfig,
    RunResult,
    _donor_table,
    _draw_layout,
    _generation_on,
    _init_population,
    _method_draws,
    _pcg64_draws,
    _ReadAhead,
    cc_cycle,
    cc_init,
    de_generation,
    delta_grouping,
    run_cc,
    run_de,
)
from mcdopt.core import (
    Box,
    BudgetedEvaluator,
    Candidate,
    InsufficientBudget,
    NonFiniteValue,
    Objective,
    named_stream,
)

from mcdopt.benchfns import make_function

from helpers import (
    PureBatched,
    Recorder,
    ScriptedRNG,
    chunked_by_delta,
    reference_generation,
    sphere_objective,
)


class TestConfigs:
    def test_de_defaults(self):
        cfg = DEConfig()
        assert cfg.pop_size == 50
        assert cfg.cr == 0.9
        assert cfg.f_range == (0.2, 0.8)

    def test_de_scalar_f_range_rejected(self):
        with pytest.raises(TypeError):
            DEConfig(f_range=0.5)

    def test_de_validation(self):
        with pytest.raises(ValueError):
            DEConfig(pop_size=3)
        with pytest.raises(ValueError):
            DEConfig(cr=1.5)
        with pytest.raises(ValueError):
            DEConfig(f_range=(0.9, 0.2))
        for f_range in ((0.2, math.inf), (math.nan, 0.5), (-math.inf, 0.5),
                        (0.2, math.nan), (-1e308, 1e308)):
            with pytest.raises(ValueError):
                DEConfig(pop_size=5, f_range=f_range)

    def test_cc_defaults(self):
        cfg = CCConfig()
        assert (cfg.pop_size, cfg.f, cfg.cr, cfg.num_groups) == (50, 0.5, 0.9, 10)

    def test_cc_cycles_run_the_de_config_it_checks(self):
        cfg = CCConfig(pop_size=6, f=0.3, cr=0.7)
        assert cfg.inner_de() == DEConfig(pop_size=6, cr=0.7, f_range=(0.3, 0.3))

    def test_cc_validation(self):
        with pytest.raises(ValueError):
            CCConfig(pop_size=2)
        with pytest.raises(ValueError):
            CCConfig(cr=-0.1)
        with pytest.raises(ValueError):
            CCConfig(num_groups=0)
        for f in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                CCConfig(pop_size=5, f=f, num_groups=1)


def _seeded_population(positions, ev):
    return [Candidate(np.array(p, dtype=float), ev.evaluate(np.array(p, dtype=float)))
            for p in positions]


class TestDeGeneration:
    def test_scripted_transcript(self):
        # hand-checked rand/1/bin pass over the population -4,-2,0,2,4 on x^2
        # with F forced to 0.5 and immediate replacement of beaten targets
        obj = Objective(lambda p: float(p[0] ** 2), Box([-10.0], [10.0]))
        ev = BudgetedEvaluator(obj, 10)
        population = _seeded_population([[-4.0], [-2.0], [0.0], [2.0], [4.0]], ev)
        rng = ScriptedRNG(
            choices=[(2, 3, 4), (2, 3, 4), (0, 1, 3), (0, 1, 2), (0, 1, 2)],
            uniforms=[0.5] * 5,
            randoms=[[0.0]] * 5,
            integers=[0] * 5,
        )
        de_generation(population, DEConfig(pop_size=5), ev, rng)
        # target 0: 0 + 0.5*(2-4) = -1, f=1  beats 16
        # target 1: same mutant from the already-updated view, f=1 beats 4
        # target 2: -1 + 0.5*(-1-2) = -2.5, f=6.25 loses to 0
        # target 3: -1 + 0.5*(-1-0) = -1.5, f=2.25 beats 4
        # target 4: -1.5 again, beats 16
        assert [c.position[0] for c in population] == [-1.0, -1.0, 0.0, -1.5, -1.5]
        assert [c.value for c in population] == [1.0, 1.0, 0.0, 2.25, 2.25]
        assert ev.used_nfe == 10
        rng.assert_drained()
        # one draw of each kind per target, in a fixed order
        assert rng.log == ["choice", "uniform", "random", "integers"] * 5

    def test_identical_population_is_fixed_point(self):
        obj = sphere_objective(2, low=-10.0, high=10.0)
        ev = BudgetedEvaluator(obj, 100)
        point = [2.5, -1.0]
        population = _seeded_population([point] * 5, ev)
        de_generation(population, DEConfig(pop_size=5), ev, named_stream(0, "t"))
        for cand in population:
            assert cand.position.tolist() == point
            assert cand.value == 7.25

    def test_full_crossover_trial_equals_mutant(self):
        # selection never fires (every new point maps to a huge value), so
        # mutants are computable from the initial population throughout
        positions = [[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0], [2.0, -2.0], [0.5, 1.0]]
        table = {tuple(p): float(i) for i, p in enumerate(positions)}
        fn = lambda p: table.get(tuple(p), 1e9)
        inner = Objective(fn, Box([-10.0, -10.0], [10.0, 10.0]))
        recorder = Recorder(inner)
        ev = BudgetedEvaluator(recorder, 100)
        population = _seeded_population(positions, ev)
        donors = [(1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1), (0, 1, 2)]
        rng = ScriptedRNG(
            choices=donors,
            uniforms=[0.5] * 5,
            randoms=[[0.3, 0.9]] * 5,
            integers=[1] * 5,
        )
        de_generation(population, DEConfig(pop_size=5, cr=1.0, f_range=(0.5, 0.5)),
                      ev, rng)
        base = [np.array(p) for p in positions]
        for k, (r1, r2, r3) in enumerate(donors):
            mutant = base[r1] + 0.5 * (base[r2] - base[r3])
            assert np.array_equal(recorder.calls[5 + k], mutant)
        # nothing was selected, the population is untouched
        for cand, p in zip(population, positions):
            assert cand.position.tolist() == p

    def test_out_of_box_mutants_are_clamped(self):
        obj = Objective(lambda p: float((p[0] - 0.3) ** 2), Box([0.0], [1.0]))
        recorder = Recorder(obj)
        ev = BudgetedEvaluator(recorder, 100)
        population = _seeded_population([[0.1], [0.2], [0.9], [0.5], [0.8]], ev)
        rng = ScriptedRNG(
            # target 0: 0.9 + 3*(0.8-0.2) = 2.7, clamped to the upper bound
            # target 1: 0.9 + 3*(0.1-0.8) = -1.2, clamped to the lower bound
            choices=[(2, 4, 1), (2, 0, 4), (0, 1, 3), (0, 1, 2), (0, 1, 2)],
            uniforms=[3.0, 3.0, 0.25, 0.25, 0.25],
            randoms=[[0.0]] * 5,
            integers=[0] * 5,
        )
        de_generation(population, DEConfig(pop_size=5, f_range=(0.2, 3.0)), ev, rng)
        assert recorder.calls[5][0] == 1.0
        assert recorder.calls[6][0] == 0.0
        for call in recorder.calls:
            assert 0.0 <= call[0] <= 1.0
        # both clamped trials evaluate worse than their targets
        assert population[0].position[0] == 0.1
        assert population[1].position[0] == 0.2

    def test_midway_exhaustion_keeps_completed_selections(self):
        obj = sphere_objective(2, low=-5.0, high=5.0)
        ev = BudgetedEvaluator(obj, 8)
        rng = named_stream(12, "de-init")
        population = _init_population(5, ev, rng)
        before = [(c.position.copy(), c.value) for c in population]
        completed = _generation_on(population, np.arange(2), None,
                                   DEConfig(pop_size=5), ev, named_stream(12, "de-gen"))
        assert completed is False
        assert ev.used_nfe == 8  # 5 for the population, 3 trials
        for i in (0, 1, 2):
            assert population[i].value <= before[i][1]
        for i in (3, 4):
            assert np.array_equal(population[i].position, before[i][0])
            assert population[i].value == before[i][1]

    def test_run_de_spends_whole_budget(self):
        obj = sphere_objective(3, shift=np.array([10.0, -20.0, 5.0]))
        result = run_de(obj, 64, seed=5, cfg=DEConfig(pop_size=10))
        assert result.used_nfe == 64
        assert result.best.value == min(v for _, v in result.trace)
        values = [v for _, v in result.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_run_de_determinism(self):
        obj = sphere_objective(2)
        a = run_de(obj, 40, seed=9, cfg=DEConfig(pop_size=8))
        b = run_de(obj, 40, seed=9, cfg=DEConfig(pop_size=8))
        assert a.best.value == b.best.value
        assert np.array_equal(a.best.position, b.best.position)
        assert a.trace == b.trace


@pytest.mark.parametrize("n", [4, 5, 50])
def test_donor_table_draws_match_per_individual_pools(n):
    table = _donor_table(n)
    assert table.shape == (n, n - 1)
    table_rng = named_stream(8, "donors")
    pool_rng = named_stream(8, "donors")
    for draw in range(2000):
        i = draw % n
        picked = table_rng.choice(table[i], size=3, replace=False)
        expected = pool_rng.choice(np.delete(np.arange(n), i), size=3, replace=False)
        assert np.array_equal(picked, expected)


class TestDeltaGrouping:
    def test_sort_then_chunk(self):
        groups = delta_grouping([5.0, 1.0, 9.0, 3.0], 2)
        assert [g.tolist() for g in groups] == [[2, 0], [3, 1]]

    def test_all_zero_tie_break(self):
        groups = delta_grouping(np.zeros(4), 2)
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3]]

    def test_remainder_absorbed_by_last_group(self):
        groups = delta_grouping(np.zeros(5), 2)
        assert [len(g) for g in groups] == [2, 3]
        assert groups[1].tolist() == [2, 3, 4]

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(1, 40))
            num_groups = int(rng.integers(1, d + 1))
            if rng.random() < 0.5:
                deltas = rng.uniform(0.0, 10.0, size=d)
            else:
                deltas = rng.integers(0, 4, size=d).astype(float)  # force ties
            ours = [g.tolist() for g in delta_grouping(deltas, num_groups)]
            assert ours == chunked_by_delta(deltas, num_groups)

    def test_rejects_bad_group_counts(self):
        with pytest.raises(ValueError):
            delta_grouping([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            delta_grouping([1.0, 2.0], 3)


class TestInitPopulation:
    POP = 6

    @staticmethod
    def row_by_row(pop_size, ev, rng):
        """One draw per row, evaluated until the budget is gone."""
        box = ev.objective.box
        population = []
        while len(population) < pop_size and ev.remaining > 0:
            position = box.lower + rng.random(box.dim) * (box.upper - box.lower)
            population.append(Candidate(position, ev.evaluate(position)))
        return population

    @pytest.mark.parametrize("budget", [1, POP - 1, POP, POP + 1])
    def test_matches_row_by_row_draws(self, budget):
        obj = sphere_objective(3, low=-5.0, high=7.0, shift=np.array([1.0, -2.0, 3.0]))
        ev, ev_ref = BudgetedEvaluator(obj, budget), BudgetedEvaluator(obj, budget)
        rng, rng_ref = named_stream(5, "init"), named_stream(5, "init")
        population = _init_population(self.POP, ev, rng)
        reference = self.row_by_row(self.POP, ev_ref, rng_ref)
        assert len(population) == min(self.POP, budget)
        assert [c.position.tobytes() for c in population] == \
            [c.position.tobytes() for c in reference]
        assert [c.value for c in population] == [c.value for c in reference]
        assert (ev.used_nfe, ev.trace) == (ev_ref.used_nfe, ev_ref.trace)
        # the generator stands after the rows it drew
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        for a, b in itertools.combinations(population, 2):
            assert not np.shares_memory(a.position, b.position)


class TestCooperative:
    def test_init_snapshots_best(self):
        obj = sphere_objective(3)
        ev = BudgetedEvaluator(obj, 20)
        state = cc_init(CCConfig(pop_size=8, num_groups=3), ev, named_stream(4, "cc-init"))
        assert len(state.population) == 8
        assert ev.used_nfe == 8
        assert ev.best.value == min(c.value for c in state.population)
        assert np.array_equal(state.anchor, ev.best.position)
        assert state.anchor is not ev.best.position
        assert state.last_groups is None  # no cycle has run yet

    def test_init_with_no_budget_left(self):
        obj = sphere_objective(2)
        ev = BudgetedEvaluator(obj, 1)
        ev.evaluate(np.zeros(2))
        rng = named_stream(0, "cc-init")
        start = rng.bit_generator.state
        with pytest.raises(InsufficientBudget):
            cc_init(CCConfig(pop_size=4), ev, rng)
        assert rng.bit_generator.state == start  # no row is drawn

    def test_first_cycle_groups_are_contiguous(self):
        obj = sphere_objective(4)
        ev = BudgetedEvaluator(obj, 100)
        cfg = CCConfig(pop_size=6, num_groups=2)
        state = cc_init(cfg, ev, named_stream(2, "cc-init"))
        cc_cycle(state, cfg, ev, named_stream(2, "cc-gen"))
        assert [g.tolist() for g in state.last_groups] == [[0, 1], [2, 3]]

    def test_context_vector_fills_out_of_group_coordinates(self):
        inner = sphere_objective(3, low=-10.0, high=10.0)
        recorder = Recorder(inner)
        ev = BudgetedEvaluator(recorder, 100)
        population = _init_population(5, ev, named_stream(6, "cc-init"))
        context = np.array([7.7, 0.0, -3.3])
        _generation_on(population, np.array([1]), context,
                       DEConfig(pop_size=5, f_range=(0.5, 0.5)), ev,
                       named_stream(6, "cc-gen"))
        trials = recorder.calls[5:]
        assert len(trials) == 5
        for trial in trials:
            assert trial[0] == 7.7
            assert trial[2] == -3.3

    def test_second_cycle_grouping_matches_oracle(self):
        obj = sphere_objective(4, shift=np.array([30.0, -45.0, 12.0, 70.0]))
        ev = BudgetedEvaluator(obj, 500)
        cfg = CCConfig(pop_size=6, num_groups=2)
        rng = named_stream(8, "cc-gen")
        state = cc_init(cfg, ev, named_stream(8, "cc-init"))
        anchor0 = ev.best.position.copy()
        cc_cycle(state, cfg, ev, rng)
        anchor1 = ev.best.position.copy()
        cc_cycle(state, cfg, ev, rng)
        expected = chunked_by_delta(np.abs(anchor1 - anchor0), 2)
        assert [g.tolist() for g in state.last_groups] == expected

    def test_single_group_cycle_equals_plain_generation(self):
        shift = np.array([1.0, -2.0, 0.5])
        obj_a = sphere_objective(3, low=-5.0, high=5.0, shift=shift)
        obj_b = sphere_objective(3, low=-5.0, high=5.0, shift=shift)
        ev_a = BudgetedEvaluator(obj_a, 100)
        ev_b = BudgetedEvaluator(obj_b, 100)
        pop_a = _init_population(6, ev_a, named_stream(11, "shared-init"))
        pop_b = _init_population(6, ev_b, named_stream(11, "shared-init"))
        de_generation(pop_a, DEConfig(pop_size=6, cr=0.9, f_range=(0.5, 0.5)),
                      ev_a, named_stream(13, "shared-gen"))
        state = CCState(population=pop_b, anchor=ev_b.best.position.copy())
        cc_cycle(state, CCConfig(pop_size=6, f=0.5, cr=0.9, num_groups=1),
                 ev_b, named_stream(13, "shared-gen"))
        assert ev_a.used_nfe == ev_b.used_nfe
        for a, b in zip(pop_a, pop_b):
            assert np.array_equal(a.position, b.position)
            assert a.value == b.value

    def test_groups_partition_every_cycle(self):
        obj = sphere_objective(7, shift=np.array([5.0, 1.0, -9.0, 3.0, 0.0, -2.0, 8.0]))
        ev = BudgetedEvaluator(obj, 2000)
        cfg = CCConfig(pop_size=6, num_groups=3)
        rng = named_stream(3, "cc-gen")
        state = cc_init(cfg, ev, named_stream(3, "cc-init"))
        for _ in range(3):
            cc_cycle(state, cfg, ev, rng)
            merged = sorted(int(i) for g in state.last_groups for i in g)
            assert merged == list(range(7))
            assert [len(g) for g in state.last_groups] == [2, 2, 3]

    def test_more_groups_than_dimensions_rejected(self):
        obj = sphere_objective(2)
        ev = BudgetedEvaluator(obj, 100)
        cfg = CCConfig(pop_size=5, num_groups=3)
        state = cc_init(cfg, ev, named_stream(1, "cc-init"))
        with pytest.raises(ValueError):
            cc_cycle(state, cfg, ev, named_stream(1, "cc-gen"))

    def test_run_cc_rejects_more_groups_than_dimensions_before_spending(self):
        calls = []
        obj = Objective(lambda p: calls.append(1) or float(p @ p),
                        Box(np.full(3, -100.0), np.full(3, 100.0)), optimum_value=0.0)
        with pytest.raises(ValueError, match=r"num_groups must lie in \[1, 3\], got 10"):
            run_cc(obj, 200, 0, CCConfig(num_groups=10))
        assert calls == []

    def test_run_cc_spends_whole_budget(self):
        obj = sphere_objective(4, shift=np.array([22.0, -8.0, 50.0, -61.0]))
        result = run_cc(obj, 55, seed=2, cfg=CCConfig(pop_size=10, num_groups=2))
        assert result.used_nfe == 55
        values = [v for _, v in result.trace]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert result.best.value == values[-1]

    def test_run_cc_determinism(self):
        obj = sphere_objective(3)
        a = run_cc(obj, 60, seed=14, cfg=CCConfig(pop_size=8, num_groups=3))
        b = run_cc(obj, 60, seed=14, cfg=CCConfig(pop_size=8, num_groups=3))
        assert a.best.value == b.best.value
        assert a.trace == b.trace


class MethodCallGenerator(np.random.Generator):
    """A Generator that `_generation_on` draws from by calling its methods."""


def _twin(rng):
    """A method-call generator standing exactly where `rng` stands."""
    twin = MethodCallGenerator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


def _place_word(rng, offset, word):
    """Set `rng` so that raw word number `offset` (0 is the next) equals `word`.

    PCG64 steps its 128-bit LCG state, then outputs the high and low halves
    XORed and rotated right by the top six state bits. Pick a state with a
    fixed high half whose output is `word`, then undo `offset + 1` LCG steps;
    the multiplier is odd, so it has an inverse modulo 2**128.
    """
    inc = rng.bit_generator.state["state"]["inc"]
    high = 0xB7E151628AED2A6A  # rotation 45
    rot = high >> 58
    low = (((word << rot) | (word >> (64 - rot))) & MASK64) ^ high
    state = (high << 64) | low
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(offset + 1):
        state = ((state - inc) * inverse) & MASK128
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def _assert_same_draws(rng, n, k, trials, cfg):
    """Decode `trials` trials from `rng` and check them, and where they leave
    the generator, against the method calls on a twin."""
    twin = _twin(rng)
    got = list(zip(*_pcg64_draws(rng, n, k, trials, cfg)))
    want = list(zip(*_method_draws(twin, n, k, trials, cfg)))
    assert len(got) == trials
    for (donors, scale, mask), (want_donors, want_scale, want_mask) in zip(got, want):
        assert [int(r) for r in donors] == want_donors.tolist()
        assert scale == want_scale
        assert mask.tolist() == want_mask.tolist()
    assert rng.bit_generator.state == twin.bit_generator.state


class TestDecodedDraws:
    @pytest.mark.parametrize("n", [4, 5, 8, 50])
    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    @pytest.mark.parametrize("has_uint32", [0, 1])
    def test_decoded_draws_equal_method_draws(self, n, k, has_uint32):
        rng = named_stream(100 * n + k, "decode")
        if has_uint32:
            rng.integers(7)  # leaves the high half-word in the buffer
        assert rng.bit_generator.state["has_uint32"] == has_uint32
        for cfg in (DEConfig(pop_size=n), DEConfig(pop_size=n, cr=0.3, f_range=(0.5, 0.5))):
            for trials in (1, 2, n - 1, n):
                _assert_same_draws(rng, n, k, trials, cfg)

    @pytest.mark.parametrize("n", [4, 5, 8, 50])
    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    def test_generation_equals_method_call_generation(self, n, k):
        # remaining budgets cut the generation at its first, second, middle
        # and last trial, or not at all
        for remaining, with_context, has_uint32 in itertools.product(
                (0, 1, n // 2, n - 1, n, n + 3), (False, True), (0, 1)):
            dim = k + 3 if with_context else k
            coords = named_stream(dim, "coords").permutation(dim)[:k]
            outcomes = []
            for make_rng in (lambda: named_stream(n + k, "decode-gen"),
                             lambda: _twin(named_stream(n + k, "decode-gen"))):
                rng = make_rng()
                if has_uint32:
                    rng.integers(7)
                obj = sphere_objective(dim, low=-5.0, high=5.0,
                                       shift=np.linspace(-2.0, 3.0, dim))
                ev = BudgetedEvaluator(obj, n + remaining)
                population = _init_population(n, ev, named_stream(k, "decode-init"))
                context = ev.best.position.copy() if with_context else None
                completed = _generation_on(population, coords, context,
                                           DEConfig(pop_size=n), ev, rng)
                outcomes.append((completed, ev.used_nfe, ev.trace,
                                 [(c.position.tobytes(), c.value) for c in population],
                                 rng.bit_generator.state))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == (remaining >= n)

    @pytest.mark.parametrize("offset, half, size", [
        (0, 0, 47),  # Floyd on [0, 46]
        (0, 1, 48),  # Floyd on [0, 47]
        (1, 0, 49),  # Floyd on [0, 48]
        (1, 1, 3),   # shuffle on [0, 2]
        (2, 1, 3),   # integers(3), after the block of four doubles
        (0, 2, 47),  # Floyd on [0, 46], rejected twice
    ])
    def test_lemire_rejection(self, offset, half, size):
        # from an empty half-word buffer, trial 0's bounded draws read the
        # low, then the high half of words 0, 1 and 2; a half-word of 0
        # leaves 0 below Lemire's threshold 2**32 % size, so it is rejected
        # (half 2 zeroes both halves)
        assert (1 << 32) % size > 0
        word = {0: 0x9E3779B9 << 32, 1: 0x9E3779B9, 2: 0}[half]
        rng = named_stream(offset, "reject")
        _place_word(rng, offset, word)
        assert _twin(rng).bit_generator.random_raw(offset + 1)[-1] == word
        before = rng.bit_generator.state
        assert _pcg64_draws(rng, 50, 3, 2, DEConfig()) is None
        assert rng.bit_generator.state == before
        # so the generation draws through the methods, as a twin does
        outcomes = []
        for gen in (rng, _twin(rng)):
            ev = BudgetedEvaluator(sphere_objective(3), 100)
            population = _init_population(50, ev, named_stream(offset, "reject-init"))
            _generation_on(population, np.arange(3), None, DEConfig(), ev, gen)
            outcomes.append(([(c.position.tobytes(), c.value) for c in population],
                             ev.trace, ev.used_nfe, gen.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        # past the rejected word, the draws decode again
        rng = named_stream(offset, "reject")
        _place_word(rng, offset, word)
        rng.bit_generator.advance(offset + 1)
        _assert_same_draws(rng, 50, 3, 2, DEConfig())

    def test_method_calls_where_decoding_does_not_apply(self):
        cfg = DEConfig(pop_size=8)
        for rng in (np.random.Generator(np.random.MT19937(1)),
                    MethodCallGenerator(np.random.PCG64(1))):
            assert _pcg64_draws(rng, 8, 4, 8, cfg) is None
        rng = named_stream(1, "odd")
        before = rng.bit_generator.state
        assert _pcg64_draws(rng, 3, 4, 3, cfg) is None
        assert rng.bit_generator.state == before
        # a width DEConfig rejects cannot be set after construction either:
        # no field of either config can
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.f_range = (-1e308, 1e308)
        for config in (cfg, CCConfig()):
            for f in dataclasses.fields(config):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(config, f.name, getattr(config, f.name))
        with pytest.raises(ValueError, match="width must be finite"):
            dataclasses.replace(cfg, f_range=(0.2, math.inf))
        # so the calls raise as they always did
        ev = BudgetedEvaluator(sphere_objective(2), 100)
        population = _init_population(3, ev, named_stream(1, "odd-init"))
        with pytest.raises(ValueError):
            _generation_on(population, np.arange(2), None, cfg, ev, rng)


def _mostly_accepting(dim):
    """An objective whose values fall with every call but each fifth, so most
    trials replace their targets and later trials draw on replaced donors."""
    calls = itertools.count(1)

    def fn(x):
        call = next(calls)
        return 1e9 if call % 5 == 0 else 1e-9 * float(x @ x) - call

    return Objective(fn, Box(np.full(dim, -5.0), np.full(dim, 5.0)))


def _plateau(dim):
    """A pure objective with two levels, 1 where the mean square coordinate
    is 15 or more and 0 below, so that most trials tie with or beat their
    targets and later trials draw on replaced donors."""
    return PureBatched(Objective(lambda x: float(x @ x >= 15.0 * dim),
                                 Box(np.full(dim, -5.0), np.full(dim, 5.0))))


def _reference_objective(objective, dim):
    if objective == "mostly accepting":
        return _mostly_accepting(dim)
    if objective == "pure plateau":
        return _plateau(dim)
    if objective == "suite":
        return make_function("rastrigin-group", dim, dim)
    obj = sphere_objective(dim, low=-5.0, high=5.0, shift=np.linspace(-2.0, 3.0, dim))
    return PureBatched(obj) if objective == "pure sphere" else obj


class TestReferenceGeneration:
    @pytest.mark.parametrize("n, dim, k", [
        (4, 3, 3), (5, 6, 2), (12, 10, 10), (12, 10, 1), (50, 100, 100), (50, 100, 10)])
    @pytest.mark.parametrize("objective", [
        "sphere", "mostly accepting", "pure sphere", "pure plateau", "suite"])
    @pytest.mark.parametrize("method_calls", [False, True])
    def test_generations_equal_the_reference(self, n, dim, k, objective, method_calls):
        # k == dim is plain DE; otherwise a CC context supplies the other
        # coordinates. Two whole generations, then the budget cuts the third
        # at its first, second, middle or last trial, or the fourth. The pure
        # objectives evaluate their trials in waves, the others one by one.
        coords = np.arange(dim) if k == dim else named_stream(dim, "ref").permutation(dim)[:k]
        for remaining in (0, 1, n // 2, n - 1, n + 3):
            outcomes = []
            for generation in (_generation_on, reference_generation):
                obj = _reference_objective(objective, dim)
                ev = BudgetedEvaluator(obj, 3 * n + remaining)
                population = _init_population(n, ev, named_stream(dim, "ref-init"))
                rng = named_stream(n + k, "ref-gen")
                if method_calls and generation is _generation_on:
                    rng = _twin(rng)
                generations = []
                completed = True
                while completed:
                    before = list(population)
                    context = None if k == dim else ev.best.position
                    completed = generation(population, coords, context,
                                           DEConfig(pop_size=n), ev, rng)
                    generations.append(
                        (completed, [(c.position.tobytes(), c.value) for c in population]))
                    if generation is _generation_on:
                        # each position owns its memory, so no candidate keeps a
                        # generation's trial rows alive, and no two overlap
                        assert all(c.position.base is None for c in population)
                        for a, b in itertools.combinations(population, 2):
                            assert not np.shares_memory(a.position, b.position)
                        if objective in ("mostly accepting", "pure plateau") \
                                and len(generations) == 1:
                            assert sum(a is not b for a, b in zip(before, population)) > n / 2
                if generation is _generation_on:
                    charged = ev.used_nfe - n
                    if objective == "pure plateau":
                        # replaced donors made rows stale, which were built
                        # and evaluated again
                        assert ev.speculated > charged
                    elif objective.startswith("pure"):
                        # only the initial population is evaluated row by row
                        assert ev.speculated == obj.batched >= charged
                        assert obj.evaluated == n
                    elif objective != "suite":
                        assert ev.speculated == 0
                outcomes.append((generations, ev.used_nfe, ev.trace, rng.bit_generator.state))
            assert outcomes[0] == outcomes[1]
            assert len(outcomes[0][0]) == (3 if remaining < n else 4)


class TestSpeculativeGeneration:
    """A pure objective's trials are evaluated in waves before they are
    charged; nothing else about a generation may show it."""

    @pytest.mark.parametrize("k", [6, 2])
    def test_a_nan_mid_wave_stops_where_the_reference_does(self, k):
        # trial t's point gives NaN: the trials before it are charged and
        # replace their targets, and the generation stops there, as the
        # trial-by-trial reference does
        n, dim, t = 12, 6, 6
        coords = np.arange(dim) if k == dim else np.array([1, 4])
        cfg = DEConfig(pop_size=n)
        box = Box(np.full(dim, -5.0), np.full(dim, 5.0))
        recorder = Recorder(sphere_objective(dim, low=-5.0, high=5.0))
        ev = BudgetedEvaluator(recorder, 100)
        population = _init_population(n, ev, named_stream(k, "nan-init"))
        context = None if k == dim else ev.best.position
        reference_generation(population, coords, context, cfg, ev,
                             named_stream(k, "nan-gen"))
        bad = recorder.calls[n + t].tobytes()
        outcomes = []
        for generation in (_generation_on, reference_generation):
            obj = PureBatched(Objective(
                lambda x: math.nan if x.tobytes() == bad else float(x @ x), box))
            ev = BudgetedEvaluator(obj, 100)
            population = _init_population(n, ev, named_stream(k, "nan-init"))
            before = list(population)
            context = None if k == dim else ev.best.position
            with pytest.raises(NonFiniteValue):
                generation(population, coords, context, cfg, ev, named_stream(k, "nan-gen"))
            assert any(a is not b for a, b in zip(before[:t], population[:t]))
            assert all(a is b for a, b in zip(before[t:], population[t:]))
            outcomes.append((ev.used_nfe, ev.trace, ev.best.position.tobytes(),
                             [(c.position.tobytes(), c.value) for c in population]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == n + t

    @pytest.mark.parametrize("run, cfg", [(run_de, DEConfig(pop_size=10)),
                                          (run_cc, CCConfig(pop_size=10, num_groups=3))])
    def test_an_impure_objective_is_called_once_per_charged_evaluation(self, run, cfg):
        recorder = Recorder(sphere_objective(6))
        assert run(recorder, 137, 3, cfg).used_nfe == len(recorder.calls) == 137
        # evaluate_batch alone does not make an objective pure
        unmarked = PureBatched(sphere_objective(6))
        unmarked.pure = False
        assert run(unmarked, 137, 3, cfg).used_nfe == unmarked.evaluated == 137
        assert unmarked.batched == 0

    def test_the_speculated_count_is_the_rows_handed_to_evaluate_batch(self):
        for generation in ("de", "cc"):
            obj = PureBatched(make_function("rastrigin", 20, 4))
            ev = BudgetedEvaluator(obj, 1234)
            rng = named_stream(4, "gen")
            if generation == "de":
                cfg = DEConfig(pop_size=10)
                population = _init_population(10, ev, named_stream(4, "de-init"))
                while ev.remaining:
                    de_generation(population, cfg, ev, rng)
            else:
                cfg = CCConfig(pop_size=10, num_groups=4)
                state = cc_init(cfg, ev, named_stream(4, "cc-init"))
                while ev.remaining:
                    cc_cycle(state, cfg, ev, rng)
            assert obj.evaluated == 10  # the initial population, row by row
            assert ev.speculated == obj.batched >= ev.used_nfe - 10


def _generation_outcome(population, ev):
    return ([(c.position.tobytes(), c.value) for c in population], ev.used_nfe, ev.trace)


def _earlier_donor_depth(donors, moved=None):
    """Each trial's depth in the chain of its earlier donors: 0 without one,
    else one more than the deepest of them. With a `moved` mask, an earlier
    donor is skipped when its row as first built did not move (`moved[d]`
    false) and it was not built again itself (depth 0)."""
    depth = []
    for i, triple in enumerate(donors.tolist()):
        depth.append(1 + max((depth[d] for d in triple
                              if d < i and (moved is None or moved[d] or depth[d])),
                             default=-1))
    return depth


def _moved_rows(population, coords, draws, box):
    """Whether each trial's row, built from the population as it stands,
    differs in some bit from its target's row (bits, since -0.0 == 0.0)."""
    donors, scales, masks = draws
    rows = np.array([c.position[coords] for c in population])
    r1, r2, r3 = rows[donors].transpose(1, 0, 2)
    trial = np.where(masks, r1 + scales[:, None] * (r2 - r3), rows)
    trial = np.minimum(np.maximum(trial, box.lower[coords]), box.upper[coords])
    return (trial.view(np.int64) != rows.view(np.int64)).any(axis=1).tolist()


class Waves(PureBatched):
    """A pure objective that also logs the row count of each wave."""

    def __init__(self, inner):
        super().__init__(inner)
        self.waves = []

    def evaluate_batch(self, positions):
        self.waves.append(len(positions))
        return super().evaluate_batch(positions)


class TestSettledWaves:
    """A pure objective's trials settle in order: each is evaluated once more
    at most, after every earlier donor has settled."""

    @pytest.mark.parametrize("n, dim, k", [(5, 6, 2), (12, 10, 10), (50, 100, 100), (50, 100, 10)])
    @pytest.mark.parametrize("objective", ["pure sphere", "pure plateau", "suite"])
    def test_each_trial_is_evaluated_twice_at_most(self, n, dim, k, objective):
        coords = np.arange(dim) if k == dim else named_stream(dim, "twice").permutation(dim)[:k]
        outcomes = []
        for generation in (_generation_on, reference_generation):
            ev = BudgetedEvaluator(_reference_objective(objective, dim), 4 * n + n // 2)
            population = _init_population(n, ev, named_stream(dim, "twice-init"))
            rng = named_stream(n + k, "twice-gen")
            generations = []
            completed = True
            while completed:
                used, speculated = ev.used_nfe, ev.speculated
                context = None if k == dim else ev.best.position
                completed = generation(population, coords, context,
                                       DEConfig(pop_size=n), ev, rng)
                assert ev.speculated - speculated <= 2 * (ev.used_nfe - used)
                generations.append(_generation_outcome(population, ev))
            outcomes.append(generations)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n, dim, k", [(4, 3, 3), (12, 10, 10), (50, 100, 100), (50, 100, 10)])
    def test_waves_follow_the_longest_chain_of_accepted_donors(self, n, dim, k, shared=1):
        # every trial ties with its target, so every trial is accepted and a
        # trial with an earlier donor that moved waits for the deepest one.
        # The first `shared` individuals hold one position, so a trial among
        # them whose donors are too keeps its target's row: it does not
        # move, and the chain is shorter than its accepted donors' chain
        coords = np.arange(dim) if k == dim else np.arange(dim)[::-1][:k]
        cfg = DEConfig(pop_size=n)
        box = Box(np.full(dim, -5.0), np.full(dim, 5.0))
        outcomes = []
        for generation in (_generation_on, reference_generation):
            obj = Waves(Objective(lambda x: 0.0, box))
            ev = BudgetedEvaluator(obj, 4 * n)
            population = _init_population(n, ev, named_stream(k, "chain-init"))
            population[1:shared] = [Candidate(population[0].position.copy(), 0.0)
                                    for _ in range(1, shared)]
            rng = named_stream(k, "chain-gen")
            shorter = 0
            for _ in range(3):
                draws = _method_draws(_twin(rng), n, k, n, cfg)
                depth = max(_earlier_donor_depth(draws[0],
                                                 _moved_rows(population, coords, draws, box)))
                shorter += depth < max(_earlier_donor_depth(draws[0]))
                before = list(population)
                context = None if k == dim else ev.best.position
                waves = len(obj.waves)
                assert generation(population, coords, context, cfg, ev, rng)
                assert all(a is not b for a, b in zip(before, population))
                if generation is _generation_on:
                    assert len(obj.waves) - waves == 1 + depth
            assert (shorter > 0) == (shared > 1)
            outcomes.append(_generation_outcome(population, ev))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n, dim, k, shared", [(12, 10, 10, 11), (50, 100, 100, 47)])
    def test_waves_skip_accepted_donors_whose_rows_did_not_move(self, n, dim, k, shared):
        self.test_waves_follow_the_longest_chain_of_accepted_donors(n, dim, k, shared)

    @pytest.mark.parametrize("n, dim, k", [(5, 6, 2), (12, 10, 10), (50, 100, 100), (50, 100, 10)])
    def test_a_collapsed_population_takes_one_wave_a_generation(self, n, dim, k):
        # every individual holds one position, so every mutant is that
        # position bit for bit: each trial ties and is accepted, but no row
        # moves, so no later trial is built again. Three whole generations,
        # then the budget cuts the fourth in its middle
        coords = np.arange(dim) if k == dim else named_stream(dim, "collapsed").permutation(dim)[:k]
        point = named_stream(dim, "collapsed-point").uniform(-5.0, 5.0, dim)
        outcomes = []
        for generation in (_generation_on, reference_generation):
            obj = Waves(sphere_objective(dim, low=-5.0, high=5.0))
            ev = BudgetedEvaluator(obj, 4 * n + n // 2)
            population = _seeded_population([point] * n, ev)
            rng = named_stream(n + k, "collapsed-gen")
            generations = []
            completed = True
            while completed:
                waves, used, speculated = len(obj.waves), ev.used_nfe, ev.speculated
                context = None if k == dim else ev.best.position
                completed = generation(population, coords, context,
                                       DEConfig(pop_size=n), ev, rng)
                if generation is _generation_on:
                    assert len(obj.waves) - waves == 1
                    assert ev.speculated - speculated == ev.used_nfe - used
                generations.append(_generation_outcome(population, ev))
            outcomes.append((generations, rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == 4
        assert all(c.position.tobytes() == point.tobytes() for c in population)

    @pytest.mark.parametrize("k", [6, 2])
    def test_a_row_that_moved_only_in_the_sign_of_a_zero_has_moved(self, k):
        # every coordinate is 0.0 or -0.0, so every trial ties on the sphere
        # and is accepted. A mutant coordinate r1 + F * (r2 - r3) is -0.0 only
        # when r1 and r2 are -0.0 and r3 is 0.0, so a trial row can differ
        # from its target's in the sign of a zero alone, and a later trial
        # built again from it can get the other sign
        n, dim = 12, 6
        coords = np.arange(dim) if k == dim else np.array([4, 1])
        positions = np.where(named_stream(k, "zero-signs").random((n, dim)) < 0.5, -0.0, 0.0)
        outcomes = []
        for generation in (_generation_on, reference_generation):
            obj = Waves(sphere_objective(dim, low=-5.0, high=5.0))
            ev = BudgetedEvaluator(obj, 4 * n)
            population = _seeded_population(positions, ev)
            rng = named_stream(k, "zero-gen")
            generations = []
            sign_only = 0
            for _ in range(3):
                before = [c.position[coords] for c in population]
                context = None if k == dim else ev.best.position
                assert generation(population, coords, context, DEConfig(pop_size=n), ev, rng)
                after = [c.position[coords] for c in population]
                assert all((a == b).all() for a, b in zip(before, after))
                sign_only += sum(a.tobytes() != b.tobytes() for a, b in zip(before, after))
                generations.append(_generation_outcome(population, ev))
            assert sign_only > 0
            outcomes.append((generations, rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("k", [6, 2])
    def test_a_nan_in_a_rebuilt_row_keeps_the_replacements_before_it(self, k):
        # every trial ties and is accepted, so trial t, which has an earlier
        # donor, is evaluated on its first-wave row and then on its rebuilt
        # row, which alone gives NaN
        n, dim = 12, 6
        coords = np.arange(dim) if k == dim else np.array([4, 1])
        cfg = DEConfig(pop_size=n)
        box = Box(np.full(dim, -5.0), np.full(dim, 5.0))
        recorder = Recorder(Objective(lambda x: 0.0, box))
        ev = BudgetedEvaluator(recorder, 100)
        population = _init_population(n, ev, named_stream(k, "nan-init"))
        rng = named_stream(k, "nan-gen")
        depth = _earlier_donor_depth(_method_draws(_twin(rng), n, k, n, cfg)[0])
        t = next(i for i in range(n // 2, n) if depth[i] > 0)
        context = None if k == dim else ev.best.position
        reference_generation(population, coords, context, cfg, ev, rng)
        bad = recorder.calls[n + t].tobytes()
        outcomes = []
        for generation in (_generation_on, reference_generation):
            obj = Waves(Objective(lambda x: math.nan if x.tobytes() == bad else 0.0, box))
            ev = BudgetedEvaluator(obj, 100)
            population = _init_population(n, ev, named_stream(k, "nan-init"))
            before = list(population)
            context = None if k == dim else ev.best.position
            with pytest.raises(NonFiniteValue):
                generation(population, coords, context, cfg, ev, named_stream(k, "nan-gen"))
            assert all(a is not b for a, b in zip(before[:t], population[:t]))
            assert all(a is b for a, b in zip(before[t:], population[t:]))
            if generation is _generation_on:
                assert len(obj.waves) > 1
            outcomes.append((_generation_outcome(population, ev), ev.best.position.tobytes()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][1] == n + t

    @pytest.mark.parametrize("dim, k", [(6, 6), (6, 2)])
    @pytest.mark.parametrize("objective", ["sphere", "mostly accepting"])
    def test_an_impure_objective_sees_the_charged_rows_in_trial_order(self, dim, k, objective):
        n = 10
        coords = np.arange(dim) if k == dim else np.array([3, 0])
        calls = []
        for generation in (_generation_on, reference_generation):
            recorder = Recorder(_reference_objective(objective, dim))
            ev = BudgetedEvaluator(recorder, 3 * n + 4)
            population = _init_population(n, ev, named_stream(dim, "impure-init"))
            rng = named_stream(k, "impure-gen")
            while generation(population, coords, None if k == dim else ev.best.position,
                             DEConfig(pop_size=n), ev, rng):
                pass
            assert len(recorder.calls) == ev.used_nfe == 3 * n + 4
            calls.append([c.tobytes() for c in recorder.calls])
        assert calls[0] == calls[1]


def _last_called_on(monkeypatch, name):
    """Patch the routine `name` of the baselines module to keep the first
    argument of its last call (a population, or CC's state); returns a
    getter for it."""
    kept = []
    original = getattr(baselines, name)

    def keep(first, *args):
        kept[:] = [first]
        return original(first, *args)

    monkeypatch.setattr(baselines, name, keep)
    return lambda: kept[0]


def _run_outcome(result, population):
    return (result.trace, result.used_nfe, result.best.position.tobytes(), result.best.value,
            [(c.position.tobytes(), c.value) for c in population])


def _budgets(n, k):
    """Budgets that end mid-generation, on a generation boundary, mid-chunk
    and past the first chunk of read-ahead."""
    chunk = max(1, _READ_WORDS // (n * (k + 4)))  # generations
    budgets = {n + 2 * n + 1, n + 3 * n, n + n * min(chunk // 2, 5) + n // 2 + 1}
    if chunk < 40:
        budgets.add(n + n * (chunk + 1) + 3)
    return sorted(budgets)


class TestReadAhead:
    """run_de and run_cc read their draws for several generations at once;
    nothing about a run may show it."""

    @pytest.mark.parametrize("dim", [2, 7, 10, 100])
    @pytest.mark.parametrize("n", [4, 5, 50])
    def test_run_de_equals_a_loop_of_generations(self, monkeypatch, dim, n):
        cfg = DEConfig(pop_size=n)
        for max_nfe in _budgets(n, dim):
            fn = make_function("rastrigin", dim, dim)
            population = _last_called_on(monkeypatch, "de_generation")
            got = _run_outcome(run_de(fn, max_nfe, n, cfg), population())
            monkeypatch.undo()
            ev = BudgetedEvaluator(fn, max_nfe)
            population = _init_population(n, ev, named_stream(n, "de-init"))
            rng = named_stream(n, "de-gen")
            while ev.remaining > 0:
                de_generation(population, cfg, ev, rng)
            assert got == _run_outcome(RunResult(ev.best, ev.used_nfe, ev.trace), population)

    @pytest.mark.parametrize("dim, num_groups", [
        (2, 1), (2, 2), (7, 3), (7, 2), (10, 3), (10, 10), (100, 7), (100, 10)])
    @pytest.mark.parametrize("n", [4, 5, 50])
    def test_run_cc_equals_a_loop_of_cycles(self, monkeypatch, dim, num_groups, n):
        cfg = CCConfig(pop_size=n, num_groups=num_groups)
        for max_nfe in _budgets(n, dim // num_groups):
            fn = make_function("ackley", dim, dim)
            state = _last_called_on(monkeypatch, "cc_cycle")
            got = _run_outcome(run_cc(fn, max_nfe, n, cfg), state().population)
            monkeypatch.undo()
            ev = BudgetedEvaluator(fn, max_nfe)
            state = cc_init(cfg, ev, named_stream(n, "cc-init"))
            rng = named_stream(n, "cc-gen")
            while ev.remaining > 0:
                cc_cycle(state, cfg, ev, rng)
            assert got == _run_outcome(RunResult(ev.best, ev.used_nfe, ev.trace),
                                       state.population)

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 7), (50, 10), (50, 100)])
    def test_a_chunk_decodes_as_one_generation_after_another(self, n, k):
        cfg = DEConfig(pop_size=n)
        for has_uint32 in (0, 1):
            rng = named_stream(n * k, "chunk")
            if has_uint32:
                rng.integers(7)
            trials = 3 * n + 2
            twin = _twin(rng)
            got = _pcg64_draws(rng, n, k, trials, cfg)
            parts = [_method_draws(twin, n, k, count, cfg) for count in (n, n, n, 2)]
            for got_part, want in zip(got, zip(*parts)):
                assert got_part.tolist() == np.concatenate(want).tolist()
            assert rng.bit_generator.state == twin.bit_generator.state
            _assert_same_draws(rng, n, k, trials, cfg)

    def test_a_rejection_inside_a_chunk_draws_that_generation_on_its_own(self):
        # with k = 3 each trial reads 7 words and leaves the half-word buffer
        # as it found it, so word 350 holds trial 50's first Floyd draw (on
        # [0, 46]) in its low half; a low half of 0 is rejected
        n, k = 50, 3
        cfg = DEConfig(pop_size=n)
        rng = named_stream(3, "chunk-reject")
        _place_word(rng, n * (k + 4), 0x9E3779B9 << 32)
        before = rng.bit_generator.state
        assert _pcg64_draws(rng, n, k, 2 * n, cfg) is None
        assert rng.bit_generator.state == before
        outcomes = []
        for gen in (_twin(rng), rng):
            ev = BudgetedEvaluator(make_function("sphere", k, 3), 5 * n)
            if gen is rng:
                gen = _ReadAhead(rng, ev, (k,))
            population = _init_population(n, ev, named_stream(3, "chunk-reject-init"))
            while ev.remaining > 0:
                _generation_on(population, np.arange(k), None, cfg, ev, gen)
            outcomes.append(_generation_outcome(population, ev))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n, k", [(4, 1), (50, 1), (50, 10), (50, 100), (50, 1000)])
    def test_a_read_is_bounded_in_raw_words(self, n, k):
        ev = BudgetedEvaluator(make_function("sphere", k, 1), 10 ** 9)
        reader = _ReadAhead(named_stream(1, "bounded"), ev, (k,))
        reader.take(n, k, n, DEConfig(pop_size=n))
        assert reader.read % n == 0
        one = _draw_layout(n, k, n, 0).used
        assert _draw_layout(n, k, reader.read, 0).used <= max(_READ_WORDS, one)
        assert (reader.read == n) == (2 * one > _READ_WORDS)
