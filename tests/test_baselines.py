"""Tests for the two comparison optimizers and the delta-grouping rules."""

import itertools
import math

import numpy as np
import pytest

from mcdopt.baselines import (
    CCConfig,
    CCState,
    DEConfig,
    _donor_table,
    _generation_on,
    _init_population,
    _method_draws,
    _pcg64_draws,
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
    Objective,
    named_stream,
)

from helpers import (
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
        wide = DEConfig()
        wide.f_range = (-1e308, 1e308)  # a width DEConfig itself rejects
        assert _pcg64_draws(rng, 8, 4, 8, wide) is None
        assert rng.bit_generator.state == before
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


class TestReferenceGeneration:
    @pytest.mark.parametrize("n, dim, k", [
        (4, 3, 3), (5, 6, 2), (12, 10, 10), (12, 10, 1), (50, 100, 100), (50, 100, 10)])
    @pytest.mark.parametrize("objective", ["sphere", "mostly accepting"])
    @pytest.mark.parametrize("method_calls", [False, True])
    def test_generations_equal_the_reference(self, n, dim, k, objective, method_calls):
        # k == dim is plain DE; otherwise a CC context supplies the other
        # coordinates. Two whole generations, then the budget cuts the third
        # at its first, second, middle or last trial, or the fourth.
        coords = np.arange(dim) if k == dim else named_stream(dim, "ref").permutation(dim)[:k]
        for remaining in (0, 1, n // 2, n - 1, n + 3):
            outcomes = []
            for generation in (_generation_on, reference_generation):
                if objective == "sphere":
                    obj = sphere_objective(dim, low=-5.0, high=5.0,
                                           shift=np.linspace(-2.0, 3.0, dim))
                else:
                    obj = _mostly_accepting(dim)
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
                        if objective != "sphere" and len(generations) == 1:
                            assert sum(a is not b for a, b in zip(before, population)) > n / 2
                outcomes.append((generations, ev.used_nfe, ev.trace, rng.bit_generator.state))
            assert outcomes[0] == outcomes[1]
            assert len(outcomes[0][0]) == (3 if remaining < n else 4)
