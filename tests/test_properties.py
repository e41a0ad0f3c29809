"""Property tests over random small budgets, dimensions and group counts.

Hypothesis is derandomized, so every run checks the same examples; the
@example rows pin the edge cases: one group, one group per dimension, a
group count that does not divide the dimension, and a budget smaller than
the population (initialization is cut short and no generation runs).
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mcdopt import mcd
from mcdopt.baselines import CCConfig, DEConfig, cc_cycle, cc_init, run_cc, run_de
from mcdopt.core import BudgetedEvaluator, named_stream

from helpers import sphere_objective

SETTINGS = settings(derandomize=True, deadline=None)


def _objective(dim, seed):
    shift = np.random.default_rng(seed).uniform(-50.0, 50.0, size=dim)
    return sphere_objective(dim, shift=shift)


def _check_run(result, max_nfe):
    assert result.used_nfe == max_nfe
    nfes = [n for n, _ in result.trace]
    values = [v for _, v in result.trace]
    assert nfes[0] == 1
    assert all(b > a for a, b in zip(nfes, nfes[1:]))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.best.value == values[-1]


@st.composite
def cc_cases(draw):
    dim = draw(st.integers(1, 9))
    num_groups = draw(st.integers(1, dim))
    pop_size = draw(st.integers(4, 10))
    max_nfe = draw(st.integers(1, 120))
    seed = draw(st.integers(0, 2**16))
    return dim, num_groups, pop_size, max_nfe, seed


@SETTINGS
@given(dim=st.integers(1, 9), pop_size=st.integers(4, 10),
       max_nfe=st.integers(1, 120), seed=st.integers(0, 2**16))
@example(dim=3, pop_size=8, max_nfe=5, seed=0)
@example(dim=1, pop_size=4, max_nfe=4, seed=1)
def test_de_spends_exact_budget_with_monotone_trace(dim, pop_size, max_nfe, seed):
    result = run_de(_objective(dim, seed), max_nfe, seed, DEConfig(pop_size=pop_size))
    _check_run(result, max_nfe)


@SETTINGS
@given(cc_cases())
@example((6, 1, 5, 70, 0))     # one group holds every dimension
@example((5, 5, 4, 60, 1))     # one dimension per group
@example((7, 3, 6, 90, 2))     # 3 does not divide 7: the last group takes 3
@example((4, 2, 10, 7, 3))     # budget below the population size
def test_cc_spends_exact_budget_and_partitions_every_cycle(case):
    dim, num_groups, pop_size, max_nfe, seed = case
    objective = _objective(dim, seed)
    cfg = CCConfig(pop_size=pop_size, num_groups=num_groups)
    _check_run(run_cc(objective, max_nfe, seed, cfg), max_nfe)

    # the same run, cycle by cycle
    ev = BudgetedEvaluator(objective, max_nfe)
    state = cc_init(cfg, ev, named_stream(seed, "cc-init"))
    gen_rng = named_stream(seed, "cc-gen")
    size = dim // num_groups
    while ev.remaining > 0:
        cc_cycle(state, cfg, ev, gen_rng)
        groups = state.last_groups
        assert sorted(int(i) for g in groups for i in g) == list(range(dim))
        assert [len(g) for g in groups] == \
            [size] * (num_groups - 1) + [dim - size * (num_groups - 1)]
    assert ev.used_nfe == max_nfe


@SETTINGS
@given(dim=st.integers(1, 6), max_iter=st.integers(1, 4),
       extra=st.integers(0, 200), seed=st.integers(0, 2**16))
def test_mcd_spends_whole_restarts_with_monotone_trace(dim, max_iter, extra, seed):
    per_restart = 2 * dim * max_iter
    max_nfe = per_restart + extra
    outcome = mcd.run(_objective(dim, seed), max_iter, max_nfe, seed)
    _check_run(outcome, (max_nfe // per_restart) * per_restart)
