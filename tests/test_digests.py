"""Byte-identity gate: frozen SHA-256 digests of deterministic outputs.

A small grid (every algorithm, all eight functions, two repeats) is hashed
over results.csv, summary.json, traces/ and plots/, in the same name order
and framing as the benchmark's output digest. Three more digests pin the
named random streams directly: the "perm" stream through the `record_steps`
transcript of one mcd run, and the "de-gen" and "cc-gen" streams through
the population after every DE generation and CC cycle plus the generator's
final state.

The digests are specific to the machine and the numpy/BLAS build they were
frozen on (Python 3.11.7, numpy 2.4.6, x86-64), like the benchmark's own
digests. They are never re-frozen to make a change pass: a change that
means to alter the outputs says so, and why, where it is recorded.
"""

import hashlib

from mcdopt.baselines import (
    CCConfig,
    DEConfig,
    _init_population,
    cc_cycle,
    cc_init,
    de_generation,
)
from mcdopt.benchfns import make_function
from mcdopt.core import BudgetedEvaluator, named_stream
from mcdopt.harness import ExperimentConfig, run_grid
from mcdopt.mcd import run

from helpers import output_digest

GRID_DIGEST = "0260f77fc0559da185865993a819d5c69f71d541fb70c0e7d34c87b38edf11ba"
MCD_STEPS_DIGEST = "23c0cbfac801b562093ac32e206ee1f652337f81de6318919f006a0a84aca8b9"
DE_GENERATIONS_DIGEST = "eac16f56e39845898dc9743244aaf31970defa8c67f47caa350d48727b5a8f1b"
CC_CYCLES_DIGEST = "c72d745be0fb54a16edf9606fd7006866a3dfe681bb3a97d656c38967b582b8d"


def _population_repr(population):
    return repr([(c.position.tolist(), c.value) for c in population])


def test_grid_outputs_digest(tmp_path):
    config = ExperimentConfig(
        algorithms=["mcd", "de", "cc"],
        dim=8,
        max_nfe=640,
        max_iter=4,
        repeats=2,
        de_pop_size=8,
        cc_pop_size=8,
        cc_groups=4,
        output_dir=str(tmp_path / "out"),
    )
    run_grid(config)
    digest, files = output_digest(config.output_dir)
    assert files == 58  # results.csv, summary.json, 48 traces, 8 charts
    assert digest == GRID_DIGEST


def test_mcd_step_transcript_digest():
    fn = make_function("rastrigin-group", 8, 3)
    outcome = run(fn, max_iter=4, max_nfe=640, seed=5, record_steps=True)
    assert len(outcome.steps) == 320  # ten restarts, one "perm" draw each
    digest = hashlib.sha256()
    for step in outcome.steps:
        digest.update(repr((step.restart, step.iteration, step.dim_index,
                            step.x_position.tolist(), step.y_position.tolist(),
                            step.f_x, step.f_y, bool(step.keep_lower))).encode())
    digest.update(repr(outcome.trace).encode())
    assert digest.hexdigest() == MCD_STEPS_DIGEST


def test_de_generation_stream_digest():
    fn = make_function("rosenbrock", 8, 3)
    ev = BudgetedEvaluator(fn, 10_000)
    cfg = DEConfig(pop_size=8)
    population = _init_population(cfg.pop_size, ev, named_stream(5, "de-init"))
    rng = named_stream(5, "de-gen")
    digest = hashlib.sha256(_population_repr(population).encode())
    for _ in range(20):
        de_generation(population, cfg, ev, rng)
        digest.update(_population_repr(population).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert ev.used_nfe == 8 * 21
    assert digest.hexdigest() == DE_GENERATIONS_DIGEST


def test_cc_cycle_stream_digest():
    fn = make_function("elliptic-group", 8, 3)
    ev = BudgetedEvaluator(fn, 10_000)
    cfg = CCConfig(pop_size=8, num_groups=4)
    state = cc_init(cfg, ev, named_stream(5, "cc-init"))
    rng = named_stream(5, "cc-gen")
    digest = hashlib.sha256(_population_repr(state.population).encode())
    for _ in range(10):
        cc_cycle(state, cfg, ev, rng)
        digest.update(_population_repr(state.population).encode())
        digest.update(repr([g.tolist() for g in state.last_groups]).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert ev.used_nfe == 8 + 10 * 4 * 8
    assert digest.hexdigest() == CC_CYCLES_DIGEST
