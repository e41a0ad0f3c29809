"""Byte-identity gate: frozen SHA-256 digests of deterministic outputs.

A small grid (every algorithm, all eight functions, two repeats) is hashed
over results.csv, summary.json, traces/ and plots/, in the same name order
and framing as the benchmark's output digest. Three more digests pin the
named random streams directly: the "perm" stream through the `record_steps`
transcript of one mcd run, and the "de-gen" and "cc-gen" streams through
the population after every DE generation and CC cycle plus the generator's
final state.

The digests depend on the bits of numpy's SIMD loops and OpenBLAS's
kernels, so they are frozen once per arithmetic profile (Python 3.11,
numpy 2.4.6, x86-64) and picked by `helpers.arithmetic_profile()`:
- "avx512": numpy's AVX-512 loops and OpenBLAS's own choice of kernel on an
  AVX-512 machine;
- "x86-64-v3": the AVX2 loops and the Haswell kernel, which any x86-64-v3
  machine gets under the environment in `X86_64_V3_ENV`.
A profile with no frozen set fails and names its hash; it never skips. The
digests are never re-frozen to make a change pass: a change that means to
alter the outputs says so, and why, where it is recorded.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import mcdopt
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

from helpers import arithmetic_profile, output_digest

X86_64_V3_ENV = {"OPENBLAS_CORETYPE": "Haswell",
                 "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# arithmetic profile hash -> (profile name, frozen digests)
PROFILES = {
    "58acc2cf392101d26a72d6ce22d1de277002b61b0bec3eb5f50faa5bd814cd6b": ("avx512", {
        "grid": "0260f77fc0559da185865993a819d5c69f71d541fb70c0e7d34c87b38edf11ba",
        "mcd_steps": "23c0cbfac801b562093ac32e206ee1f652337f81de6318919f006a0a84aca8b9",
        "de_generations": "eac16f56e39845898dc9743244aaf31970defa8c67f47caa350d48727b5a8f1b",
        "cc_cycles": "c72d745be0fb54a16edf9606fd7006866a3dfe681bb3a97d656c38967b582b8d",
    }),
    "9f112f5bcc47afc8351010e17f70c8f7c199ebca7362342261e9c4a6bc325ed4": ("x86-64-v3", {
        "grid": "a1bdea082cbbccf63ced880e8977654d2e46a76925cb7acdec2615e166c59a90",
        "mcd_steps": "4a94b324dfee66671890c8a4f771c72578438cf27cea7136164aafc4b5504012",
        "de_generations": "eac16f56e39845898dc9743244aaf31970defa8c67f47caa350d48727b5a8f1b",
        "cc_cycles": "e38c1937f62d2fecb0a5ea27070e9cb5f8c5a7c7d1d5cbb23d9c3d788ef0c04a",
    }),
}


def _frozen(name):
    profile = arithmetic_profile()
    assert profile in PROFILES, f"no digests frozen for arithmetic profile {profile}"
    return PROFILES[profile][1][name]


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
    assert digest == _frozen("grid")


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
    assert digest.hexdigest() == _frozen("mcd_steps")


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
    assert digest.hexdigest() == _frozen("de_generations")


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
    assert digest.hexdigest() == _frozen("cc_cycles")


def test_digests_under_the_x86_64_v3_profile():
    # the environment picks numpy's loops and OpenBLAS's kernel when the
    # process starts, so the digest tests run again in one fresh interpreter
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcdopt.__file__)))
    path = os.pathsep.join(p for p in (tests, src, os.environ.get("PYTHONPATH")) if p)
    code = ("import pathlib, tempfile\n"
            "import test_digests as t\n"
            "print(t.PROFILES[t.arithmetic_profile()][0])\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    t.test_grid_outputs_digest(pathlib.Path(tmp))\n"
            "t.test_mcd_step_transcript_digest()\n"
            "t.test_de_generation_stream_digest()\n"
            "t.test_cc_cycle_stream_digest()\n")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, **X86_64_V3_ENV),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == "x86-64-v3\n"


def test_an_unknown_profile_fails_and_names_its_hash(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "arithmetic_profile", lambda: "f" * 64)
    with pytest.raises(AssertionError, match="f" * 64):
        _frozen("grid")
