"""Independent oracles and small fixtures shared by the test modules.

Everything here is deliberately written flat and stdlib-first, without
reusing the package's own loops, so agreement between an oracle and the
implementation is meaningful evidence rather than a tautology.
"""

import hashlib
import math
import os

import numpy as np

from mcdopt.core import Box, BudgetExhausted, Candidate, Objective, OutOfBox, named_stream


def sphere_objective(dim, low=-100.0, high=100.0, shift=None, optimum=0.0):
    """Plain (optionally shifted) sphere objective on a cubic box."""
    box = Box(np.full(dim, float(low)), np.full(dim, float(high)))
    if shift is None:
        shift = np.zeros(dim)
    else:
        shift = np.asarray(shift, dtype=float)

    def fn(x):
        z = x - shift
        return float(z @ z)

    return Objective(fn, box, optimum_value=float(optimum), name="sphere")


def fold_1d(f, lo, hi, steps):
    """Simulate the one-dimensional probe-and-fold recursion.

    Each step probes the centers of the two half intervals, keeps the lower
    half only on a strictly smaller value (ties keep the upper half), then
    halves the interval toward the winner. Returns the list of winning
    probe positions, one per step.
    """
    lo = float(lo)
    hi = float(hi)
    winners = []
    for _ in range(steps):
        quarter = (hi - lo) / 4.0
        a = lo + quarter
        b = hi - quarter
        fa = f(a)
        fb = f(b)
        keep_lower = fa < fb
        winners.append(a if keep_lower else b)
        mid = lo + (hi - lo) / 2.0
        if mid <= lo or mid >= hi:
            continue
        if keep_lower:
            hi = mid
        else:
            lo = mid
    return winners


def straight_line_descent(objective, max_iter, max_nfe, seed):
    """Flat transcription of the full restart search, evaluated directly.

    No evaluator, no fold helper, no state object: just nested loops over
    plain Python lists. Returns (steps, final_winner) where each step is a
    dict with keys restart, iteration, dim, x, y, f_x, f_y, keep_lower and
    final_winner is the (position, value) pair of the across-restart winner
    decided on cached values with a strict comparison.
    """
    dim = objective.dim
    per_restart = 2 * dim * max_iter
    n_restarts = max_nfe // per_restart
    if n_restarts < 1:
        raise ValueError("budget funds no restart")
    rng = named_stream(seed, "perm")
    steps = []
    final_pos = None
    final_val = None
    for restart in range(n_restarts):
        lower = [float(v) for v in objective.box.lower]
        upper = [float(v) for v in objective.box.upper]
        point = [lo + (hi - lo) / 2.0 for lo, hi in zip(lower, upper)]
        order = [int(v) for v in rng.permutation(dim)]
        winner_pos = None
        winner_val = None
        for iteration in range(max_iter):
            for i in order:
                quarter = (upper[i] - lower[i]) / 4.0
                xp = list(point)
                yp = list(point)
                xp[i] = lower[i] + quarter
                yp[i] = upper[i] - quarter
                f_x = float(objective.evaluate(np.array(xp)))
                f_y = float(objective.evaluate(np.array(yp)))
                keep_lower = f_x < f_y
                if keep_lower:
                    point = xp
                    winner_val = f_x
                else:
                    point = yp
                    winner_val = f_y
                winner_pos = list(point)
                steps.append({"restart": restart, "iteration": iteration, "dim": i,
                              "x": list(xp), "y": list(yp), "f_x": f_x,
                              "f_y": f_y, "keep_lower": keep_lower})
                mid = lower[i] + (upper[i] - lower[i]) / 2.0
                if mid <= lower[i] or mid >= upper[i]:
                    continue
                if keep_lower:
                    upper[i] = mid
                else:
                    lower[i] = mid
        if final_val is None or winner_val < final_val:
            final_val = winner_val
            final_pos = winner_pos
    return steps, (final_pos, final_val)


def transcript_improvements(steps):
    """The improvement trace and best point of an oracle transcript whose
    probes were evaluated in transcript order, x before y: returns (trace,
    (best_position, best_value)) with one (nfe, value) trace entry per strict
    improvement."""
    trace = []
    best_pos = None
    best_val = None
    nfe = 0
    for step in steps:
        for position, value in ((step["x"], step["f_x"]), (step["y"], step["f_y"])):
            nfe += 1
            if best_val is None or value < best_val:
                best_pos = position
                best_val = value
                trace.append((nfe, value))
    return trace, (best_pos, best_val)


def reference_value(fn, x):
    """A suite function's value the long way: the shape and both bounds of
    the box checked coordinate by coordinate, one `rot @ z[idx]` per rotated
    group, and the `np.sum` and `np.cumsum` forms of the base formulas.
    Raises OutOfBox like `evaluate`."""
    x = np.asarray(x, dtype=float)
    if not (x.shape == fn.box.lower.shape
            and (fn.box.lower <= x).all() and (x <= fn.box.upper).all()):
        raise OutOfBox(f"{fn.name}: position outside the function bounds")
    z = x - fn.shift
    if fn.rot is not None:
        for idx, rot in zip(fn.rot_idx, fn.rot):
            z[idx] = rot @ z[idx]
    if fn.base == "sphere":
        return float(z @ z)
    if fn.base == "elliptic":
        dim = z.size
        coeffs = np.ones(1) if dim == 1 else 10.0 ** (6.0 * np.arange(dim) / (dim - 1))
        return float(coeffs @ (z * z))
    if fn.base == "rastrigin":
        return float(np.sum(z * z - 10.0 * np.cos(2.0 * math.pi * z) + 10.0))
    if fn.base == "ackley":
        n = z.size
        root_mean_sq = math.sqrt(float(z @ z) / n)
        mean_cos = float(np.sum(np.cos(2.0 * math.pi * z))) / n
        return (-20.0 * math.exp(-0.2 * root_mean_sq)
                - math.exp(mean_cos) + 20.0 + math.e)
    if fn.base == "rosenbrock":
        w = z + 1.0
        return float(np.sum(100.0 * (w[1:] - w[:-1] ** 2) ** 2 + (1.0 - w[:-1]) ** 2))
    if fn.base == "schwefel12":
        partial = np.cumsum(z)
        return float(partial @ partial)
    raise ValueError(f"unknown base formula '{fn.base}'")


def per_group_rotations(name, dim, seed):
    """The rotation stacks of a grouped suite function, drawn one group at a
    time: after the shift and the permutation, one `standard_normal((m, m))`
    and one sign-fixed `qr` per group. Returns (rot_idx, rot)."""
    rng = named_stream(seed, f"bench.{name}")
    rng.uniform(-80.0, 80.0, size=dim)  # the shift is drawn first
    m = min(dim, max(2, round(dim / 4)))
    perm = rng.permutation(dim)
    indices = []
    matrices = []
    for k in range(dim // m):
        indices.append(np.sort(perm[k * m:(k + 1) * m]))
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        sign = np.sign(np.diag(r))
        sign[sign == 0] = 1.0
        matrices.append(q * sign)
    return np.array(indices), np.array(matrices)


def reference_generation(population, coords, context, cfg, ev, rng):
    """One rand/1/bin generation trial by trial, as a generation ran before
    its draws and trial rows were taken in bulk: each trial calls the
    generator's four methods just before it, builds its one row with the
    mutant, `np.where` crossover and clamp from the current population, and
    replaces its target at once when not worse. Returns False when the
    budget runs out mid-generation."""
    n = len(population)
    lo = ev.objective.box.lower[coords]
    hi = ev.objective.box.upper[coords]
    f_low, f_high = cfg.f_range
    for i in range(n):
        pool = np.array([j for j in range(n) if j != i])
        r1, r2, r3 = rng.choice(pool, size=3, replace=False)
        scale = rng.uniform(f_low, f_high)
        mask = rng.random(coords.size) <= cfg.cr
        mask[int(rng.integers(coords.size))] = True
        rows = [c.position[coords] for c in population]
        mutant = rows[r1] + scale * (rows[r2] - rows[r3])
        sub = np.where(mask, mutant, rows[i])
        sub = np.minimum(np.maximum(sub, lo), hi)
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
            population[i] = Candidate(point, value)
    return True


def densify(nfes, values, grid):
    """A trace's value at each checkpoint: the last of its values whose count
    is at or before the checkpoint (every trace starts at count 1)."""
    return [[value for nfe, value in zip(nfes, values) if nfe <= checkpoint][-1]
            for checkpoint in grid]


def output_digest(out_dir):
    """SHA-256 over results.csv, summary.json, traces/ and plots/ of a grid
    directory, framed as the benchmark's output digest: files in name order,
    each as `name\\0len\\0` followed by its bytes. Returns (digest, files)."""
    names = ["results.csv", "summary.json"]
    for sub in ("traces", "plots"):
        names += [f"{sub}/{name}" for name in sorted(os.listdir(os.path.join(out_dir, sub)))]
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest(), len(names)


def arithmetic_profile():
    """SHA-256 over the bits of the floating-point kernels the suite leans on,
    at D=100 and D=1000: one `ddot`, one stacked `matmul` of four rotation
    blocks, and the elliptic coefficients `10 ** (6 i / (D - 1))`. Machines
    and builds that agree here share the output digests of tests/test_digests.py."""
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for dim in (100, 1000):
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        digest.update(np.float64(a @ b).tobytes())
        block = dim // 4
        rot = rng.standard_normal((4, block, block))
        z = rng.standard_normal((4, block))
        digest.update(np.matmul(rot, z[..., None]).tobytes())
        digest.update((10.0 ** (6.0 * np.arange(dim) / (dim - 1))).tobytes())
    return digest.hexdigest()


def chunked_by_delta(deltas, num_groups):
    """Sort-then-chunk grouping oracle using the stdlib sort.

    Orders indices by descending delta with ascending-index tie-break, then
    cuts the order into num_groups chunks of floor(D / num_groups), the last
    chunk absorbing any remainder. Returns plain lists of ints.
    """
    deltas = [float(v) for v in deltas]
    d = len(deltas)
    order = sorted(range(d), key=lambda i: (-deltas[i], i))
    size = d // num_groups
    groups = [order[k * size:(k + 1) * size] for k in range(num_groups - 1)]
    groups.append(order[(num_groups - 1) * size:])
    return groups


class ScriptedRNG:
    """Stand-in generator that replays queued draws and logs the call order.

    Only the four methods the rand/1/bin engine uses are provided. Each
    queue holds one entry per expected call; running past a queue or asking
    for donors outside the offered pool fails loudly so a transcript error
    in the test itself cannot pass silently.
    """

    def __init__(self, choices=(), uniforms=(), randoms=(), integers=()):
        self.choice_queue = [list(c) for c in choices]
        self.uniform_queue = list(uniforms)
        self.random_queue = [list(r) for r in randoms]
        self.integers_queue = list(integers)
        self.log = []

    def choice(self, pool, size=None, replace=True):
        self.log.append("choice")
        picks = self.choice_queue.pop(0)
        pool = [int(v) for v in np.asarray(pool).ravel()]
        if size is not None and len(picks) != size:
            raise AssertionError(f"scripted choice has {len(picks)} picks, need {size}")
        for p in picks:
            if p not in pool:
                raise AssertionError(f"scripted donor {p} not in pool {pool}")
        if not replace and len(set(picks)) != len(picks):
            raise AssertionError(f"scripted donors {picks} repeat without replacement")
        return np.array(picks, dtype=int)

    def uniform(self, low, high):
        self.log.append("uniform")
        value = self.uniform_queue.pop(0)
        if not low <= value <= high:
            raise AssertionError(f"scripted uniform {value} outside [{low}, {high}]")
        return float(value)

    def random(self, k=None):
        self.log.append("random")
        values = self.random_queue.pop(0)
        if k is not None and len(values) != k:
            raise AssertionError(f"scripted random has {len(values)} values, need {k}")
        return np.array(values, dtype=float)

    def integers(self, k):
        self.log.append("integers")
        value = int(self.integers_queue.pop(0))
        if not 0 <= value < k:
            raise AssertionError(f"scripted integer {value} outside [0, {k})")
        return value

    def assert_drained(self):
        for name in ("choice", "uniform", "random", "integers"):
            queue = getattr(self, f"{name}_queue")
            if queue:
                raise AssertionError(f"{len(queue)} scripted {name} draws left over")


class Recorder:
    """Objective wrapper that keeps a copy of every evaluated position."""

    def __init__(self, inner):
        self.inner = inner
        self.box = inner.box
        self.optimum_value = getattr(inner, "optimum_value", None)
        self.name = getattr(inner, "name", "recorded")
        self.calls = []

    @property
    def dim(self):
        return self.box.dim

    def evaluate(self, position):
        p = np.array(position, dtype=float, copy=True)
        self.calls.append(p)
        return self.inner.evaluate(p)


class PureBatched:
    """A pure objective over `inner` that offers evaluate_batch as a loop over
    its rows; counts the rows handed to each entry."""

    pure = True

    def __init__(self, inner):
        self.inner = inner
        self.box = inner.box
        self.optimum_value = getattr(inner, "optimum_value", None)
        self.evaluated = 0
        self.batched = 0

    @property
    def dim(self):
        return self.box.dim

    def evaluate(self, position):
        self.evaluated += 1
        return self.inner.evaluate(position)

    def evaluate_batch(self, positions):
        self.batched += len(positions)
        return np.array([float(self.inner.evaluate(row)) for row in positions])
