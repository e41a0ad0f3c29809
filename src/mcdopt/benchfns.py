"""Seeded benchmark functions spanning the separability and modality axes.

Every function is a shifted, optionally group-rotated classic base on the
box [-100, 100]^D. The optimum value is always 0 and sits at a known point
drawn from the middle 80 percent of the box, so error metrics and accuracy
ratios are computable without any external data. Same (name, dim, seed)
always reconstructs bit-identical shift vectors and rotation matrices.

The rotated groups of a function all have one size m, so they exist only as
two stacks that `make_function` draws once: a `(groups, m)` index array and
a `(groups, m, m)` matrix array. The group rotation is one stacked
`np.matmul`, which gives the same bits as one `rot @ z[idx]` per group. The
suite box is the symmetric cube [-BOX_HIGH, BOX_HIGH]^D, so a position's
bounds are checked with one reduction, the largest absolute coordinate
against BOX_HIGH (a NaN coordinate fails it too), written once (`_checked`).

There is one arithmetic: the shift, the rotation and each base formula are
written once, on an `(n, D)` block of rows (`np.vecdot` for the dot
products, `axis=1` reductions and cumulative sums, the stacked rotation over
every row at once). `evaluate_batch` runs it on its block and `evaluate` on
its position as a block of one row, so a row's value does not depend on the
block it comes in. Ackley's `exp`/`sqrt` tail stays in `math`, row by row,
because numpy's vector `exp` rounds some rows differently from `math.exp`.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .core import Box, OutOfBox, named_stream

BOX_HIGH = 100.0
BOX_LOW = -BOX_HIGH
SHIFT_FRACTION = 0.8

CAT_SEP_UNIMODAL = "separable-unimodal"
CAT_SEP_MULTIMODAL = "separable-multimodal"
CAT_NONSEPARABLE = "fully-nonseparable"

# name -> (base formula, category); a None category marks a grouped function,
# whose category its group size decides
_SPECS = {
    "sphere": ("sphere", CAT_SEP_UNIMODAL),
    "elliptic": ("elliptic", CAT_SEP_UNIMODAL),
    "rastrigin": ("rastrigin", CAT_SEP_MULTIMODAL),
    "ackley": ("ackley", CAT_SEP_MULTIMODAL),
    "elliptic-group": ("elliptic", None),
    "rastrigin-group": ("rastrigin", None),
    "rosenbrock": ("rosenbrock", CAT_NONSEPARABLE),
    "schwefel12": ("schwefel12", CAT_NONSEPARABLE),
}

SUITE_NAMES = tuple(_SPECS)

# bases whose value is a plain per-coordinate sum; the exponential coupling in
# the ackley base makes it separable only in the weaker argument-wise sense
ADDITIVE_BASES = ("sphere", "elliptic", "rastrigin")


class BenchFunction:
    """A shifted, optionally group-rotated benchmark objective.

    Satisfies the objective contract used throughout the package: `dim`,
    `box`, `optimum_value`, `evaluate(position)`, and the optional
    `evaluate_batch(positions)`. The name decides the base
    and the category (a grouped one by its stacks), the shift the dimension.

    Attributes
    ----------
    name : str
        Suite name, one of SUITE_NAMES.
    base : str
        Underlying formula: sphere, elliptic, rastrigin, ackley,
        rosenbrock or schwefel12.
    category : str
        Structure class, one of separable-unimodal, separable-multimodal,
        partially-separable(m), fully-nonseparable.
    shift : ndarray
        The optimum position; the function value there is exactly 0.
    rot_idx : ndarray or None
        `(groups, m)` stack of disjoint, sorted coordinate groups of one
        size; None for unrotated functions.
    rot : ndarray or None
        `(groups, m, m)` stack of the orthogonal matrices that rotate those
        groups; None for unrotated functions.
    """

    # evaluate() and evaluate_batch() reject out-of-box positions themselves,
    # so BudgetedEvaluator does not check them a second time
    checks_bounds = True
    # a value depends on the position alone and an evaluation changes
    # nothing, so BudgetedEvaluator may evaluate rows it never charges
    pure = True

    def __init__(self, name: str, shift, rot_idx=None, rot=None, seed: int = 0):
        if name not in _SPECS:
            raise ValueError(f"unknown function name '{name}'")
        base, category = _SPECS[name]
        shift = np.array(shift, dtype=float, copy=True)
        if shift.ndim != 1 or not shift.size:
            raise ValueError("shift must be a non-empty vector")
        if category is None:
            if not (np.ndim(rot_idx) == 2 and np.shape(rot)
                    == np.shape(rot_idx) + np.shape(rot_idx)[1:]):
                raise ValueError(f"'{name}' needs (groups, m) rot_idx and (groups, m, m) rot")
            # an index out of range would fail only at the first evaluation,
            # and a repeated one would join groups that evaluate rotates apart
            rot_idx = np.asarray(rot_idx)
            if not (np.issubdtype(rot_idx.dtype, np.integer)
                    and ((0 <= rot_idx) & (rot_idx < shift.size)).all()
                    and len(set(rot_idx.flat)) == rot_idx.size):
                raise ValueError(f"'{name}' needs rot_idx to hold distinct integer "
                                 f"indices in [0, {shift.size})")
            category = f"partially-separable({rot_idx.shape[1]})"
        elif rot_idx is not None or rot is not None:
            raise ValueError(f"'{name}' is not rotated: rot_idx and rot must be None")
        dim = shift.size
        self.name = name
        self.base = base
        self.category = category
        self.dim = dim
        self.seed = seed
        self.shift = shift
        self.rot_idx = rot_idx
        self.rot = rot
        self.box = Box(np.full(dim, BOX_LOW), np.full(dim, BOX_HIGH))
        self.optimum_value = 0.0
        self._coeffs = (10.0 ** (6.0 * np.arange(dim) / max(dim - 1, 1))
                        if base == "elliptic" else None)
        self._order = self._unorder = None
        if rot is not None:
            # the coordinates group by group, then the unrotated rest, and
            # back: a block reorders its columns with two takes, which cost
            # far less than indexing every row by rot_idx
            rest = np.ones(dim, dtype=bool)
            rest[rot_idx] = False
            self._order = np.concatenate([rot_idx.ravel(), np.flatnonzero(rest)])
            self._unorder = np.empty(dim, dtype=np.intp)
            self._unorder[self._order] = np.arange(dim)

    @property
    def optimum_position(self) -> np.ndarray:
        return self.shift.copy()

    def evaluate(self, x) -> float:
        x = self._checked(np.asarray(x, dtype=float)[None])
        return self._base_value(self._to_base(x)[0])

    def _base_value(self, z: np.ndarray) -> float:
        """The base formula's value at one vector `z` of the base frame."""
        return float(self._formula(z[None])[0])

    def evaluate_batch(self, positions) -> np.ndarray:
        """The value of every row of an `(n, D)` block, n >= 1, each with the
        bits of `evaluate(row)`; any row out of the box, or a block of
        another shape, raises OutOfBox."""
        return self._formula(self._to_base(self._checked(np.asarray(positions, dtype=float))))

    def _checked(self, x: np.ndarray) -> np.ndarray:
        """`x` if it is an `(n, D)` float block, n >= 1, inside the box
        (`evaluate` passes one row); anything else raises OutOfBox."""
        if not (x.shape[1:] == self.shift.shape and len(x)
                and np.maximum.reduce(np.abs(x), axis=None) <= BOX_HIGH):
            raise OutOfBox(f"{self.name}: a position outside the function bounds")
        return x

    def _to_base(self, x: np.ndarray) -> np.ndarray:
        """An `(n, D)` block of positions in the base formula's frame: each
        row shifted by the optimum and its groups rotated."""
        z = x - self.shift
        if self.rot is None:
            return z
        groups, m = self.rot_idx.shape
        z = z.take(self._order, axis=1)
        head = z[:, :groups * m]
        head[...] = np.matmul(self.rot, head.reshape(-1, groups, m, 1)).reshape(len(z), -1)
        return z.take(self._unorder, axis=1)

    def _formula(self, z: np.ndarray) -> np.ndarray:
        """The base formula's value of every row of an `(n, D)` block."""
        base = self.base
        if base == "sphere":
            return np.vecdot(z, z)
        if base == "elliptic":
            return np.vecdot(self._coeffs, z * z)
        if base == "rastrigin":
            return np.add.reduce(z * z - 10.0 * np.cos(2.0 * math.pi * z) + 10.0, axis=1)
        if base == "ackley":
            n = z.shape[1]
            sums = zip(np.vecdot(z, z).tolist(),
                       np.add.reduce(np.cos(2.0 * math.pi * z), axis=1).tolist())
            return np.array([-20.0 * math.exp(-0.2 * math.sqrt(sq / n))
                             - math.exp(cos / n) + 20.0 + math.e for sq, cos in sums])
        if base == "rosenbrock":
            w = z + 1.0  # optimum of the base sits at all-ones, folded into the shift
            return np.add.reduce(100.0 * (w[:, 1:] - w[:, :-1] ** 2) ** 2
                                 + (1.0 - w[:, :-1]) ** 2, axis=1)
        partial = z.cumsum(axis=1)  # schwefel12: _SPECS names no other base
        return np.vecdot(partial, partial)

    def __repr__(self) -> str:
        return f"BenchFunction({self.name!r}, dim={self.dim}, seed={self.seed})"


def group_size(dim: int) -> int:
    """Rotated-group size used by the partially separable functions."""
    return min(dim, max(2, round(dim / 4)))


def make_function(name: str, dim: int, seed: int) -> BenchFunction:
    """Construct one suite function; deterministic in (name, dim, seed)."""
    if name not in _SPECS:
        raise ValueError(f"unknown function name '{name}'")
    rng = named_stream(seed, f"bench.{name}")
    half_span = (BOX_HIGH - BOX_LOW) / 2.0 * SHIFT_FRACTION
    shift = rng.uniform(-half_span, half_span, size=dim)
    rot_idx = rot = None
    if _SPECS[name][1] is None:
        m = group_size(dim)
        count = dim // m
        perm = rng.permutation(dim)
        rot_idx = np.sort(perm[:count * m].reshape(count, m), axis=1)
        # one stacked QR; the sign fix makes each rotation Haar-distributed
        rot, r = np.linalg.qr(rng.standard_normal((count, m, m)))
        sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
        sign[sign == 0] = 1.0
        rot *= sign[:, None, :]
    return BenchFunction(name, shift, rot_idx=rot_idx, rot=rot, seed=seed)


def make_suite(dim: int, seed: int) -> list[BenchFunction]:
    """The full eight-function suite at one dimension under one seed."""
    if dim < 2:
        raise ValueError("the suite needs dim of at least 2")
    return [make_function(name, dim, seed) for name in SUITE_NAMES]


def _optimum_hash(fn: BenchFunction) -> str:
    return hashlib.sha256(fn.optimum_position.astype("<f8").tobytes()).hexdigest()


def suite_manifest(functions: list[BenchFunction]) -> dict:
    """JSON-ready description of a suite: identity, structure, optimum hashes."""
    if not functions:
        raise ValueError("manifest needs at least one function")
    dims = {fn.dim for fn in functions}
    seeds = {fn.seed for fn in functions}
    if len(dims) != 1 or len(seeds) != 1:
        raise ValueError("manifest functions must share one dim and one seed")
    return {
        "dim": functions[0].dim,
        "seed": functions[0].seed,
        "box": {"lower": BOX_LOW, "upper": BOX_HIGH},
        "functions": [
            {
                "name": fn.name,
                "base": fn.base,
                "category": fn.category,
                "optimum_value": fn.optimum_value,
                "optimum_position_sha256": _optimum_hash(fn),
            }
            for fn in sorted(functions, key=lambda f: f.name)
        ],
    }
