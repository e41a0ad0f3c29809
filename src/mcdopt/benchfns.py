"""Seeded benchmark functions spanning the separability and modality axes.

Every function is a shifted, optionally group-rotated classic base on the
box [-100, 100]^D. The optimum value is always 0 and sits at a known point
drawn from the middle 80 percent of the box, so error metrics and accuracy
ratios are computable without any external data. Same (name, dim, seed)
always reconstructs bit-identical shift vectors and rotation matrices.

The rotated groups of a function all have one size m, so they exist only as
two stacks that `make_function` draws once: a `(groups, m)` index array and
a `(groups, m, m)` matrix array. An evaluation rotates every group with one
stacked `np.matmul`, which gives the same bits as one `rot @ z[idx]` per
group. The suite box is the symmetric cube [-BOX_HIGH, BOX_HIGH]^D, so
`evaluate` checks a position's bounds with one reduction, the largest
absolute coordinate against BOX_HIGH (a NaN coordinate fails it too).
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
    `box`, `optimum_value`, `evaluate(position)`. The name decides the base
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

    # evaluate() rejects out-of-box positions itself, so BudgetedEvaluator
    # does not check them a second time
    checks_bounds = True

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

    @property
    def optimum_position(self) -> np.ndarray:
        return self.shift.copy()

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        # the box is the symmetric cube, so this is Box.contains; NaN fails it
        if not (x.shape == self.shift.shape
                and np.maximum.reduce(np.abs(x)) <= BOX_HIGH):
            raise OutOfBox(f"{self.name}: position outside the function bounds")
        z = x - self.shift
        if self.rot is not None:
            idx = self.rot_idx
            z[idx] = np.matmul(self.rot, z[idx][..., None])[..., 0]
        return self._base_value(z)

    def _base_value(self, z: np.ndarray) -> float:
        if self.base == "sphere":
            return float(z @ z)
        if self.base == "elliptic":
            return float(self._coeffs @ (z * z))
        if self.base == "rastrigin":
            return float(np.add.reduce(z * z - 10.0 * np.cos(2.0 * math.pi * z) + 10.0))
        if self.base == "ackley":
            n = z.size
            root_mean_sq = math.sqrt(float(z @ z) / n)
            mean_cos = float(np.add.reduce(np.cos(2.0 * math.pi * z))) / n
            return (-20.0 * math.exp(-0.2 * root_mean_sq)
                    - math.exp(mean_cos) + 20.0 + math.e)
        if self.base == "rosenbrock":
            w = z + 1.0  # optimum of the base sits at all-ones, folded into the shift
            return float(np.add.reduce(100.0 * (w[1:] - w[:-1] ** 2) ** 2
                                       + (1.0 - w[:-1]) ** 2))
        partial = z.cumsum()  # schwefel12: _SPECS names no other base
        return float(partial @ partial)

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
