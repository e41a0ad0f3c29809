"""Tests for the seeded benchmark suite."""

import os
import subprocess
import sys

import numpy as np
import pytest

import mcdopt
from mcdopt.benchfns import (
    ADDITIVE_BASES,
    BOX_HIGH,
    BOX_LOW,
    BenchFunction,
    SUITE_NAMES,
    group_size,
    make_function,
    make_suite,
    suite_manifest,
)
from mcdopt.core import BudgetedEvaluator, OutOfBox

from helpers import per_group_rotations, reference_value
from test_digests import X86_64_V3_ENV


class TestSuiteStructure:
    def test_eight_functions(self):
        assert len(SUITE_NAMES) == 8
        suite = make_suite(10, 0)
        assert [fn.name for fn in suite] == list(SUITE_NAMES)

    def test_category_axes(self):
        suite = {fn.name: fn for fn in make_suite(10, 0)}
        assert suite["sphere"].category == "separable-unimodal"
        assert suite["elliptic"].category == "separable-unimodal"
        assert suite["rastrigin"].category == "separable-multimodal"
        assert suite["ackley"].category == "separable-multimodal"
        assert suite["elliptic-group"].category == "partially-separable(2)"
        assert suite["rastrigin-group"].category == "partially-separable(2)"
        assert suite["rosenbrock"].category == "fully-nonseparable"
        assert suite["schwefel12"].category == "fully-nonseparable"

    def test_box_is_shared_cube(self):
        for fn in make_suite(5, 3):
            assert np.all(fn.box.lower == BOX_LOW)
            assert np.all(fn.box.upper == BOX_HIGH)

    def test_shift_inside_middle_band(self):
        for fn in make_suite(50, 7):
            assert np.all(np.abs(fn.shift) <= 80.0)

    def test_group_size_rule(self):
        assert group_size(2) == 2
        assert group_size(4) == 2
        assert group_size(10) == 2
        assert group_size(100) == 25
        assert group_size(1000) == 250

    def test_group_layout(self):
        fn = make_function("elliptic-group", 100, 4)
        m = group_size(100)
        assert len(fn.rot_idx) == len(fn.rot) == 100 // m
        seen = []
        for idx, rot in zip(fn.rot_idx, fn.rot):
            assert list(idx) == sorted(idx)
            assert len(idx) == m
            assert rot.shape == (m, m)
            # orthonormal rotation: Q^T Q == I
            assert np.allclose(rot.T @ rot, np.eye(m), atol=1e-10)
            seen.extend(int(i) for i in idx)
        assert len(seen) == len(set(seen))

    def test_determinism(self):
        a = make_function("rastrigin-group", 12, 99)
        b = make_function("rastrigin-group", 12, 99)
        assert np.array_equal(a.shift, b.shift)
        assert np.array_equal(a.rot_idx, b.rot_idx)
        assert np.array_equal(a.rot, b.rot)

    def test_different_seeds_move_the_optimum(self):
        a = make_function("sphere", 6, 0)
        b = make_function("sphere", 6, 1)
        assert not np.array_equal(a.shift, b.shift)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_function("rosenbrok", 4, 0)

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown function name 'nope'"):
            BenchFunction("nope", np.zeros(4))

    @pytest.mark.parametrize("shift", [np.zeros(0), np.zeros((2, 2)), 0.0])
    def test_shift_must_be_a_non_empty_vector(self, shift):
        with pytest.raises(ValueError, match="shift must be a non-empty vector"):
            BenchFunction("sphere", shift)

    def test_name_decides_base_category_and_dim(self):
        fn = BenchFunction("rosenbrock", np.zeros(3))
        assert (fn.base, fn.category, fn.dim) == ("rosenbrock", "fully-nonseparable", 3)
        grouped = make_function("rastrigin-group", 12, 4)
        again = BenchFunction("rastrigin-group", grouped.shift, grouped.rot_idx, grouped.rot)
        assert (again.base, again.category) == ("rastrigin", "partially-separable(3)")

    def test_stacks_on_an_unrotated_name_rejected(self):
        grouped = make_function("elliptic-group", 8, 6)
        with pytest.raises(ValueError, match="'elliptic' is not rotated"):
            BenchFunction("elliptic", grouped.shift, grouped.rot_idx, grouped.rot)
        with pytest.raises(ValueError, match="'sphere' is not rotated"):
            BenchFunction("sphere", np.zeros(8), rot_idx=grouped.rot_idx)

    def test_grouped_name_without_stacks_rejected(self):
        with pytest.raises(ValueError, match="'elliptic-group' needs"):
            BenchFunction("elliptic-group", np.zeros(8))

    def test_suite_needs_two_dims(self):
        with pytest.raises(ValueError):
            make_suite(1, 0)


class TestValues:
    def test_optimum_value_small_everywhere(self):
        for dim in (2, 10):
            for fn in make_suite(dim, 5):
                assert abs(fn.evaluate(fn.optimum_position)) <= 1e-9

    def test_sphere_at_unit_offsets(self):
        fn = BenchFunction("sphere", np.zeros(4))
        assert fn.evaluate([1.0, 1.0, 1.0, 1.0]) == 4.0

    def test_elliptic_condition_number(self):
        fn = BenchFunction("elliptic", np.zeros(4))
        unit = np.zeros(4)
        unit[0] = 1.0
        assert fn.evaluate(unit) == 1.0
        unit = np.zeros(4)
        unit[3] = 1.0
        assert fn.evaluate(unit) == 1e6

    def test_rastrigin_known_points(self):
        fn = BenchFunction("rastrigin", np.zeros(2))
        assert fn.evaluate([0.0, 0.0]) == 0.0
        # cos(2*pi) == 1 at integer offsets, leaving the quadratic term
        assert abs(fn.evaluate([1.0, 0.0]) - 1.0) < 1e-9

    def test_ackley_zero_at_origin(self):
        fn = BenchFunction("ackley", np.zeros(3))
        assert abs(fn.evaluate([0.0, 0.0, 0.0])) <= 1e-9
        assert fn.evaluate([10.0, -10.0, 10.0]) > 15.0

    def test_rosenbrock_known_points(self):
        fn = BenchFunction("rosenbrock", np.zeros(2))
        assert fn.evaluate([0.0, 0.0]) == 0.0
        # shifted base coordinates (2, 2): 100*(2-4)^2 + (1-2)^2
        assert fn.evaluate([1.0, 1.0]) == 401.0

    def test_schwefel12_double_sum(self):
        fn = BenchFunction("schwefel12", np.zeros(2))
        assert fn.evaluate([1.0, 1.0]) == 5.0

    def test_out_of_box_rejected(self):
        fn = make_function("sphere", 3, 0)
        with pytest.raises(OutOfBox):
            fn.evaluate([0.0, 101.0, 0.0])

    # evaluate runs the block arithmetic on its position as one row, but
    # takes a vector of the function's length only
    @pytest.mark.parametrize("name", SUITE_NAMES)
    @pytest.mark.parametrize("position", [
        np.zeros((1, 4)), np.zeros(5), np.array([0.0, np.nan, 0.0, 0.0])])
    def test_evaluate_takes_one_in_box_vector(self, name, position):
        fn = make_function(name, 4, 0)
        with pytest.raises(OutOfBox):
            fn.evaluate(position)

    def test_identity_rotation_degeneracy(self):
        grouped = make_function("elliptic-group", 8, 6)
        identity = BenchFunction("elliptic-group", grouped.shift,
                                 rot_idx=grouped.rot_idx,
                                 rot=np.broadcast_to(np.eye(grouped.rot.shape[1]),
                                                     grouped.rot.shape),
                                 seed=6)
        plain = BenchFunction("elliptic", grouped.shift)
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.uniform(BOX_LOW, BOX_HIGH, size=8)
            assert identity.evaluate(x) == plain.evaluate(x)


class TestThroughEvaluator:
    """The evaluator leaves bounds checks on suite functions to `evaluate`."""

    @pytest.mark.parametrize("dim", [2, 10, 100])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_values_equal_direct_evaluation(self, name, dim):
        fn = make_function(name, dim, 4)
        rng = np.random.default_rng(dim)
        points = list(rng.uniform(BOX_LOW, BOX_HIGH, size=(20, dim)))
        points += [np.full(dim, BOX_LOW), np.full(dim, BOX_HIGH),
                   np.where(np.arange(dim) % 2 == 0, BOX_LOW, BOX_HIGH)]
        ev = BudgetedEvaluator(fn, len(points))
        for x in points:
            assert ev.evaluate(x).hex() == fn.evaluate(x).hex()
        assert ev.used_nfe == len(points)
        # the same rows in one block: the same values, trace and best
        batch = BudgetedEvaluator(fn, len(points))
        values = batch.evaluate_batch(points)
        assert [v.hex() for v in values] == [fn.evaluate(x).hex() for x in points]
        assert batch.used_nfe == len(points) and batch.trace == ev.trace
        assert batch.best.position.tobytes() == ev.best.position.tobytes()

    @pytest.mark.parametrize("position", [
        [0.0, 100.5, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
        [0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0], [-100.5, 0.0, 0.0],
        [[0.0, 0.0, 0.0]], [0.0, 0.0, 100.0 + 1e-13], np.zeros((3, 1)), 0.0])
    def test_bad_positions_rejected_without_spending(self, position):
        fn = make_function("rastrigin-group", 3, 0)
        with pytest.raises(OutOfBox):
            reference_value(fn, position)
        ev = BudgetedEvaluator(fn, 5)
        with pytest.raises(OutOfBox):
            ev.evaluate(position)
        assert ev.used_nfe == 0 and ev.best is None
        # as one row of a block, or as the block itself (which [[0, 0, 0]] is
        # without fault)
        blocks = [position] if np.shape(position) != (1, 3) else []
        if np.shape(position) == (3,):
            blocks.append(np.array([np.zeros(3), position]))
        for block in blocks:
            with pytest.raises(OutOfBox):
                fn.evaluate_batch(block)
            with pytest.raises(OutOfBox):
                ev.evaluate_batch(block)
            assert ev.used_nfe == 0 and ev.best is None

    @pytest.mark.parametrize("block", [np.zeros((0, 3)), np.zeros((2, 2)), np.zeros((1, 1, 3))])
    def test_bad_blocks_rejected_without_spending(self, block):
        fn = make_function("rastrigin-group", 3, 0)
        with pytest.raises(OutOfBox):
            fn.evaluate_batch(block)
        ev = BudgetedEvaluator(fn, 5)
        with pytest.raises(OutOfBox):
            ev.evaluate_batch(block)
        assert ev.used_nfe == 0 and ev.best is None


class TestReferenceOracle:
    """`evaluate` and `evaluate_batch` against the per-group rotation loop,
    the `np.sum` and `np.cumsum` base forms and a flat bounds check, bit for
    bit."""

    @pytest.mark.parametrize("dim", [2, 10, 100, 1000])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_values_equal_the_reference(self, name, dim):
        fn = make_function(name, dim, 4)
        rng = np.random.default_rng(dim + 1)
        points = list(rng.uniform(BOX_LOW, BOX_HIGH, size=(10, dim)))
        points += [np.full(dim, BOX_LOW), np.full(dim, BOX_HIGH),
                   np.where(np.arange(dim) % 2 == 0, BOX_LOW, BOX_HIGH),
                   np.where(np.arange(dim) % 2 == 0, BOX_HIGH, BOX_LOW),
                   fn.optimum_position]
        expected = [reference_value(fn, x).hex() for x in points]
        assert [fn.evaluate(x).hex() for x in points] == expected
        assert [v.hex() for v in fn.evaluate_batch(points).tolist()] == expected

    # at 7 the rotated groups leave a coordinate out
    @pytest.mark.parametrize("dim", [2, 7, 10, 100, 1000])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_batch_rows_equal_evaluate(self, name, dim):
        _batch_rows_equal_evaluate([name], [dim])

    def test_batch_rows_equal_evaluate_under_the_x86_64_v3_profile(self):
        # the environment picks numpy's loops and OpenBLAS's kernel when the
        # process starts, so the comparison runs again in one fresh interpreter
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(mcdopt.__file__)))
        path = os.pathsep.join(p for p in (tests, src, os.environ.get("PYTHONPATH")) if p)
        code = ("from test_benchfns import SUITE_NAMES, _batch_rows_equal_evaluate as check\n"
                "check(SUITE_NAMES, [2, 7, 10, 100, 1000])\n")
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, **X86_64_V3_ENV),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        assert done.returncode == 0, done.stderr.decode()

    def test_rotation_stacks_are_kept_as_given(self):
        fn = make_function("rastrigin-group", 12, 4)
        m = group_size(12)
        assert fn.rot_idx.shape == (12 // m, m)
        assert fn.rot.shape == (12 // m, m, m)
        again = BenchFunction(fn.name, fn.shift, rot_idx=fn.rot_idx, rot=fn.rot, seed=4)
        assert again.rot_idx is fn.rot_idx and again.rot is fn.rot
        sphere = make_function("sphere", 12, 4)
        assert sphere.rot_idx is None and sphere.rot is None

    @pytest.mark.parametrize("rot_idx, rot", [
        (np.array([[0, 1], [2, 3]]), None),
        (None, np.stack([np.eye(2), np.eye(2)])),
        (np.array([[0, 1], [2, 3]]), np.stack([np.eye(3), np.eye(3)])),
        (np.array([[0, 1], [2, 3]]), np.eye(2)),
        (np.array([0, 1]), np.eye(2)),
        (np.array([[0, 1], [2, 3]]), np.stack([np.eye(2)] * 3))])
    def test_mismatched_rotation_stacks_rejected(self, rot_idx, rot):
        with pytest.raises(ValueError):
            BenchFunction("rastrigin-group", np.zeros(5), rot_idx=rot_idx, rot=rot)

    @pytest.mark.parametrize("rot_idx", [
        [[0, 9]], [[-1, 0]], [[0, 4]], [[0, 0]], [[0, 1], [1, 2]],
        np.array([[0.0, 1.0]]), np.array([[True, False]])])
    def test_rotation_indices_must_be_distinct_integers_in_range(self, rot_idx):
        with pytest.raises(ValueError, match="distinct integer indices in \\[0, 4\\)"):
            BenchFunction("rastrigin-group", np.zeros(4), rot_idx,
                          np.broadcast_to(np.eye(2), (len(rot_idx), 2, 2)))


def _batch_rows_equal_evaluate(names, dims):
    """`evaluate_batch` gives every row of a block the bits of `evaluate`:
    random rows, the all-lower, all-upper and both alternating corners, and
    the optimum, in one block. A vector exp in ackley's tail would round
    about one row in a hundred differently at D=2, so the small dims take
    thousands of random rows."""
    for name in names:
        for dim in dims:
            fn = make_function(name, dim, 4)
            rng = np.random.default_rng(dim + 2)
            alternating = np.where(np.arange(dim) % 2 == 0, BOX_LOW, BOX_HIGH)
            random_rows = rng.uniform(BOX_LOW, BOX_HIGH, size=(max(12, 4000 // dim), dim))
            block = np.vstack([random_rows,
                               np.full(dim, BOX_LOW), np.full(dim, BOX_HIGH),
                               alternating, -alternating, fn.optimum_position])
            values = fn.evaluate_batch(block)
            assert values.shape == (len(block),)
            assert [v.hex() for v in values.tolist()] == \
                [fn.evaluate(x).hex() for x in block], (name, dim)


GROUPED = ("elliptic-group", "rastrigin-group")


def _stacks_equal_the_per_group_draw(dims, seeds):
    for name in GROUPED:
        for dim in dims:
            for seed in seeds:
                fn = make_function(name, dim, seed)
                rot_idx, rot = per_group_rotations(name, dim, seed)
                assert fn.rot_idx.dtype == rot_idx.dtype
                assert fn.rot_idx.tobytes() == rot_idx.tobytes(), (name, dim, seed)
                assert fn.rot.tobytes() == rot.tobytes(), (name, dim, seed)


class TestRotationOracle:
    """The stacked QR in `make_function` against one draw and one QR per
    group, bit for bit."""

    @pytest.mark.parametrize("dim", [8, 10, 100, 1000])
    def test_stacks_equal_the_per_group_draw(self, dim):
        _stacks_equal_the_per_group_draw([dim], [0, 7, 2026])

    def test_stacks_equal_the_per_group_draw_on_the_haswell_kernel(self):
        # OPENBLAS_CORETYPE picks OpenBLAS's kernel for the process it is set
        # in, so the comparison runs again in one fresh interpreter
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(mcdopt.__file__)))
        path = os.pathsep.join(p for p in (tests, src, os.environ.get("PYTHONPATH")) if p)
        code = ("from test_benchfns import _stacks_equal_the_per_group_draw as check\n"
                "check([8, 10, 100, 1000], [0, 2026])\n")
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        assert done.returncode == 0, done.stderr.decode()


def _with_coordinate(x, j, t):
    out = x.copy()
    out[j] = t
    return out


class TestSeparability:
    def test_additive_bases_are_coordinate_separable(self):
        # moving coordinate j from t2 to t1 changes f by the same amount no
        # matter what the other coordinates hold
        rng = np.random.default_rng(41)
        for name in ADDITIVE_BASES:
            fn = make_function(name, 6, 3)
            a = rng.uniform(BOX_LOW, BOX_HIGH, size=6)
            b = rng.uniform(BOX_LOW, BOX_HIGH, size=6)
            scale = max(1.0, abs(fn.evaluate(a)), abs(fn.evaluate(b)))
            for j in range(6):
                for t1, t2 in ((-75.0, -10.0), (0.0, 42.0), (99.0, -33.0)):
                    da = (fn.evaluate(_with_coordinate(a, j, t1))
                          - fn.evaluate(_with_coordinate(a, j, t2)))
                    db = (fn.evaluate(_with_coordinate(b, j, t1))
                          - fn.evaluate(_with_coordinate(b, j, t2)))
                    assert abs(da - db) <= 1e-9 * scale

    def _interaction(self, fn, x, i, j, delta=1.0):
        di = _with_coordinate(x, i, x[i] + delta)
        dj = _with_coordinate(x, j, x[j] + delta)
        dij = _with_coordinate(di, j, x[j] + delta)
        return (fn.evaluate(dij) - fn.evaluate(di)
                - fn.evaluate(dj) + fn.evaluate(x))

    def test_rotated_groups_couple_coordinates(self):
        for name in ("elliptic-group", "rastrigin-group"):
            fn = make_function(name, 8, 1)
            x = fn.optimum_position
            witnesses = []
            for idx in fn.rot_idx:
                pairs = [(int(idx[a]), int(idx[b]))
                         for a in range(len(idx)) for b in range(a + 1, len(idx))]
                witnesses.append(max(abs(self._interaction(fn, x, i, j))
                                     for i, j in pairs))
            # every rotated group shows at least one interacting pair
            assert min(witnesses) > 1e-6

    def test_no_coupling_across_groups(self):
        fn = make_function("elliptic-group", 8, 1)
        x = fn.optimum_position
        members = [set(int(i) for i in idx) for idx in fn.rot_idx]
        for gi in range(len(members)):
            for gj in range(gi + 1, len(members)):
                i = min(members[gi])
                j = min(members[gj])
                assert abs(self._interaction(fn, x, i, j)) <= 1e-4

    def test_nonseparable_bases_couple_adjacent_coordinates(self):
        for name in ("rosenbrock", "schwefel12"):
            fn = make_function(name, 4, 2)
            x = fn.optimum_position
            assert abs(self._interaction(fn, x, 0, 1)) > 1e-6


class TestManifest:
    def test_structure(self):
        suite = make_suite(6, 9)
        manifest = suite_manifest(suite)
        assert manifest["dim"] == 6
        assert manifest["seed"] == 9
        assert manifest["box"] == {"lower": -100.0, "upper": 100.0}
        names = [entry["name"] for entry in manifest["functions"]]
        assert names == sorted(SUITE_NAMES)
        for entry in manifest["functions"]:
            assert entry["optimum_value"] == 0.0
            assert len(entry["optimum_position_sha256"]) == 64

    def test_hash_tracks_the_shift(self):
        one = suite_manifest(make_suite(6, 1))
        two = suite_manifest(make_suite(6, 2))
        again = suite_manifest(make_suite(6, 1))
        assert one == again
        hashes_one = {e["name"]: e["optimum_position_sha256"] for e in one["functions"]}
        hashes_two = {e["name"]: e["optimum_position_sha256"] for e in two["functions"]}
        assert all(hashes_one[name] != hashes_two[name] for name in hashes_one)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            suite_manifest([make_function("sphere", 4, 0), make_function("sphere", 5, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            suite_manifest([])
