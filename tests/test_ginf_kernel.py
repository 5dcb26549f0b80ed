"""Differential tests: the batched G-infinity kernel and the extension
operators built on it, against brute force and the per-pair references."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued import extend
from qvalued.extend import BoundarySample, WhitneyExtension, cone_extend
from qvalued.qspace import MetricKind, QTuple, dist, match_many

from oracles import (
    _split_clusters,
    brute_force_dist,
    cone_eval_reference,
    ginf_reference,
    whitney_structure_reference,
)


@st.composite
def int_stacks(draw):
    Q = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    E = draw(st.integers(1, 3 if Q == 6 else 6))
    coords = st.integers(-2, 2)
    shape = (E, Q, n)
    A = np.array(draw(st.lists(coords, min_size=E * Q * n, max_size=E * Q * n)), float)
    B = np.array(draw(st.lists(coords, min_size=E * Q * n, max_size=E * Q * n)), float)
    return A.reshape(shape), B.reshape(shape)


class TestGinfMatchMany:
    @settings(max_examples=150, deadline=None)
    @given(int_stacks())
    def test_against_brute_force_and_dist_with_ties(self, stacks):
        A, B = stacks
        value, perm = match_many(A, B, MetricKind.GINF)
        assert value.shape == (A.shape[0],) and perm.shape == A.shape[:2]
        for e in range(A.shape[0]):
            best, arg = brute_force_dist(A[e], B[e], "ginf")
            ref_value, ref_perm = ginf_reference(A[e], B[e])
            assert value[e] == best == ref_value
            assert tuple(perm[e]) == tuple(arg) == ref_perm
            got, match = dist(QTuple(A[e]), QTuple(B[e]), MetricKind.GINF)
            assert got == ref_value and match.perm == ref_perm

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_floats_match_old_dist_bit_for_bit(self, Q, n):
        rng = np.random.default_rng(10 * Q + n)
        A = rng.standard_normal((40, Q, n)) * rng.choice([1e-3, 1.0, 1e3], (40, 1, 1))
        B = rng.standard_normal((40, Q, n))
        value, perm = match_many(A, B, MetricKind.GINF)
        for e in range(40):
            ref_value, ref_perm = ginf_reference(A[e], B[e])
            assert value[e] == ref_value
            assert tuple(perm[e]) == ref_perm

    @pytest.mark.parametrize("Q", [1, 3, 5])
    def test_batched_rows_equal_single_calls(self, Q):
        # 5000 rows at Q = 5 span several of the kernel's enumeration chunks
        rng = np.random.default_rng(Q)
        A = rng.integers(-3, 4, (5000, Q, 2)).astype(float)
        ref = rng.integers(-3, 4, (Q, 2)).astype(float)
        value, perm = match_many(A, ref[None], MetricKind.GINF)
        tiled = match_many(A, np.broadcast_to(ref, A.shape), MetricKind.GINF)
        assert np.array_equal(value, tiled[0]) and np.array_equal(perm, tiled[1])
        for e in range(0, 5000, 97):
            one_value, one_perm = match_many(A[e:e + 1], ref[None], MetricKind.GINF)
            assert one_value[0] == value[e]
            assert np.array_equal(one_perm[0], perm[e])

    @pytest.mark.parametrize("Q", [1, 3, 6])
    def test_empty_stack(self, Q):
        value, perm = match_many(np.zeros((0, Q, 2)), np.zeros((0, Q, 2)), MetricKind.GINF)
        assert value.shape == (0,) and perm.shape == (0, Q)


class TestConeHelpers:
    def test_oscillation_matches_pairwise_max(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-3, 3, (23, 3, 2))
        expected = max(ginf_reference(vals[i], vals[j])[0]
                       for i in range(23) for j in range(i + 1, 23))
        assert extend._oscillation(vals) == expected
        assert extend._oscillation(vals[:1]) == 0.0

    def test_oscillation_over_several_chunks(self):
        # 400 samples make 79,800 pairs: two chunks of the kernel call
        rng = np.random.default_rng(1)
        vals = rng.uniform(-3, 3, (400, 2, 2))
        vals[300, :, 0] = 50.0  # the farthest pair, (300, 399), lies in the second chunk
        vals[399, :, 0] = -50.0
        i, j = np.triu_indices(400, 1)
        value, _ = match_many(vals[i], vals[j], MetricKind.GINF)
        assert extend._oscillation(vals) == value.max()

    def test_split_clusters_match_union_find(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            Q = int(rng.integers(1, 7))
            pts = rng.integers(-3, 4, (Q, 2)).astype(float)
            threshold = float(rng.choice([0.0, 1.0, 2.0, np.sqrt(2.0), 3.0]))
            count, cluster_of = extend._split_clusters(pts, threshold)
            groups = [np.flatnonzero(cluster_of == c) for c in range(count)]
            expected = _split_clusters(pts, threshold)
            assert len(groups) == len(expected)
            assert all(np.array_equal(g, r) for g, r in zip(groups, expected))


def clustered_values(rng, count, Q, n, centers):
    """Tuples whose points sit near fixed, well-separated centers."""
    base = np.asarray(centers, dtype=float)[:Q, :n]
    return base[None] + rng.uniform(-0.05, 0.05, (count, Q, n))


def count_splits(monkeypatch):
    calls = []
    real = extend._split_clusters

    def counted(points, threshold):
        calls.append(1)
        return real(points, threshold)

    monkeypatch.setattr(extend, "_split_clusters", counted)
    return calls


CENTERS = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]]


class TestConeAgainstReference:
    @pytest.mark.parametrize("Q,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])
    def test_clustered_and_random(self, monkeypatch, Q, n):
        rng = np.random.default_rng(100 * Q + n)
        count = 9
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        locs = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        datasets = [clustered_values(rng, count, Q, n, CENTERS),
                    rng.integers(-2, 3, (count, Q, n)).astype(float)]
        # a repeated point makes a tie inside one tuple
        datasets[1][:, 0] = datasets[1][:, -1]
        queries = np.vstack([rng.uniform(-1.4, 1.4, (12, 2)), [[0.0, 0.0]], locs[:2] * 0.5])
        for vals in datasets:
            sample = BoundarySample(points=list(zip(locs, vals)), R=2.0, m=2)
            splits = count_splits(monkeypatch)
            fast = [cone_extend(sample, q).points for q in queries]
            if Q >= 2 and vals is datasets[0]:
                assert splits, "the clustered data should take the split branch"
            monkeypatch.setattr(extend, "_cone_eval", cone_eval_reference)
            ref = [cone_extend(sample, q).points for q in queries]
            monkeypatch.undo()
            for a, b in zip(fast, ref):
                assert np.array_equal(a, b)


def reference_whitney(ext):
    ref = copy.copy(ext)
    ref._leaves, ref._corner_values, ref._columns, ref._rows = whitney_structure_reference(ext)
    return ref


def assert_same_structure(ext, ref):
    assert ext._leaves == ref._leaves
    assert ext._corner_values.keys() == ref._corner_values.keys()
    for key, val in ref._corner_values.items():
        assert np.array_equal(ext._corner_values[key], val)
    if ext.m == 2:
        for mine, theirs in ((ext._columns, ref._columns), (ext._rows, ref._rows)):
            assert mine.keys() == theirs.keys()
            for key in theirs:
                assert np.array_equal(mine[key], theirs[key])


class TestWhitneyAgainstReference:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["clustered", "random"])
    def test_evaluate_and_structure(self, monkeypatch, m, kind):
        rng = np.random.default_rng(7 * m + len(kind))
        L, Q, n = 12, 3, 2
        locs = rng.uniform(0.5, 1.0, (L, m))
        # two samples at equal sup distance from the dyadic corner at 1/4
        locs[0] = 0.25 - 0.125
        locs[1] = 0.25 + 0.125
        if kind == "clustered":
            vals = clustered_values(rng, L, Q, n, CENTERS)
        else:
            vals = rng.integers(-2, 3, (L, Q, n)).astype(float)
        box = [[0.0, 1.0]] * m
        ext = WhitneyExtension(list(zip(locs, vals)), box, 6)
        ref = reference_whitney(ext)
        assert_same_structure(ext, ref)
        assert np.array_equal(ext._corner_values[(16,) * m], vals[0])

        queries = np.vstack([rng.uniform(0.0, 1.0, (25, m)), locs[:3],
                             np.full((1, m), 0.25)])
        splits = count_splits(monkeypatch)
        fast = [ext.evaluate(q).points for q in queries]
        if kind == "clustered":
            assert splits, "the clustered data should take the split branch"
        monkeypatch.setattr(extend, "_cone_eval", cone_eval_reference)
        slow = [ref.evaluate(q).points for q in queries]
        monkeypatch.undo()
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)

    def test_structure_on_random_boxes(self):
        rng = np.random.default_rng(3)
        for trial in range(12):
            m = 1 + trial % 2
            L = int(rng.integers(1, 25))
            locs = np.unique(np.round(rng.uniform(-0.5, 1.5, (L, m)) * 16) / 16, axis=0)
            vals = rng.uniform(-1, 1, (len(locs), 2, 1))
            box = [[-0.5, 1.2], [0.1, 1.0]][:m]
            ext = WhitneyExtension(list(zip(locs, vals)), box, int(rng.integers(0, 8)))
            assert_same_structure(ext, reference_whitney(ext))
