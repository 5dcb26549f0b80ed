"""Differential tests: the batched G-infinity kernel and the extension
operators built on it, against brute force and the per-pair references."""

import copy
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued import extend
from qvalued.extend import BoundarySample, ConeExtension, WhitneyExtension, cone_extend
from qvalued.qspace import MetricKind, QTuple, dist, match_many

from oracles import (
    _sorted,
    _split_clusters,
    all_corner_samples,
    all_pairing_costs,
    cone_extend_reference,
    cone_plan_reference,
    ginf_reference,
    nearest_samples_reference,
    whitney_breaks_reference,
    whitney_structure_reference,
    whitney_tree_as_dicts,
    whitney_values_reference,
)


@st.composite
def int_stacks(draw):
    Q = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    E = draw(st.integers(1, 6 if Q < 6 else 3 if Q == 6 else 2))
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
            costs, perms = all_pairing_costs(A[e], B[e], "ginf")
            ref_value, ref_perm = ginf_reference(A[e], B[e])
            assert value[e] == costs.min() == ref_value
            assert tuple(perm[e]) == tuple(perms[costs.argmin()]) == ref_perm
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

    def test_lexmin_skips_columns_past_the_limit_unsolved(self, monkeypatch):
        # on the 0/1 costs of G-inf at Q = 8 many columns already pass the
        # limit 0 on their own; they are skipped without a sub-solve
        from qvalued import qspace

        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((2, 6, 8, 3))
        solves, searches = [], []
        optimum, lexmin = qspace._optimum, qspace._lexmin_assignment

        def counted_lexmin(cost, limit):
            before = len(solves)
            perm = lexmin(cost, limit)
            searches.append((cost, limit, perm, len(solves) - before))
            return perm

        monkeypatch.setattr(qspace, "_optimum", lambda cost: solves.append(1) or optimum(cost))
        monkeypatch.setattr(qspace, "_lexmin_assignment", counted_lexmin)
        value, perm = match_many(A, B, MetricKind.GINF)
        monkeypatch.undo()
        for e in range(6):
            assert (value[e], tuple(perm[e])) == ginf_reference(A[e], B[e])
        assert len(searches) == 6
        skipped = 0
        for cost, limit, taken, made in searches:
            # without the skip, each row but the last solves for every free
            # column up to the one it takes
            prefix, free, row_tried, row_skipped = 0.0, list(range(8)), 0, 0
            for i, j in enumerate(taken[:-1].tolist()):
                for c in free[:free.index(j) + 1]:
                    row_tried += 1
                    row_skipped += prefix + cost[i, c] > limit
                prefix += cost[i, j]
                free.remove(j)
            assert made == row_tried - row_skipped
            skipped += row_skipped
        assert skipped > 0


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

    def test_oscillation_of_a_stack_across_chunks(self):
        # 3 rows of 220 samples make 72,270 pairs: the chunk boundary falls
        # inside the third row
        rng = np.random.default_rng(2)
        stack = rng.uniform(-3, 3, (3, 220, 2, 2))
        got = extend._oscillation(stack)
        assert got.shape == (3,)
        for e in range(3):
            i, j = np.triu_indices(220, 1)
            value, _ = match_many(stack[e, i], stack[e, j], MetricKind.GINF)
            assert got[e] == value.max()

    def test_split_clusters_of_a_stack_match_one_by_one(self):
        rng = np.random.default_rng(3)
        for Q in range(1, 7):
            pts = rng.integers(-3, 4, (40, Q, 2)).astype(float)
            threshold = rng.choice([0.0, 1.0, 2.0, np.sqrt(2.0), 3.0], 40)
            count, cluster_of = extend._split_clusters(pts, threshold)
            for s in range(40):
                one_count, one_cluster_of = extend._split_clusters(pts[s], threshold[s])
                assert count[s] == one_count
                assert np.array_equal(cluster_of[s], one_cluster_of)

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
    """Tuples whose points sit near fixed, well-separated centers, listed
    in a different order in each tuple (the tuples are unordered)."""
    base = np.asarray(centers, dtype=float)[:Q, :n]
    vals = base[None] + rng.uniform(-0.05, 0.05, (count, Q, n))
    order = rng.random((count, Q)).argsort(axis=1)
    return vals[np.arange(count)[:, None], order]


def count_splits(monkeypatch):
    calls = []
    real = extend._split_clusters

    def counted(points, threshold):
        calls.append(1)
        return real(points, threshold)

    monkeypatch.setattr(extend, "_split_clusters", counted)
    return calls


CENTERS = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]]


def assert_same_values(fast, ref):
    for a, b in zip(fast, ref, strict=True):
        assert np.array_equal(a, b)


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
        queries = np.vstack([rng.uniform(-1.4, 1.4, (12, 2)), [[0.0, 0.0]], locs[:2] * 0.5,
                             locs[2:4]])
        for vals in datasets:
            sample = BoundarySample(points=list(zip(locs, vals)), R=2.0, m=2)
            splits = count_splits(monkeypatch)
            cone = ConeExtension(sample)
            fast = [cone.evaluate(q).points for q in queries]
            if Q >= 2 and vals is datasets[0]:
                assert splits, "the clustered data should take the split branch"
            monkeypatch.undo()
            reference = [cone_extend_reference(sample, q).points for q in queries]
            assert_same_values(fast, reference)
            assert_same_values(cone.evaluate_many(queries), reference)
            assert_same_values(fast, [cone_extend(sample, q).points for q in queries])

    @pytest.mark.parametrize("kind", ["clustered", "ties"])
    def test_one_dimensional_ball(self, monkeypatch, kind):
        # m = 1: the sphere is the two points -R and R
        rng = np.random.default_rng(len(kind))
        if kind == "clustered":
            vals = clustered_values(rng, 2, 3, 2, CENTERS)
        else:
            vals = np.array([[[1.0, 0.0], [1.0, 0.0], [-1.0, 2.0]],
                             [[-1.0, 2.0], [1.0, 0.0], [0.0, 0.0]]])
        sample = BoundarySample(points=[([-1.5], vals[0]), ([1.5], vals[1])], R=1.5, m=1)
        splits = count_splits(monkeypatch)
        queries = [[-1.5], [-1.0], [-1e-17], [0.0], [0.25], [1.2], [1.5]]
        cone = ConeExtension(sample)
        fast = [cone.evaluate(q).points for q in queries]
        if kind == "clustered":
            assert splits, "the clustered data should take the split branch"
        monkeypatch.undo()
        reference = [cone_extend_reference(sample, q).points for q in queries]
        assert_same_values(fast, reference)
        assert_same_values(cone.evaluate_many(queries), reference)


def assert_same_sorter(got, want):
    if want is None:
        assert got is None
        return
    ref, cluster_of, ends, children = got
    # byte for byte, so that -0.0 and 0.0 differ
    assert ref.tobytes() == want[0].tobytes() and cluster_of.tobytes() == want[1].tobytes()
    assert ends == want[2] and len(children) == len(want[3])
    for child, other in zip(children, want[3]):
        assert_same_sorter(child, other)


def plan_stack(rng, E, L, Q, n):
    """A stack of E sample sets that mixes split and leaf rows: clustered
    tuples, small integer tuples with a repeated point, one tuple
    witnessed L times (oscillation 0) and tuples of one repeated point."""
    centers = 3.0 * np.column_stack([np.arange(Q), np.arange(Q) % 2, np.zeros(Q)])
    kinds = [
        lambda: clustered_values(rng, L, Q, n, centers),
        lambda: rng.integers(-2, 3, (L, Q, n)).astype(float),
        lambda: np.repeat(rng.uniform(-1, 1, (1, Q, n)), L, axis=0),
        lambda: np.repeat(rng.uniform(-1, 1, (L, 1, n)), Q, axis=1),
        lambda: rng.uniform(-1, 1, (L, Q, n)),
    ]
    rows = [kinds[e % len(kinds)]() for e in range(E)]
    rows[1][:, 0] = rows[1][:, -1]
    return np.array(rows)


def cone_plans(stack):
    """The ``(Y, sorter, samples)`` cone plan of each row of ``stack``, from
    one ``_plan_rows`` call."""
    return list(zip(*extend._plan_rows(stack)))


class TestConePlanMany:
    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("L", [1, 2, 8, 14])
    def test_rows_match_the_recursive_plan(self, monkeypatch, Q, L):
        rng = np.random.default_rng(10 * Q + L)
        n = 1 + (Q + L) % 3
        stack = plan_stack(rng, 3 if Q == 6 else 7, L, Q, n)
        splits = count_splits(monkeypatch)
        plans = cone_plans(stack)
        if Q >= 2 and L >= 2:
            assert splits, "the clustered row should take the split branch"
        monkeypatch.undo()
        assert len(plans) == len(stack)
        for plan, row in zip(plans, stack):
            Y, sorter, samples = cone_plan_reference(row)
            assert np.array_equal(plan[0], Y)
            assert np.array_equal(plan[2], samples)
            assert_same_sorter(plan[1], sorter)
            [one] = cone_plans(row[None])
            assert np.array_equal(one[0], Y) and np.array_equal(one[2], samples)
            assert_same_sorter(one[1], sorter)

    def test_identical_corners_split_by_repeated_points(self):
        # the Whitney edge case: both ends share a sample, so the oscillation
        # is 0 and the clusters are the groups of equal points
        value = np.array([[1.0, 0.0], [1.0, 0.0], [-2.0, 1.0], [0.5, 0.5]])
        stack = np.array([[value, value], [value, value[::-1]]])
        for plan, row in zip(cone_plans(stack), stack):
            Y, sorter, samples = cone_plan_reference(row)
            assert np.array_equal(plan[0], Y) and np.array_equal(plan[2], samples)
            assert_same_sorter(plan[1], sorter)
        assert cone_plans(stack)[0][1][2] == [2, 3, 4]

    def test_reference_tuple_is_the_first_above_the_threshold(self):
        # oscillation 1: only the second tuple's gap, 6.1, exceeds 3 * Q * 1
        row = np.array([[[1.0], [5.1]], [[0.0], [6.1]]])
        stack = np.array([row, row[::-1]])
        plans = cone_plans(stack)
        for plan, sample_vals in zip(plans, stack):
            Y, sorter, samples = cone_plan_reference(sample_vals)
            assert np.array_equal(plan[0], Y) and np.array_equal(plan[2], samples)
            assert_same_sorter(plan[1], sorter)
        assert np.array_equal(plans[0][1][0], [[0.0], [6.1]])

    def test_empty_stack(self):
        assert cone_plans(np.zeros((0, 2, 3, 2))) == []

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_row_planned_as_if_alone(self, monkeypatch, Q, n):
        # no row's plan depends on the other rows of its stack, bit for bit:
        # the Whitney batches plan each distinct row once and share the plan
        rng = np.random.default_rng(100 + 10 * Q + n)
        stack = plan_stack(rng, 5, 3, Q, n)
        signed = rng.integers(-2, 3, (3, Q, n)).astype(float)
        signed[0, 0] = 0.0
        flipped = np.where(signed == 0.0, -0.0, signed)
        stack = np.concatenate([stack, stack[:2], [signed, flipped]])
        splits = count_splits(monkeypatch)
        whole = cone_plans(stack)
        if Q >= 2:
            assert splits, "the clustered row should take the split branch"
        monkeypatch.undo()
        for plan, row in zip(whole, stack, strict=True):
            [alone] = cone_plans(row[None])
            assert plan[0].tobytes() == alone[0].tobytes()
            assert plan[2].tobytes() == alone[2].tobytes()
            assert_same_sorter(plan[1], alone[1])
        # the signed zeros stay in the plans of the last two rows
        assert whole[-1][2].tobytes() != whole[-2][2].tobytes()


def reference_whitney(ext):
    """A copy of ``ext`` whose array tree is built from the dict tree of
    ``whitney_structure_reference``, with empty plan caches."""
    leaves, corner_values, columns, rows = whitney_structure_reference(ext)
    m, depth = ext.m, ext.depth
    L = (1 << depth) + 1
    ref = copy.copy(ext)
    keys, whitney, ref._level_start = [], [], [0]
    for d in range(depth + 1):
        level = sorted((int(np.ravel_multi_index(k, (1 << d,) * m)), kind == "w")
                       for (k, at), kind in leaves.items() if at == d)
        keys += [key for key, _ in level]
        whitney += [w for _, w in level]
        ref._level_start.append(len(keys))
    ref._leaf_keys = np.array(keys, dtype=np.int64)
    ref._leaf_whitney = np.array(whitney, dtype=bool)
    corners = sorted(corner_values)
    ref._corners = np.array(corners, dtype=np.int64).reshape(-1, m)
    scale = ext.S / (1 << depth)
    ref._corner_nearest, _ = nearest_samples_reference(ext.locs, ext.root_lo + ref._corners * scale)
    for c, i in zip(corners, ref._corner_nearest):
        assert np.array_equal(ext.vals[i], corner_values[c])
    index = {c: i for i, c in enumerate(corners)}
    if m == 1:
        entries = [(c[0], index[c]) for c in corners]
    else:
        entries = [(line * L + pos, index[(line, pos)])
                   for line in sorted(columns) for pos in columns[line].tolist()]
        entries += [(L * L + line * L + pos, index[(pos, line)])
                    for line in sorted(rows) for pos in rows[line].tolist()]
    ref._lines = np.array([key for key, _ in entries], dtype=np.int64)
    ref._line_corner = np.array([c for _, c in entries], dtype=np.intp)
    ref._edge_planned = np.zeros(len(entries), dtype=bool)
    ref._edge_Y = np.empty((len(entries), ext.Q, ext.n))
    ref._edge_ends = np.empty((len(entries), 2, ext.Q, ext.n))
    ref._face_planned = np.zeros(len(keys), dtype=bool)
    ref._face_Y = np.empty((len(keys), ext.Q, ext.n))
    ref._face_sorter = [None] * len(keys)
    return ref


def assert_same_structure(ext, ref):
    for name in ("_leaf_keys", "_leaf_whitney", "_corners", "_lines", "_line_corner"):
        assert np.array_equal(getattr(ext, name), getattr(ref, name)), name
    # a corner's sample is looked up when a planned edge first needs it: every
    # corner through that lookup, and the ones looked up so far, as the reference
    assert np.array_equal(all_corner_samples(ext), ref._corner_nearest)
    known = ext._corner_nearest >= 0
    assert np.array_equal(ext._corner_nearest[known], ref._corner_nearest[known])
    assert ext._level_start == ref._level_start
    mine, theirs = whitney_tree_as_dicts(ext), whitney_tree_as_dicts(ref)
    assert mine[0] == theirs[0]
    assert mine[1].keys() == theirs[1].keys()
    for key, val in theirs[1].items():
        assert np.array_equal(mine[1][key], val)
    for got, want in zip(mine[2:], theirs[2:]):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key])


def record_face_stations(monkeypatch, ext):
    """Record, per face ``(base, side)``, the station values that
    ``ext._plan_faces`` builds, in station order, while ``monkeypatch`` holds."""
    stations, planning = {}, []
    plan_faces, perimeter_values = ext._plan_faces, ext._perimeter_values

    def planned(leaf, base, side):
        planning.append(True)
        try:
            return plan_faces(leaf, base, side)
        finally:
            planning.pop()

    def recorded(base, side, center, rel):
        vals = perimeter_values(base, side, center, rel)
        if planning:
            for b, s, row in zip(base.tolist(), side.tolist(), vals):
                stations.setdefault((tuple(b), s), []).append(row)
        return vals

    monkeypatch.setattr(ext, "_plan_faces", planned)
    monkeypatch.setattr(ext, "_perimeter_values", recorded)
    return stations


def assert_each_problem_planned_once(ext, stacks, stations):
    """The rows of the ``_plan_rows`` calls ``stacks`` of the one batch that
    planned everything ``ext`` holds are its distinct problems, each once:
    the end samples of each distinct ordered pair of a planned edge, and
    each distinct station stack ``stations`` of a planned face.  The stacks
    of full Q are the batch's own; a split's clusters hold fewer points.
    Returns the planned edges, distinct pairs, planned faces and distinct
    station stacks, counted."""
    edges = np.flatnonzero(ext._edge_planned)
    ends = ext._corner_nearest[ext._line_corner[np.stack([edges, edges + 1], axis=1)]]
    pairs = set(map(tuple, ends.tolist()))
    faces = {np.array(rows).tobytes() for rows in stations.values()}
    own = [row for stack in stacks if stack.shape[2] == ext.Q for row in stack]
    assert sorted(row.tobytes() for row in own if len(row) == 2) == sorted(
        ext.vals[list(pair)].tobytes() for pair in pairs)
    assert sorted(row.tobytes() for row in own if len(row) > 2) == sorted(faces)
    return len(edges), len(pairs), len(stations), len(faces)


def whitney_leaves(ext):
    """The Whitney leaves ``(k, d)`` of ``ext``, sorted."""
    return sorted(key for key, kind in whitney_tree_as_dicts(ext)[0].items() if kind == "w")


def leaf_face(ext, leaf):
    """The integer base corner and side of the leaf at index ``leaf``."""
    d = int(np.searchsorted(ext._level_start, leaf, side="right")) - 1
    k = np.array(np.unravel_index(int(ext._leaf_keys[leaf]), (1 << d,) * ext.m))
    side = 1 << (ext.depth - d)
    return k * side, side


def skeleton_queries(ext, rng, leaves=12):
    """Centres, corners and side midpoints of some Whitney leaves."""
    keys = whitney_leaves(ext)
    out = []
    for i in rng.choice(len(keys), min(leaves, len(keys)), replace=False):
        k, d = keys[i]
        size = ext.S / (1 << d)
        lo = ext.root_lo + np.array(k) * size
        for offset in np.ndindex(*(3,) * ext.m):
            out.append(lo + np.array(offset) * (size / 2.0))
    return np.unique(np.array(out), axis=0)


def whitney_data(rng, m, kind, L=12, Q=3, n=2):
    locs = rng.uniform(0.5, 1.0, (L, m))
    # two samples at equal sup distance from the dyadic corner at 1/4
    locs[0] = 0.25 - 0.125
    locs[1] = 0.25 + 0.125
    if kind == "clustered":
        vals = clustered_values(rng, L, Q, n, CENTERS)
    else:
        vals = rng.integers(-2, 3, (L, Q, n)).astype(float)
        # a repeated point makes a tie inside one tuple
        vals[:, 0] = vals[:, -1]
    return locs, vals


class TestWhitneyAgainstReference:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["clustered", "random"])
    def test_evaluate_and_structure(self, monkeypatch, m, kind):
        rng = np.random.default_rng(7 * m + len(kind))
        locs, vals = whitney_data(rng, m, kind)
        box = [[0.0, 1.0]] * m
        ext = WhitneyExtension(list(zip(locs, vals)), box, 6)
        ref = reference_whitney(ext)
        assert_same_structure(ext, ref)
        assert np.array_equal(whitney_tree_as_dicts(ext)[1][(16,) * m], vals[0])

        queries = np.vstack([rng.uniform(0.0, 1.0, (25, m)), locs[:3],
                             np.full((1, m), 0.25)])
        splits = count_splits(monkeypatch)
        fast = [ext.evaluate(q).points for q in queries]
        if kind == "clustered":
            assert splits, "the clustered data should take the split branch"
        monkeypatch.undo()
        assert_same_values(fast, whitney_values_reference(ext, queries))
        # the array code on the tree built from the reference
        assert_same_values(fast, ref.evaluate_many(queries))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["clustered", "random"])
    def test_centres_corners_and_skeleton_edges(self, m, kind):
        rng = np.random.default_rng(11 * m + len(kind))
        locs, vals = whitney_data(rng, m, kind)
        ext = WhitneyExtension(list(zip(locs, vals)), [[0.0, 1.0]] * m, 6)
        queries = skeleton_queries(ext, rng)
        assert len(queries) >= 12 * 2 * m
        fast = [ext.evaluate(q).points for q in queries]
        assert_same_values(fast, whitney_values_reference(ext, queries))

    @pytest.mark.parametrize("kind", ["clustered", "random"])
    def test_queries_sharing_a_leaf_match_a_fresh_instance(self, kind):
        rng = np.random.default_rng(len(kind))
        locs, vals = whitney_data(rng, 2, kind)
        data, box = list(zip(locs, vals)), [[0.0, 1.0], [0.0, 1.0]]
        ext = WhitneyExtension(data, box, 6)
        # the largest Whitney leaf, probed many times in a random order
        (k, d) = min(whitney_leaves(ext))
        size = ext.S / (1 << d)
        lo = ext.root_lo + np.array(k) * size
        queries = lo + size * rng.uniform(0.0, 1.0, (15, 2))
        queries = np.vstack([queries, queries[::-1]])
        shared = [ext.evaluate(q).points for q in queries]
        [leaf] = np.flatnonzero(ext._face_planned)
        base, side = leaf_face(ext, leaf)
        assert side == 1 << (ext.depth - d) and base.tolist() == (np.array(k) * side).tolist()
        fresh = [WhitneyExtension(data, box, 6).evaluate(q).points for q in queries]
        assert_same_values(shared, fresh)
        assert_same_values(shared, whitney_values_reference(ext, queries))

    def test_concurrent_queries_match_sequential(self):
        # the plan caches fill lazily; threads racing to build the same plan
        # must store equal plans and return the sequential values
        rng = np.random.default_rng(5)
        locs, vals = whitney_data(rng, 2, "clustered")
        data, box = list(zip(locs, vals)), [[0.0, 1.0], [0.0, 1.0]]
        queries = np.vstack([rng.uniform(0.0, 1.0, (30, 2))] * 3)
        expected = [WhitneyExtension(data, box, 6).evaluate(q).points for q in queries]
        shared = WhitneyExtension(data, box, 6)
        workers = min(16, (os.cpu_count() or 1) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(shared.evaluate, q) for q in queries]
                got = [f.result(timeout=120).points for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert_same_values(got, expected)

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


class TestEvaluateMany:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["clustered", "random"])
    def test_matches_reference_and_single_queries(self, monkeypatch, m, kind):
        rng = np.random.default_rng(13 * m + len(kind))
        locs, vals = whitney_data(rng, m, kind)
        data, box = list(zip(locs, vals)), [[0.0, 1.0]] * m
        ext = WhitneyExtension(data, box, 6)
        queries = np.vstack([rng.uniform(0.0, 1.0, (40, m)), locs[:3], np.full((1, m), 0.25),
                             skeleton_queries(ext, rng, leaves=6)])
        queries = np.vstack([queries, queries[::7]])
        splits = count_splits(monkeypatch)
        stacks = []
        plan_rows = extend._plan_rows
        monkeypatch.setattr(extend, "_plan_rows",
                            lambda stack: stacks.append(stack) or plan_rows(stack))
        stations = record_face_stations(monkeypatch, ext)
        got = ext.evaluate_many(queries)
        if kind == "clustered":
            assert splits, "the clustered data should take the split branch"
        monkeypatch.undo()
        assert got.shape == (len(queries), 3, 2)
        assert_same_values(got, whitney_values_reference(ext, queries))
        one = WhitneyExtension(data, box, 6)
        assert_same_values(got, [one.evaluate(q).points for q in queries])
        # a second batch on the same instance reuses the cached plans
        again = ext.evaluate_many(queries[::-1])
        assert_same_values(again[::-1], got)
        # a face's samples are one corner and one midpoint per minimal edge
        structure = whitney_structure_reference(ext)
        expected = {}
        for leaf in np.flatnonzero(ext._face_planned):
            base, side = leaf_face(ext, leaf)
            edges = sum(whitney_breaks_reference(structure, axis, base[axis] + end,
                                                 base[1 - axis], base[1 - axis] + side).size - 1
                        for axis in (0, 1) for end in (0, side))
            expected[tuple(base.tolist()), side] = 2 * edges
        assert {face: len(rows) for face, rows in stations.items()} == expected
        assert (m == 1) == (not expected)
        # the stacks of full Q are the batch's own, not a split's clusters:
        # each plans distinct rows
        for stack in stacks:
            if stack.shape[2] == 3:
                assert len({row.tobytes() for row in stack}) == len(stack)
        assert_each_problem_planned_once(ext, stacks, stations)

    @pytest.mark.parametrize("m", [1, 2])
    def test_redundant_data_plans_each_problem_once(self, monkeypatch, m):
        # three tight samples at depth 8: most edges join two corners with
        # one nearest sample, and most faces see the same stations
        rng = np.random.default_rng(40 + m)
        locs = 0.6 + 0.02 * rng.uniform(0.0, 1.0, (3, m))
        vals = clustered_values(rng, 3, 3, 2, CENTERS)
        ext = WhitneyExtension(list(zip(locs, vals)), [[0.0, 1.0]] * m, 8)
        queries = np.vstack([rng.uniform(0.0, 1.0, (30, m)), locs[:1]])
        stacks = []
        plan_rows = extend._plan_rows
        monkeypatch.setattr(extend, "_plan_rows",
                            lambda stack: stacks.append(stack) or plan_rows(stack))
        stations = record_face_stations(monkeypatch, ext)
        got = ext.evaluate_many(queries)
        monkeypatch.undo()
        assert_same_values(got, whitney_values_reference(ext, queries))
        edges, pairs, faces, stacks_planned = assert_each_problem_planned_once(
            ext, stacks, stations)
        assert edges > 2 * pairs
        assert faces > stacks_planned if m == 2 else not faces
        # the corners whose samples were looked up are the planned edges' ends
        planned = np.flatnonzero(ext._edge_planned)
        ends = np.union1d(ext._line_corner[planned], ext._line_corner[planned + 1])
        assert np.array_equal(np.flatnonzero(ext._corner_nearest >= 0), ends)

    def test_batches_of_any_split_agree(self):
        rng = np.random.default_rng(8)
        locs, vals = whitney_data(rng, 2, "clustered")
        data, box = list(zip(locs, vals)), [[0.0, 1.0], [0.0, 1.0]]
        queries = rng.uniform(0.0, 1.0, (60, 2))
        whole = WhitneyExtension(data, box, 6).evaluate_many(queries)
        ext = WhitneyExtension(data, box, 6)
        parts = [ext.evaluate_many(queries[lo:lo + 7]) for lo in range(0, 60, 7)]
        assert np.array_equal(np.concatenate(parts), whole)
        assert WhitneyExtension(data, box, 6).evaluate_many(np.zeros((0, 2))).shape == (0, 3, 2)

    @pytest.mark.parametrize("bad,problem", [([0.5, np.nan], "is not finite"),
                                             ([1.5, 0.5], "outside the domain box"),
                                             ([np.inf, 9.0], "is not finite")])
    def test_bad_query_named_by_index_before_any_planning(self, monkeypatch, bad, problem):
        rng = np.random.default_rng(9)
        locs, vals = whitney_data(rng, 2, "random")
        ext = WhitneyExtension(list(zip(locs, vals)), [[0.0, 1.0], [0.0, 1.0]], 6)
        queries = rng.uniform(0.0, 1.0, (6, 2))
        queries[2] = bad
        queries[4] = [2.0, np.nan]
        plans = []
        real = extend._plan_rows
        monkeypatch.setattr(extend, "_plan_rows", lambda stack: plans.append(1) or real(stack))
        with pytest.raises(extend.QueryError, match=problem) as info:
            ext.evaluate_many(queries)
        assert info.value.index == 2 and str(info.value).startswith("query 2: ")
        assert plans == [] and not ext._edge_planned.any() and not ext._face_planned.any()
        with pytest.raises(ValueError, match="dimension 3"):
            ext.evaluate_many(np.zeros((2, 3)))


def nested_values(rng, L, Q, n):
    """L >= 2 witnessed tuples whose plan splits three times at Q >= 4.

    Three near points a, b, c sit at 0, 0.1 and 2 on the first axis and the
    other Q - 3 points 2 apart from 100 on.  Between tuples the far points
    move by 1, c by 0.05 and a and b by less than 0.001, so the first split
    keeps a, b and c together, the second splits off c and the third splits
    a from b.  The first tuple, whose point order numbers the clusters, is
    listed in that order.
    """
    centers = np.zeros((Q, n))
    far = max(Q - 3, 0)
    centers[:, 0] = np.concatenate([[0.0, 0.1, 2.0], 100.0 + 2.0 * np.arange(far)])[:Q]
    move = np.concatenate([[0.0, 0.0, 0.025], np.full(far, 0.5)])[:Q]
    shift = move[None, :] * (-1.0) ** np.arange(L)[:, None]
    vals = centers[None] + shift[:, :, None] + 0.0004 * rng.uniform(-1.0, 1.0, (L, Q, n))
    order = rng.random((L, Q)).argsort(axis=1)
    order[0] = np.arange(Q)
    return vals[np.arange(L)[:, None], order]


def split_nodes(sorter, level=0):
    """The (level, width) of each split node of a sorter tree, one entry per node."""
    if sorter is None:
        return []
    _, cluster_of, _, children = sorter
    return [(level, cluster_of.size)] + [node for child in children
                                         for node in split_nodes(child, level + 1)]


def depth(sorter):
    return 0 if sorter is None else 1 + max(depth(child) for child in sorter[3])


class TestSortedMany:
    @pytest.mark.parametrize("Q", [2, 3, 4, 5, 6])
    def test_matches_the_per_query_sorter(self, monkeypatch, Q):
        rng = np.random.default_rng(30 + Q)
        n, L = 1 + Q % 2, 6
        nested = nested_values(rng, L, Q, n)
        # the deeper splits in the first cluster, and with the order of every
        # tuple reversed, in the last, away from the start of the tuple
        stack = np.concatenate([nested[None], nested[None, :, ::-1],
                                plan_stack(rng, 3 if Q == 6 else 6, L, Q, n)])
        plans = cone_plans(stack)
        assert {depth(plan[1]) for plan in plans[2:]} >= {0, 1}
        assert depth(plans[0][1]) == depth(plans[1][1]) == min(Q - 1, 3)
        # per plan: its witnessed tuples reordered and moved a little, a
        # random tuple and tuples with a repeated point (ties in the match)
        sorters, values = [], []
        for plan, row in zip(plans, stack):
            moved = row + rng.uniform(-0.01, 0.01, row.shape)
            moved = moved[np.arange(L)[:, None], rng.random((L, Q)).argsort(axis=1)]
            tied = moved[:2].copy()
            tied[:, 0] = tied[:, -1]
            batch = np.concatenate([moved, tied, rng.uniform(-3.0, 3.0, (1, Q, n))])
            sorters += [plan[1]] * len(batch)
            values.append(batch)
        values = np.concatenate(values)
        calls = []
        real = extend.match_many
        monkeypatch.setattr(extend, "match_many",
                            lambda A, B, kind: calls.append(len(A)) or real(A, B, kind))
        got = extend._sorted_many(sorters, values)
        monkeypatch.undo()
        assert got.shape == values.shape
        for sorter, value, row in zip(sorters, values, got):
            assert np.array_equal(row, _sorted(sorter, value))
        # one kernel call per (level, width), scoring each split node once
        nodes = [node for sorter in sorters for node in split_nodes(sorter)]
        assert len(calls) <= len(set(nodes)) and sum(calls) == len(nodes)

    def test_leaves_and_empty_batches(self):
        rng = np.random.default_rng(40)
        values = rng.uniform(-1.0, 1.0, (4, 3, 2))
        got = extend._sorted_many([None] * 4, values)
        assert np.array_equal(got, values) and got is not values
        assert extend._sorted_many([], np.zeros((0, 3, 2))).shape == (0, 3, 2)

    def test_a_far_batch_makes_one_kernel_call_per_level_and_width(self, monkeypatch):
        rng = np.random.default_rng(41)
        locs, vals = whitney_data(rng, 2, "clustered")
        ext = WhitneyExtension(list(zip(locs, vals)), [[0.0, 1.0], [0.0, 1.0]], 6)
        queries = rng.uniform(0.0, 1.0, (80, 2))
        first = ext.evaluate_many(queries)
        # the plans are cached now, so the sorters make every kernel call
        calls, batches = [], []
        match, sorted_many = extend.match_many, extend._sorted_many

        def recorded(sorters, values):
            batches.append(sorters)
            return sorted_many(sorters, values)

        monkeypatch.setattr(extend, "match_many",
                            lambda A, B, kind: calls.append(1) or match(A, B, kind))
        monkeypatch.setattr(extend, "_sorted_many", recorded)
        assert np.array_equal(ext.evaluate_many(queries), first)
        [sorters] = batches
        nodes = {node for sorter in sorters for node in split_nodes(sorter)}
        assert 0 < len(calls) <= len(nodes) < sum(s is not None for s in sorters)
