"""Differential tests for the array form of the Whitney tree: the batched
leaf location, the side breaks of the leaf faces and the minimal edge of
each perimeter point, against the per-query descents and bisections of the
dict tree in ``oracles``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qvalued.extend import WhitneyExtension

from oracles import (
    whitney_breaks_reference,
    whitney_locate_reference,
    whitney_perimeter_edge_reference,
    whitney_stations_reference,
    whitney_structure_reference,
)


@st.composite
def trees(draw, dims=(1, 2)):
    """A Whitney extension of dimension in ``dims`` on a unit or shifted,
    possibly oblong box, with samples on dyadic lines and off them, and
    queries on dyadic lines and corners, on the samples, at both box corners
    and anywhere in the box."""
    m = draw(st.sampled_from(dims))
    depth = draw(st.integers(0, 10))
    if draw(st.booleans()):
        lo, hi = np.zeros(m), np.ones(m)
    else:
        lo = np.array(draw(st.lists(st.sampled_from([-1.0, -0.3, 0.0, 0.25, 1.7]),
                                    min_size=m, max_size=m)))
        hi = lo + np.array(draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 1.3, 3.0]),
                                         min_size=m, max_size=m)))
    S = float((hi - lo).max())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def dyadic(count):
        level = rng.integers(0, depth + 2, (count, 1))
        at = rng.integers(0, 1 << (depth + 1), (count, m)) % ((1 << level) + 1)
        return np.minimum(lo + at * (S / (1 << level)), hi)

    def anywhere(count):
        return lo + rng.uniform(0.0, 1.0, (count, m)) * (hi - lo)

    L = draw(st.integers(1, 8))
    on_lines = draw(st.integers(0, L))
    locs = np.unique(np.vstack([dyadic(on_lines), anywhere(L - on_lines)]), axis=0)
    vals = rng.integers(-2, 3, (len(locs), 2, 1)).astype(float)
    ext = WhitneyExtension(list(zip(locs, vals)), np.column_stack([lo, hi]), depth)
    queries = np.vstack([dyadic(30), anywhere(10), locs, lo, hi])
    return ext, queries


def edge_corners(ext, ids):
    """The corner keys ``(k0, k1)`` of each minimal edge ``ids[i]``."""
    c0 = ext._corners[ext._line_corner[ids]]
    c1 = ext._corners[ext._line_corner[ids + 1]]
    return [(tuple(a), tuple(b)) for a, b in zip(c0.tolist(), c1.tolist())]


@settings(max_examples=60, deadline=None)
@given(trees())
def test_batched_locate_matches_the_descent_of_each_query(tree):
    ext, queries = tree
    leaves = whitney_structure_reference(ext)[0]
    leaf, k, d = ext._locate(queries)
    for i, x in enumerate(queries):
        ref_k, ref_d, kind = whitney_locate_reference(ext, leaves, x)
        assert (k[i].tolist(), int(d[i])) == (ref_k.tolist(), ref_d)
        assert ext._leaf_whitney[leaf[i]] == (kind == "w")
    # a leaf's index names the leaf
    level_start = np.array(ext._level_start)
    assert np.array_equal(np.searchsorted(level_start, leaf, side="right") - 1, d)
    flat = k[:, 0] if ext.m == 1 else k[:, 0] * np.left_shift(1, d) + k[:, 1]
    assert np.array_equal(ext._leaf_keys[leaf], flat)


@settings(max_examples=40, deadline=None)
@given(trees(dims=(2,)), st.integers(0, 2**32 - 1))
def test_face_breaks_and_perimeter_edges_match_bisection(tree, seed):
    ext, _ = tree
    structure = whitney_structure_reference(ext)
    faces = sorted(key for key, kind in structure[0].items() if kind == "w")
    rng = np.random.default_rng(seed)
    picked = rng.permutation(len(faces))[:25]
    side = np.array([1 << (ext.depth - faces[i][1]) for i in picked], dtype=np.int64)
    base = np.array([faces[i][0] for i in picked], dtype=np.int64).reshape(-1, 2) * side[:, None]
    start, stop = ext._sides(base, side)
    L = (1 << ext.depth) + 1
    scale = ext.S / (1 << ext.depth)
    for f in range(len(picked)):
        for w, (axis, end) in enumerate([(0, 0), (0, side[f]), (1, 0), (1, side[f])]):
            breaks = ext._lines[start[f, w]:stop[f, w]] % L
            ref = whitney_breaks_reference(structure, axis, base[f, axis] + end,
                                           base[f, 1 - axis], base[f, 1 - axis] + side[f])
            assert breaks.tolist() == ref.tolist()
        # every station, and points anywhere on the perimeter
        rel = whitney_stations_reference(ext, structure, base[f], side[f])
        R = side[f] * scale / 2.0
        spread = rng.uniform(-R, R, (20, 2))
        rel = np.vstack([rel, spread * (R / np.abs(spread).max(axis=1))[:, None]])
        center = ext.root_lo + (base[f] + side[f] / 2.0) * scale
        count = len(rel)
        ids = ext._perimeter_edges(np.repeat(base[f:f + 1], count, axis=0),
                                   np.repeat(side[f], count), center + rel, rel)
        assert edge_corners(ext, ids) == [
            whitney_perimeter_edge_reference(ext, structure, base[f], side[f], b) for b in rel]
