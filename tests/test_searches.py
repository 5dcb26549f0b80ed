"""Differential tests for the coordinate-major distance searches: the Whitney
tree build's sup-norm cell gaps and nearest samples, and the Euclidean
nearest-site search of the solver's start and ``extend_to_plane``, against
the trailing-axis reductions they replaced and against brute force."""

import numpy as np
import pytest

from qvalued.extend import WhitneyExtension
from qvalued.grids import _nearest

from oracles import (
    dist_inf_to_cells_reference,
    nearest_reference,
    nearest_samples_reference,
    whitney_structure_reference,
    whitney_tree_as_dicts,
)


def build(locs, box, depth, Q=2):
    vals = np.arange(len(locs) * Q, dtype=float).reshape(len(locs), Q, 1)
    return WhitneyExtension(list(zip(locs, vals)), box, depth)


def assert_structure_matches_reference(ext):
    leaves, corner_values, columns, rows = whitney_structure_reference(ext)
    # the conversion checks that the corners keep lexicographic order
    mine = whitney_tree_as_dicts(ext)
    assert mine[0] == leaves
    assert mine[1].keys() == corner_values.keys()
    for key, val in corner_values.items():
        assert np.array_equal(mine[1][key], val)
    for got, theirs in zip(mine[2:], (columns, rows)):
        assert got.keys() == theirs.keys()
        assert all(np.array_equal(got[key], theirs[key]) for key in theirs)


def cells_at(ext, d):
    """The lower corners of every cell of level ``d``."""
    size = ext.S / (1 << d)
    k = np.array(list(np.ndindex(*(1 << d,) * ext.m)), dtype=np.int64)
    return ext.root_lo + k * size, size


def dyadic_locs(m, L, scale, rng):
    """Distinct sample locations on the lines of the grid of step ``1 / scale``."""
    locs = rng.integers(0, scale + 1, (4 * L, m)) / scale
    return np.unique(locs, axis=0)[:L]


class TestSupNormSearches:
    @pytest.mark.parametrize("m", [1, 2])
    def test_samples_on_dyadic_lines_and_corners(self, m):
        rng = np.random.default_rng(20 + m)
        locs = dyadic_locs(m, 10, 8, rng)
        ext = build(locs, [[0.0, 1.0]] * m, 6)
        assert_structure_matches_reference(ext)
        ties = 0
        for d in range(ext.depth + 1):
            lo, size = cells_at(ext, d)
            gap = ext._nearest_samples(lo, size)[1]
            assert np.array_equal(gap, dist_inf_to_cells_reference(ext.locs, lo, size))
            ties += int((gap == size).sum())
        # cells exactly one side away from a sample: size < gap is false there
        assert ties > 0

    @pytest.mark.parametrize("m", [1, 2])
    def test_nearest_samples_match_reference(self, m):
        rng = np.random.default_rng(30 + m)
        locs = np.vstack([dyadic_locs(m, 6, 4, rng), rng.uniform(0.0, 1.0, (6, m))])
        ext = build(locs, [[0.0, 1.0]] * m, 5)
        scale = ext.S / (1 << ext.depth)
        x = np.vstack([rng.uniform(0.0, 1.0, (200, m)), locs,
                       ext.root_lo + ext._corners * scale])
        index, gap = ext._nearest_samples(x)
        ref_index, ref_gap = nearest_samples_reference(ext.locs, x)
        assert np.array_equal(index, ref_index) and np.array_equal(gap, ref_gap)

    @pytest.mark.parametrize("m", [1, 2])
    def test_corner_equidistant_from_two_samples_takes_the_first(self, m):
        corner = np.full((1, m), 0.25)
        pair = np.array([np.full(m, 0.125), np.full(m, 0.375)])
        for order in (pair, pair[::-1]):
            ext = build(np.vstack([order, np.full((1, m), 0.9)]), [[0.0, 1.0]] * m, 6)
            index, gap = ext._nearest_samples(corner)
            assert index.tolist() == [0] and gap.tolist() == [0.125]
            assert np.array_equal(whitney_tree_as_dicts(ext)[1][(16,) * m], ext.vals[0])
            assert_structure_matches_reference(ext)

    @pytest.mark.parametrize("depth", [0, 3])
    def test_one_sample_on_a_line(self, depth):
        for x in (0.0, 0.25, 0.3, 1.0):
            ext = build(np.array([[x]]), [[0.0, 1.0]], depth)
            assert_structure_matches_reference(ext)

    def test_depth_zero(self):
        rng = np.random.default_rng(4)
        for m in (1, 2):
            ext = build(rng.uniform(0.0, 1.0, (5, m)), [[0.0, 1.0]] * m, 0)
            assert_structure_matches_reference(ext)

    @pytest.mark.parametrize("budget", [1, 3, 17, 100])
    def test_tiny_budget_splits_the_blocks(self, budget):
        rng = np.random.default_rng(budget)
        m = 2
        locs = np.vstack([dyadic_locs(m, 5, 4, rng), rng.uniform(0.0, 1.0, (7, m))])
        ext = build(locs, [[0.0, 1.0]] * m, 4)
        lo, size = cells_at(ext, 3)
        gap = ext._nearest_samples(lo, size, budget=budget)[1]
        assert np.array_equal(gap, ext._nearest_samples(lo, size)[1])
        assert np.array_equal(gap, dist_inf_to_cells_reference(ext.locs, lo, size))
        x = rng.uniform(0.0, 1.0, (50, m))
        index, near = ext._nearest_samples(x, budget=budget)
        ref_index, ref_near = nearest_samples_reference(ext.locs, x)
        assert np.array_equal(index, ref_index) and np.array_equal(near, ref_near)

    def test_empty_query_rows(self):
        ext = build(np.array([[0.5, 0.5]]), [[0.0, 1.0]] * 2, 2)
        index, gap = ext._nearest_samples(np.zeros((0, 2)))
        assert index.shape == gap.shape == (0,)
        assert ext._nearest_samples(np.zeros((0, 2)), 0.5)[1].shape == (0,)


class TestNearest:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_ties_take_the_first_site(self, m):
        rng = np.random.default_rng(m)
        # integer lattices: many points are equally far from several sites
        sites = rng.integers(-3, 4, (25, m)).astype(float)
        points = rng.integers(-4, 5, (300, m)).astype(float) / 2.0
        picks = _nearest(points, sites)
        assert np.array_equal(picks, nearest_reference(points, sites))
        d = ((sites[None] - points[:, None]) ** 2).sum(axis=2)
        tied = (d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.any()
        assert np.array_equal(picks[tied], np.argmax(d[tied] == d[tied].min(axis=1)[:, None],
                                                     axis=1))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, 7, 1 << 16])
    def test_random_points_any_budget(self, m, budget):
        rng = np.random.default_rng(10 * m + budget % 97)
        # mixed magnitudes, so the order of the sum of squares matters
        sites = rng.uniform(-1.0, 1.0, (40, m)) * rng.choice([1e-8, 1.0, 1e8], (40, m))
        points = rng.uniform(-1.0, 1.0, (90, m)) * rng.choice([1e-8, 1.0, 1e8], (90, m))
        assert np.array_equal(_nearest(points, sites, budget=budget),
                              nearest_reference(points, sites))

    def test_squares_sum_in_coordinate_order(self):
        # |A|^2 rounds to 1 + 2**-52 summed left to right and to 1 right to
        # left; |B| is 1 either way, so the order decides which site is nearer
        a = 3.0 * 2.0 ** -28
        sites = np.array([[1.0, a, a], [1.0, 0.0, 0.0]])
        origin = np.zeros((1, 3))
        assert nearest_reference(origin, sites).tolist() == [1]
        assert _nearest(origin, sites).tolist() == [1]
        assert _nearest(origin, sites[:, ::-1]).tolist() == [0]

    def test_one_site_and_no_points(self):
        sites = np.array([[0.5, -1.0]])
        assert _nearest(np.zeros((4, 2)), sites).tolist() == [0, 0, 0, 0]
        assert _nearest(np.zeros((0, 2)), sites).shape == (0,)
