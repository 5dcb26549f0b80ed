"""Differential tests: the array paths against the per-edge references."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued.energy import (
    _nearest,
    discrete_energy,
    dp_distance,
    max_difference_quotient,
    solve_dirichlet,
)
from qvalued.grids import (
    BOUNDARY,
    GridFunction,
    INTERIOR,
    OUTSIDE,
    disk_mask,
    empty_grid,
    square_mask,
)
from qvalued.qspace import MetricKind, match_many

from oracles import (
    _branch_step_gradient,
    _branch_step_linear,
    _g2_match,
    _g2_value,
    brute_force_dist,
    edges_reference,
    nearest_boundary_init,
    per_edge_reference,
    unknown_index,
)


def random_grid(rng, m, shape, Q=1, n=1):
    mask = rng.choice([INTERIOR, BOUNDARY, OUTSIDE], size=shape).astype(np.int8)
    values = rng.uniform(-1, 1, shape + (Q, n))
    values[mask == OUTSIDE] = np.nan
    return GridFunction(m, n, Q, shape, 0.5, mask, values)


def fill_random(grid, rng):
    inside = grid.mask != OUTSIDE
    grid.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), grid.Q, grid.n))
    return grid


class TestEdgeIndex:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_node_walk_with_holes(self, m):
        rng = np.random.default_rng(m)
        for _ in range(25):
            shape = tuple(int(s) for s in rng.integers(1, 6, size=m))
            g = random_grid(rng, m, shape)
            assert list(g.edges()) == list(edges_reference(g))
            u, v = g.edge_index()
            pairs = [(np.unravel_index(a, shape), np.unravel_index(b, shape))
                     for a, b in zip(u, v)]
            assert pairs == list(edges_reference(g))
            assert list(g.nodes()) == [
                idx for idx in np.ndindex(*shape) if g.mask[idx] != OUTSIDE
            ]
            assert list(g.nodes(kinds=(BOUNDARY,))) == [
                idx for idx in np.ndindex(*shape) if g.mask[idx] == BOUNDARY
            ]

    def test_no_edges(self):
        # a checkerboard of outside nodes leaves no two inside nodes adjacent
        mask = np.where(np.indices((4, 5)).sum(axis=0) % 2 == 0, INTERIOR, OUTSIDE)
        g = GridFunction(2, 1, 1, (4, 5), 1.0, mask, np.zeros((4, 5, 1, 1)))
        u, v = g.edge_index()
        assert u.size == v.size == 0
        assert list(g.edges()) == list(edges_reference(g)) == []
        assert discrete_energy(g, 2.0).total == 0.0
        assert max_difference_quotient(g) == 0.0

    def test_mask_change_is_seen(self):
        g = empty_grid(2, 1, 1, 4)
        before = g.edge_index()[0].size
        g.mask[1, 1] = OUTSIDE
        assert g.edge_index()[0].size == before - 4


def int_tuples(Q, n):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=Q, max_size=Q
    )


@st.composite
def tuple_stacks(draw):
    Q = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    E = draw(st.integers(1, 4))
    A = [draw(int_tuples(Q, n)) for _ in range(E)]
    B = [draw(int_tuples(Q, n)) for _ in range(E)]
    return np.array(A, dtype=float), np.array(B, dtype=float)


def exact_cost(a, b, perm):
    return int(sum(((a[i] - b[perm[i]]) ** 2).sum() for i in range(len(a))))


class TestG2MatchMany:
    @settings(max_examples=300, deadline=None)
    @given(tuple_stacks())
    def test_against_brute_force_with_ties(self, stacks):
        A, B = stacks
        E, Q, _ = A.shape
        sq, perm = match_many(A, B, MetricKind.G2)
        assert sq.shape == (E,) and perm.shape == (E, Q)
        for e in range(E):
            best, _ = brute_force_dist(A[e], B[e], "g2")
            assert np.sqrt(sq[e]) == pytest.approx(best, abs=1e-12)
            assert sorted(perm[e]) == list(range(Q))
            costs = {p: exact_cost(A[e], B[e], p)
                     for p in itertools.permutations(range(Q))}
            assert exact_cost(A[e], B[e], perm[e]) == min(costs.values())
            if Q == 2 and costs[(0, 1)] == costs[(1, 0)]:
                assert tuple(perm[e]) == (0, 1)

    def test_q2_tie_keeps_identity(self):
        A = np.array([[[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
        B = np.array([[[0.0, -1.0], [0.0, 1.0]], [[3.0, 1.0], [-2.0, 0.5]]])
        _, perm = match_many(A, B, MetricKind.G2)
        assert perm.tolist() == [[0, 1], [0, 1]]

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 6])
    def test_against_per_edge_reference(self, Q):
        rng = np.random.default_rng(Q)
        A = rng.normal(size=(40, Q, 3))
        B = rng.normal(size=(40, Q, 3))
        sq, perm = match_many(A, B, MetricKind.G2)
        for e in range(40):
            assert np.sqrt(sq[e]) == pytest.approx(_g2_value(A[e], B[e]), rel=1e-12)
            assert perm[e].tolist() == _g2_match(A[e], B[e]).tolist()

    def test_empty_stack(self):
        for Q in (1, 2, 3):
            sq, perm = match_many(np.zeros((0, Q, 2)), np.zeros((0, Q, 2)), MetricKind.G2)
            assert sq.shape == (0,) and perm.shape == (0, Q)


def disk_problem(Q, n, N, seed):
    grid = empty_grid(2, n, Q, N, disk_mask(N))
    rng = np.random.default_rng(seed)
    boundary = {idx: rng.uniform(-1, 1, (Q, n)) for idx in grid.nodes(kinds=(BOUNDARY,))}
    return grid, boundary


def square_problem(Q, n, N, seed):
    grid = empty_grid(2, n, Q, N)
    rng = np.random.default_rng(seed)
    boundary = {idx: rng.uniform(-1, 1, (Q, n)) for idx in grid.nodes(kinds=(BOUNDARY,))}
    return grid, boundary


PROBLEMS = [("disk_q2", disk_problem(2, 2, 11, 0)), ("square_q3", square_problem(3, 2, 7, 1))]


class TestFrozenSteps:
    """One outer iteration of the solver against one reference step."""

    def reference(self, grid, boundary, step, *args):
        values = nearest_boundary_init(grid, boundary)
        edges = list(edges_reference(grid))
        matchings = [_g2_match(values[u], values[v]) for u, v in edges]
        step(values, grid, edges, matchings, unknown_index(grid), *args)
        return values

    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_linear_step(self, name, problem):
        grid, boundary = problem
        sol, _, history = solve_dirichlet(boundary, grid, 2.0, restarts=1, max_outer=1)
        assert len(history) == 2
        expect = self.reference(grid, boundary, _branch_step_linear)
        inside = grid.mask != OUTSIDE
        assert np.allclose(sol.values[inside], expect[inside], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_gradient_step(self, name, problem):
        grid, boundary = problem
        p, tol, max_inner = 3.0, 1e-8, 25
        sol, _, _ = solve_dirichlet(boundary, grid, p, restarts=1, max_outer=1,
                                    tol=tol, max_inner=max_inner)
        w = grid.h ** (grid.m - p)
        expect = self.reference(grid, boundary, _branch_step_gradient, w, p, tol, max_inner)
        inside = grid.mask != OUTSIDE
        assert np.allclose(sol.values[inside], expect[inside], rtol=0, atol=1e-12)

    def test_nearest_in_small_chunks(self):
        grid = empty_grid(2, 1, 1, 15, disk_mask(15))
        coords = grid.all_coords().reshape(-1, 2)
        interior = grid.node_index((INTERIOR,))
        bnodes = grid.node_index((BOUNDARY,))
        picks = _nearest(coords[interior], coords[bnodes], budget=7)
        assert np.array_equal(picks, _nearest(coords[interior], coords[bnodes]))
        boundary = {idx: [[float(j)]] for j, idx in enumerate(grid.nodes(kinds=(BOUNDARY,)))}
        expect = nearest_boundary_init(grid, boundary)
        assert np.array_equal(expect.reshape(-1)[interior], picks.astype(float))


class TestEnergyArrays:
    @pytest.mark.parametrize("Q,mask", [(1, disk_mask(9)), (2, disk_mask(9)),
                                        (2, square_mask(6, 2))])
    def test_per_edge_matches_reference(self, Q, mask):
        rng = np.random.default_rng(Q)
        g = fill_random(empty_grid(2, 2, Q, mask.shape[0], mask), rng)
        # a constant patch gives exact ties between keeping and swapping
        g.values[1:3, 1:3] = np.where(mask[1:3, 1:3, None, None] != OUTSIDE, 0.25, np.nan)
        for p in (2.0, 3.0):
            report = discrete_energy(g, p)
            expect = per_edge_reference(g, p)
            assert len(report.per_edge) == len(expect) == report.edge_u.size
            for (edge, c, match), (edge_ref, c_ref, match_ref) in zip(report.per_edge, expect):
                assert edge == edge_ref
                assert match == match_ref
                assert c == pytest.approx(c_ref, rel=1e-12, abs=1e-300)
            assert report.total == pytest.approx(sum(c for _, c, _ in expect), rel=1e-12)

    def test_distance_and_quotient_match_reference(self):
        rng = np.random.default_rng(9)
        f = fill_random(empty_grid(2, 2, 3, 9, disk_mask(9)), rng)
        g = fill_random(f.copy(), rng)
        nodes = list(f.nodes())
        for p in (1.0, 2.0, 3.5):
            expect = sum(_g2_value(f.values[i], g.values[i]) ** p * f.h**2
                         for i in nodes) ** (1 / p)
            assert dp_distance(f, g, p) == pytest.approx(expect, rel=1e-12)
        expect = max(_g2_value(f.values[u], f.values[v]) / f.h
                     for u, v in edges_reference(f))
        assert max_difference_quotient(f) == pytest.approx(expect, rel=1e-12)
