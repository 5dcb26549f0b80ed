"""Differential tests: the array paths against the per-edge references."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued import energy
from qvalued.energy import (
    _minimize_frozen as minimize_frozen,
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
    frozen_solve_reference,
    nearest_boundary_init,
    per_edge_reference,
    unknown_index,
    weighted_laplacian_reference,
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

    def test_node_index_every_kind_subset(self):
        g = random_grid(np.random.default_rng(4), 2, (6, 7))
        kinds = (INTERIOR, BOUNDARY, OUTSIDE)
        for r in range(4):
            for subset in itertools.combinations(kinds, r):
                expect = [i for i, k in enumerate(g.mask.ravel().tolist()) if k in subset]
                assert g.node_index(subset).tolist() == expect
                assert g.node_index(iter(subset)).tolist() == expect

    @pytest.mark.parametrize("bad", [-1, 3, 127, -128])
    def test_mask_outside_the_three_kinds_rejected(self, bad):
        mask = square_mask(4)
        mask[1, 2] = bad
        with pytest.raises(ValueError, match="mask entries must be INTERIOR, BOUNDARY or OUTSIDE"):
            GridFunction(2, 1, 1, (4, 4), 1.0, mask, np.zeros((4, 4, 1, 1)))


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
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        grid.values[idx] = rng.uniform(-1, 1, (Q, n))
    return grid


def square_problem(Q, n, N, seed):
    grid = empty_grid(2, n, Q, N)
    rng = np.random.default_rng(seed)
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        grid.values[idx] = rng.uniform(-1, 1, (Q, n))
    return grid


def sqrt_pair(x, on_circle):
    """The two branches of the complex square root at x, or at x / |x| on the circle."""
    r, t = math.hypot(*x), math.atan2(x[1], x[0]) / 2.0
    s = 1.0 if on_circle else math.sqrt(r)
    return [[s * math.cos(t), s * math.sin(t)], [-s * math.cos(t), -s * math.sin(t)]]


def sqrt_disk_problem(N):
    """Square-root boundary data on the disk, and the sampled square-root pair."""
    grid = empty_grid(2, 2, 2, N, disk_mask(N))
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        grid.values[idx] = sqrt_pair(grid.node_coords(idx), True)
    sampled = grid.copy()
    for idx in grid.nodes(kinds=(INTERIOR,)):
        sampled.values[idx] = sqrt_pair(grid.node_coords(idx), False)
    return grid, sampled


PROBLEMS = [("disk_q2", disk_problem(2, 2, 11, 0)), ("square_q3", square_problem(3, 2, 7, 1))]


class TestFrozenSteps:
    """One outer iteration of the solver against one reference step."""

    def reference(self, grid, step, *args):
        values = nearest_boundary_init(grid)
        edges = list(edges_reference(grid))
        matchings = [_g2_match(values[u], values[v]) for u, v in edges]
        step(values, grid, edges, matchings, unknown_index(grid), *args)
        return values

    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_linear_step(self, name, problem):
        grid = problem
        sol, _, history = solve_dirichlet(grid, grid, 2.0, restarts=1, max_outer=1)
        assert len(history) == 2
        expect = self.reference(grid, _branch_step_linear)
        inside = grid.mask != OUTSIDE
        assert np.allclose(sol.values[inside], expect[inside], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_p2_one_solve_per_matching(self, name, problem, monkeypatch):
        grid = problem
        calls = []

        class Recording(energy._FrozenLaplacian):
            def __init__(self, Y, ga, gb, slot, free):
                super().__init__(Y, ga, gb, slot, free)
                self.gb = gb.copy()

            def solve(self, weight):
                calls.append((self.gb, weight))
                return super().solve(weight)

        monkeypatch.setattr(energy, "_FrozenLaplacian", Recording)
        sol, report, history = solve_dirichlet(grid, grid, 2.0, restarts=1)
        # one solve per distinct matching: the pass that meets the last
        # solved matching again ends the run without a solve
        matchings = {gb.tobytes() for gb, _ in calls}
        assert len(matchings) == len(calls) == report.iterations - 1
        assert all(np.array_equal(w, np.ones(len(w))) for _, w in calls)
        assert history[-1] == history[-2]
        again, _, _ = solve_dirichlet(grid, grid, 2.0, restarts=1,
                                      max_outer=report.iterations - 1)
        assert np.array_equal(sol.values, again.values, equal_nan=True)

    def test_repeated_matching_keeps_its_system(self, monkeypatch):
        # the solve_p3 benchmark problem of seed 3301, op 0: the second outer
        # iteration meets the first one's matching again and solves on its
        # system, in the column order it found, with no second COLAMD ordering
        import scipy.sparse.linalg

        theta = float(np.random.default_rng([3301, 0]).uniform(0.0, 2.0 * math.pi))
        grid = empty_grid(2, 2, 2, 16, disk_mask(16))
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            t = (math.atan2(x[1], x[0]) + theta) / 2.0
            grid.values[idx] = [[math.cos(t), math.sin(t)], [-math.cos(t), -math.sin(t)]]
        specs, systems = [], []
        splu = scipy.sparse.linalg.splu

        class Counted(energy._FrozenLaplacian):
            def __init__(self, *args):
                systems.append(1)
                super().__init__(*args)

        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda A, permc_spec=None: specs.append(permc_spec) or splu(
                                A, permc_spec=permc_spec))
        monkeypatch.setattr(energy, "_FrozenLaplacian", Counted)
        _, report, _ = solve_dirichlet(grid, grid, 3.0, restarts=1)
        assert report.iterations == 2
        assert (len(specs), specs.count(None), len(systems)) == (11, 1, 1)

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 8.0])
    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_each_system_matches_fresh_assembly(self, name, problem, p, monkeypatch):
        # every IRLS iteration's matrix and right-hand side, bit for bit
        grid = problem
        systems = []

        class Recording(energy._FrozenLaplacian):
            def __init__(self, Y, ga, gb, slot, free):
                super().__init__(Y, ga, gb, slot, free)
                self.args = (Y.copy(), ga, gb.copy(), slot, free)

            def system(self, weight):
                L, rhs = super().system(weight)
                order = None if self.perm_c is None else np.argsort(self.perm_c)
                systems.append((self.args, weight.copy(), L.copy(), rhs, order))
                return L, rhs

        monkeypatch.setattr(energy, "_FrozenLaplacian", Recording)
        solve_dirichlet(grid, grid, p, restarts=2)
        assert len(systems) > (1 if p == 2.0 else 4)
        for args, weight, L, rhs, order in systems:
            expect, expect_rhs = weighted_laplacian_reference(*args, weight)
            if order is not None:
                # after a matching's first solve its columns are stored in SuperLU's order
                expect = expect[:, order]
            assert L.format == "csc" and L.shape == expect.shape
            assert L.data.tobytes() == expect.data.tobytes()
            assert np.array_equal(L.indices, expect.indices)
            assert np.array_equal(L.indptr, expect.indptr)
            assert rhs.tobytes() == expect_rhs.tobytes()

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_other_p_minimizes_again_on_a_repeated_matching(self, name, problem, p,
                                                             monkeypatch):
        # away from p = 2 the frozen minimum is reached iteratively, so a
        # pass that meets its last matching again can still lower the energy
        grid = problem
        matchings = []
        step = energy._minimize_frozen
        monkeypatch.setattr(energy, "_minimize_frozen",
                            lambda *a: matchings.append(a[3].tobytes()) or step(*a))
        _, report, _ = solve_dirichlet(grid, grid, p, restarts=1)
        assert len(matchings) == report.iterations
        assert len(set(matchings)) < len(matchings)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_frozen_step_no_worse_than_gradient_step(self, name, problem, p, monkeypatch):
        grid = problem
        tol = 1e-8
        args = []
        monkeypatch.setattr(energy, "_minimize_frozen", lambda *a: args.append(a))
        solve_dirichlet(grid, grid, p, restarts=1, max_outer=1)
        Y, laplacian, ga, gb, free, w = args[0][:6]
        totals = []
        for step in (minimize_frozen, _branch_step_gradient):
            Y_step = Y.copy()
            step(Y_step, laplacian, ga, gb, free, w, p, tol, 200)
            delta = Y_step[ga] - Y_step[gb]
            totals.append(w * float((np.einsum("eqn,eqn->e", delta, delta) ** (p / 2)).sum()))
        irls, gradient = totals
        assert irls <= gradient + tol * (1.0 + gradient)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("name,problem", PROBLEMS)
    def test_history_nonincreasing(self, name, problem, p):
        grid = problem
        _, report, history = solve_dirichlet(grid, grid, p, restarts=1)
        assert report.converged
        assert all(e1 <= e0 for e0, e1 in zip(history, history[1:])), history

    @pytest.mark.parametrize("N", [16, 24])
    def test_p8_sqrt_disk(self, N):
        # with a floor on the squared edge lengths alone the weights span ~1e-36
        # and the solver stopped at its starting energy, ~1e5 times too high
        grid, sampled = sqrt_disk_problem(N)
        _, report, history = solve_dirichlet(grid, grid, 8.0, restarts=1)
        assert all(e1 <= e0 for e0, e1 in zip(history, history[1:])), history
        assert report.total <= discrete_energy(sampled, 8.0).total

    def test_p8_sqrt_disk_no_worse_than_gradient_step(self, monkeypatch):
        grid, _ = sqrt_disk_problem(16)
        tol = 1e-8
        _, report, _ = solve_dirichlet(grid, grid, 8.0, restarts=1, tol=tol)
        monkeypatch.setattr(energy, "_minimize_frozen", _branch_step_gradient)
        _, expect, _ = solve_dirichlet(grid, grid, 8.0, restarts=1, tol=tol)
        assert report.total <= expect.total + tol * (1.0 + expect.total)

    def test_nearest_in_small_chunks(self):
        grid = empty_grid(2, 1, 1, 15, disk_mask(15))
        coords = grid.all_coords().reshape(-1, 2)
        interior = grid.node_index((INTERIOR,))
        bnodes = grid.node_index((BOUNDARY,))
        picks, gap = _nearest(coords[interior], coords[bnodes], budget=7)
        whole, whole_gap = _nearest(coords[interior], coords[bnodes])
        assert np.array_equal(picks, whole) and np.array_equal(gap, whole_gap)
        grid.values.reshape(-1)[bnodes] = np.arange(bnodes.size)
        expect = nearest_boundary_init(grid)
        assert np.array_equal(expect.reshape(-1)[interior], picks.astype(float))


def frozen_system(grid, rng):
    """The arguments of ``energy._FrozenLaplacian`` for ``grid``, its inside
    values filled at random, under random matchings, built as ``_alternate``
    builds them."""
    fill_random(grid, rng)
    Q = grid.Q
    Y = grid.values.reshape(-1, grid.n)
    u, v = grid.edge_index()
    free = (grid.node_index((INTERIOR,))[:, None] * Q + np.arange(Q)).ravel()
    slot = np.full(len(Y), -1, dtype=np.intp)
    slot[free] = np.arange(free.size)
    perms = rng.permuted(np.tile(np.arange(Q), (len(u), 1)), axis=1)
    return Y, u[:, None] * Q + np.arange(Q), v[:, None] * Q + perms, slot, free


def spread_weights(rng, E):
    """Edge weights over nine decades, floored at 1e-8 of the largest as the
    solver floors them."""
    weight = 10.0 ** rng.uniform(-9.0, 0.0, E)
    return np.maximum(weight, 1e-8 * weight.max())


class TestStoredColumnOrder:
    """``_FrozenLaplacian.solve``, which keeps a matching's first column order,
    against a fresh ``splu`` of the natural-order matrix, bit for bit."""

    def assert_solves_match(self, args, weights):
        laplacian = energy._FrozenLaplacian(*args)
        for weight in weights:
            got = laplacian.solve(weight)
            assert got.tobytes() == frozen_solve_reference(*args, weight).tobytes()
        assert laplacian.perm_c is not None

    @settings(max_examples=60, deadline=None)
    @given(Q=st.integers(1, 3), n=st.integers(1, 3), N=st.integers(3, 9),
           domain=st.sampled_from(["disk", "square"]), seed=st.integers(0, 2**32 - 1))
    def test_random_masks_and_weights(self, Q, n, N, domain, seed):
        rng = np.random.default_rng(seed)
        mask = disk_mask(N) if domain == "disk" else square_mask(N)
        args = frozen_system(empty_grid(2, n, Q, N, mask), rng)
        E = len(args[1])
        self.assert_solves_match(args, [spread_weights(rng, E) for _ in range(4)])

    def test_single_unknown(self):
        rng = np.random.default_rng(5)
        args = frozen_system(empty_grid(2, 2, 1, 3), rng)
        assert args[4].size == 1
        self.assert_solves_match(args, [spread_weights(rng, len(args[1])) for _ in range(3)])

    def test_dangling_node(self):
        # unknown (0, 1) has one neighbour, also free, so its column's diagonal
        # ties with its off-diagonal: factored in the stored order, SuperLU
        # pivots off the diagonal there, and the solve must notice it
        mask = np.array([[OUTSIDE, INTERIOR, OUTSIDE], [BOUNDARY, INTERIOR, BOUNDARY],
                         [INTERIOR, BOUNDARY, BOUNDARY], [BOUNDARY, BOUNDARY, OUTSIDE]])
        rng = np.random.default_rng(0)
        grid = GridFunction(2, 1, 1, mask.shape, 0.5, mask, np.zeros(mask.shape + (1, 1)))
        args = frozen_system(grid, rng)
        self.assert_solves_match(args, [spread_weights(rng, len(args[1])) for _ in range(3)])

    @pytest.mark.parametrize("spoil", ["perm_c", "perm_r"])
    def test_guard_falls_back_to_the_natural_order(self, spoil, monkeypatch):
        # a stored-order factor whose column order or pivots are not the ones
        # checked for is not used: the natural-order matrix is factored afresh
        import scipy.sparse.linalg

        splu = scipy.sparse.linalg.splu
        calls = []

        class Spoiled:
            def __init__(self, lu):
                self.perm_c, self.perm_r, self.solve = lu.perm_c, lu.perm_r, lu.solve
                setattr(self, spoil, getattr(lu, spoil)[::-1].copy())

        def spy(A, permc_spec=None, **kwargs):
            calls.append((permc_spec, A.copy()))
            lu = splu(A, permc_spec=permc_spec, **kwargs)
            return Spoiled(lu) if permc_spec == "NATURAL" else lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        rng = np.random.default_rng(11)
        args = frozen_system(empty_grid(2, 2, 2, 7, disk_mask(7)), rng)
        weights = [spread_weights(rng, len(args[1])) for _ in range(3)]
        self.assert_solves_match(args, weights)
        assert [spec for spec, _ in calls] == [None, "NATURAL", None, "NATURAL", None]
        for (_, A), weight in zip(calls[2::2], weights[1:]):
            expect, _ = weighted_laplacian_reference(*args, weight)
            assert A.data.tobytes() == expect.data.tobytes()
            assert np.array_equal(A.indices, expect.indices)
            assert np.array_equal(A.indptr, expect.indptr)


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
