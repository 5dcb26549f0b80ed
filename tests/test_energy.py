import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued import ArgumentError, energy
from qvalued.energy import (
    discrete_energy,
    dp_distance,
    lipschitz_truncation,
    max_difference_quotient,
    solve_dirichlet,
    trace,
    truncate_coords,
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
from qvalued.qspace import QTuple, dist

from oracles import grid_to_json_reference, lipschitz_truncation_reference, scalar_laplace_solve

DATA = pathlib.Path(__file__).parent / "data"

# floats whose repr is unusual: a signed zero, the least subnormal, exponent forms and the largest
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-07, 1e16, 1.7976931348623157e308]


def fill(grid, fn):
    for idx in grid.nodes():
        grid.values[idx] = fn(grid.node_coords(idx))
    return grid


class TestGridFunction:
    def test_json_round_trip_exact(self):
        g = empty_grid(2, 2, 2, 5, disk_mask(5))
        rng = np.random.default_rng(0)
        inside = g.mask != OUTSIDE
        g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), 2, 2))
        f = GridFunction.from_json(g.to_json())
        assert f.shape == g.shape
        assert f.h == g.h
        assert np.array_equal(f.mask, g.mask)
        assert np.array_equal(f.values[inside], g.values[inside])

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 3), Q=st.integers(1, 3), n=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_to_json_matches_nested_dump(self, m, Q, n, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in rng.integers(1, 5, size=m))
        mask = rng.choice([INTERIOR, BOUNDARY, OUTSIDE], size=shape).astype(np.int8)
        values = rng.normal(size=shape + (Q, n)) * 10.0 ** rng.integers(-20, 20, size=shape + (Q, n))
        special = rng.random(values.shape) < 0.3
        values[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        values[mask == OUTSIDE] = np.nan
        g = GridFunction(m, n, Q, shape, float(rng.uniform(0.1, 2.0)), mask, values)
        assert g.to_json() == grid_to_json_reference(g)

    @pytest.mark.parametrize("path", sorted(DATA.glob("solve_*.json")), ids=lambda p: p.name)
    def test_to_json_rewrites_the_golden_solutions(self, path):
        text = path.read_text()
        assert GridFunction.from_json(text).to_json() == text

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 1, 1, (3, 3), 0.0, np.zeros((3, 3)), np.zeros((3, 3, 1, 1)))
        bad = np.zeros((3, 3, 1, 1))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            GridFunction(2, 1, 1, (3, 3), 0.5, np.zeros((3, 3)), bad)

    def test_equality_is_identity(self):
        g = empty_grid(2, 1, 2, 5, disk_mask(5))
        assert g == g
        assert (g == g.copy()) is False
        assert len({g, g.copy()}) == 2

    def test_mask_entries_validated(self):
        with pytest.raises(ValueError):
            GridFunction(1, 1, 1, (3,), 1.0, np.array([0, 5, 0]), np.zeros((3, 1, 1)))

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_nonfinite_h_named(self, h):
        with pytest.raises(ArgumentError, match="'h'") as info:
            GridFunction(1, 1, 1, (3,), h, np.zeros(3), np.zeros((3, 1, 1)))
        assert info.value.name == "h"

    def test_from_json_without_h_names_it(self):
        obj = json.loads(empty_grid(2, 1, 1, 4).to_json())
        del obj["h"]
        with pytest.raises(ArgumentError, match="missing field 'h'") as info:
            GridFunction.from_json(json.dumps(obj))
        assert info.value.name == "h"

    def test_coords_centered(self):
        g = empty_grid(2, 1, 1, 5)
        assert np.array_equal(g.node_coords((2, 2)), [0.0, 0.0])
        assert np.array_equal(g.node_coords((0, 0)), [-1.0, -1.0])

    def test_disk_mask_shape(self):
        mask = disk_mask(11)
        assert (mask == INTERIOR).sum() > 0
        assert (mask == BOUNDARY).sum() > 0
        # boundary nodes are outside the circle, adjacent to an interior node
        h = 2.0 / 10
        c = 5.0
        for i in range(11):
            for j in range(11):
                if mask[i, j] == BOUNDARY:
                    assert math.hypot((i - c) * h, (j - c) * h) >= 1.0


class TestDpDistance:
    def test_identical(self):
        g = empty_grid(1, 1, 2, 5)
        assert dp_distance(g, g, 2.0) == 0.0

    def test_single_node(self):
        mask = np.array([INTERIOR], dtype=np.int8)
        f = GridFunction(1, 1, 1, (1,), 1.0, mask, np.array([[[0.0]]]))
        g = GridFunction(1, 1, 1, (1,), 1.0, mask, np.array([[[2.0]]]))
        assert dp_distance(f, g, 2.0) == 2.0

    def test_triangle(self):
        rng = np.random.default_rng(1)
        mask = square_mask(4, 1)
        mk = lambda: GridFunction(1, 2, 2, (4,), 0.5, mask,
                                  rng.uniform(-1, 1, (4, 2, 2)))
        for _ in range(30):
            f, g, h = mk(), mk(), mk()
            for p in (1.0, 2.0, 3.0):
                assert dp_distance(f, h, p) <= (
                    dp_distance(f, g, p) + dp_distance(g, h, p) + 1e-9
                )

    def test_grid_mismatch(self):
        f = empty_grid(1, 1, 1, 4)
        g = empty_grid(1, 1, 1, 5)
        with pytest.raises(ValueError):
            dp_distance(f, g, 2.0)


class TestDiscreteEnergy:
    def test_constant_zero(self):
        g = empty_grid(2, 2, 2, 6)
        g.values[g.mask != OUTSIDE] = [[1.0, 2.0], [0.5, -1.0]]
        report = discrete_energy(g, 2.0)
        assert report.total == 0.0

    def test_identity_1d(self):
        # f(x) = x on [0,1]: Dirichlet energy 1 for any resolution
        N = 11
        g = empty_grid(1, 1, 1, N, extent=1.0)
        fill(g, lambda x: [[x[0]]])
        report = discrete_energy(g, 2.0)
        assert report.total == pytest.approx(1.0, abs=1e-12)
        assert report.total == pytest.approx(
            sum(c for _, c, _ in report.per_edge), abs=1e-9
        )

    def test_symmetric_pair_doubles(self):
        N = 11
        g1 = empty_grid(1, 1, 1, N, extent=1.0)
        fill(g1, lambda x: [[x[0]]])
        g2 = empty_grid(1, 1, 2, N, extent=1.0)
        fill(g2, lambda x: [[x[0]], [-x[0]]])
        e1 = discrete_energy(g1, 2.0).total
        e2 = discrete_energy(g2, 2.0).total
        assert e2 == pytest.approx(2 * e1, abs=1e-12)
        # matchings pair like-signed branches away from zero
        for (u, v), _, match in discrete_energy(g2, 2.0).per_edge:
            a, b = QTuple(g2.values[u]), QTuple(g2.values[v])
            assert dist(a, b)[0] == pytest.approx(
                math.hypot(
                    *(
                        np.linalg.norm(a.points[i] - b.points[match.perm[i]])
                        for i in range(2)
                    )
                ),
                abs=1e-12,
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        g = empty_grid(2, 2, 3, 5)
        inside = g.mask != OUTSIDE
        g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), 3, 2))
        base = discrete_energy(g, 2.0).total
        shuffled = g.copy()
        for idx in g.nodes():
            perm = rng.permutation(3)
            shuffled.values[idx] = g.values[idx][perm]
        assert discrete_energy(shuffled, 2.0).total == pytest.approx(
            base, abs=1e-12, rel=1e-12
        )

    def test_p_validation(self):
        g = empty_grid(1, 1, 1, 4)
        with pytest.raises(ValueError):
            discrete_energy(g, 1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_nonfinite_p_named(self, p):
        g = empty_grid(1, 1, 1, 4)
        with pytest.raises(ValueError, match="p must be a finite number > 1"):
            discrete_energy(g, p)
        with pytest.raises(ValueError, match="p must be a finite number >= 1"):
            dp_distance(g, g, p)


class TestTruncateCoords:
    def test_examples(self):
        g = empty_grid(1, 3, 1, 3)
        g.values[g.mask != OUTSIDE] = [[1.0, 2.0, 3.0]]
        t = truncate_coords(g, 2)
        assert t.n == 2
        assert np.array_equal(t.values[(0,)], [[1.0, 2.0]])
        full = truncate_coords(g, 3)
        assert np.array_equal(full.values, g.values)
        with pytest.raises(ValueError):
            truncate_coords(g, 0)

    def test_energy_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            Q = int(rng.integers(1, 4))
            n = int(rng.integers(2, 4))
            g = empty_grid(1, n, Q, 6)
            inside = g.mask != OUTSIDE
            g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), Q, n))
            totals = [
                discrete_energy(truncate_coords(g, k), 2.0).total
                for k in range(1, n + 1)
            ]
            for a, b in zip(totals, totals[1:]):
                assert a <= b + 1e-12

    def test_energy_monotone_per_edge(self):
        rng = np.random.default_rng(4)
        g = empty_grid(2, 3, 2, 4)
        inside = g.mask != OUTSIDE
        g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), 2, 3))
        reports = {
            k: discrete_energy(truncate_coords(g, k), 2.0) for k in (1, 2, 3)
        }
        for (e1, e2) in ((1, 2), (2, 3)):
            for (edge_a, ca, _), (edge_b, cb, _) in zip(
                reports[e1].per_edge, reports[e2].per_edge
            ):
                assert edge_a == edge_b
                assert ca <= cb + 1e-12


class TestTrace:
    def test_restriction(self):
        g = empty_grid(2, 1, 2, 6)
        rng = np.random.default_rng(5)
        inside = g.mask != OUTSIDE
        g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), 2, 1))
        sample = trace(g)
        boundary = list(g.nodes(kinds=(BOUNDARY,)))
        assert len(sample.points) == len(boundary)
        for (loc, val), idx in zip(sample.points, boundary):
            assert np.array_equal(loc, g.node_coords(idx))
            assert np.array_equal(val.points, g.values[idx])

    def test_constant(self):
        g = empty_grid(2, 1, 1, 5)
        g.values[g.mask != OUTSIDE] = [[7.0]]
        sample = trace(g)
        assert all(v.points[0, 0] == 7.0 for _, v in sample.points)

    def test_no_boundary(self):
        mask = np.full((3,), INTERIOR, dtype=np.int8)
        g = GridFunction(1, 1, 1, (3,), 1.0, mask, np.zeros((3, 1, 1)))
        with pytest.raises(ValueError):
            trace(g)


class TestSolveDirichlet:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_rejects_interior_cut_off_from_boundary(self, p):
        mask = square_mask(7)
        mask[1:6, 1:6] = OUTSIDE
        mask[2:5, 2:5] = INTERIOR  # a 3x3 island of interior nodes
        grid = empty_grid(2, 1, 2, 7, mask)
        boundary = {idx: grid.values[idx] for idx in grid.nodes(kinds=(BOUNDARY,))}
        with pytest.raises(ValueError, match=r"interior node \(2, 2\)"):
            solve_dirichlet(boundary, grid, p, restarts=1)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("restarts,max_outer", [(1, 60), (3, 60), (2, 1), (1, 0)])
    def test_report_is_the_solution_energy(self, p, restarts, max_outer):
        # the report is built from the winning restart's last matching pass;
        # it equals a fresh evaluation of the solution bit for bit
        grid = empty_grid(2, 2, 2, 9, disk_mask(9))
        rng = np.random.default_rng(2)
        boundary = {idx: rng.uniform(-1, 1, (2, 2)) for idx in grid.nodes(kinds=(BOUNDARY,))}
        sol, report, _ = solve_dirichlet(boundary, grid, p, restarts=restarts,
                                         max_outer=max_outer)
        fresh = discrete_energy(sol, p)
        assert report.total == fresh.total and report.p == p and report.shape == fresh.shape
        for field in ("edge_u", "edge_v", "contributions", "perms"):
            assert np.array_equal(getattr(report, field), getattr(fresh, field)), field

    def test_affine_q1(self):
        N = 17
        grid = empty_grid(2, 1, 1, N)
        a = np.array([0.4, -1.1])
        boundary = {
            idx: [[a @ grid.node_coords(idx) + 0.3]]
            for idx in grid.nodes(kinds=(BOUNDARY,))
        }
        sol, report, history = solve_dirichlet(boundary, grid, 2.0, restarts=1)
        for idx in grid.nodes():
            x = grid.node_coords(idx)
            assert sol.values[idx][0, 0] == pytest.approx(a @ x + 0.3, abs=1e-10)
        assert report.converged
        for e0, e1 in zip(history, history[1:]):
            assert e1 <= e0 + 1e-12 * (1 + e0)

    def test_matches_scalar_laplacian(self):
        N = 15
        grid = empty_grid(2, 1, 1, N)
        rng = np.random.default_rng(6)
        boundary = {}
        scalar_boundary = {}
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            val = math.sin(2 * x[0]) + 0.5 * x[1] ** 2
            boundary[idx] = [[val]]
            scalar_boundary[idx] = val
        sol, _, _ = solve_dirichlet(boundary, grid, 2.0, restarts=1)
        interior = set(grid.nodes(kinds=(INTERIOR,)))
        expected = scalar_laplace_solve(interior, scalar_boundary, grid.shape)
        for idx in interior:
            assert sol.values[idx][0, 0] == pytest.approx(expected[idx], abs=1e-8)

    def test_constant_boundary(self):
        grid = empty_grid(2, 2, 3, 9)
        c = np.array([[0.5, -1.0]] * 3)
        boundary = {idx: c for idx in grid.nodes(kinds=(BOUNDARY,))}
        sol, report, history = solve_dirichlet(boundary, grid, 2.0)
        assert report.total == pytest.approx(0.0, abs=1e-20)
        for idx in grid.nodes():
            assert np.allclose(sol.values[idx], c)

    def test_trace_of_solution_is_boundary(self):
        grid = empty_grid(2, 1, 2, 7)
        rng = np.random.default_rng(7)
        boundary = {
            idx: rng.uniform(-1, 1, (2, 1))
            for idx in grid.nodes(kinds=(BOUNDARY,))
        }
        sol, _, _ = solve_dirichlet(boundary, grid, 2.0, restarts=1)
        sample = trace(sol)
        for (loc, val), idx in zip(sample.points, grid.nodes(kinds=(BOUNDARY,))):
            assert np.array_equal(val.points, np.asarray(boundary[idx]))

    def test_general_p_gradient_path(self):
        grid = empty_grid(1, 1, 1, 9, extent=1.0)
        boundary = {(0,): [[0.0]], (8,): [[1.0]]}
        sol, report, history = solve_dirichlet(
            boundary, grid, 3.0, restarts=1, tol=1e-10, max_outer=200
        )
        # the p-harmonic interpolant in 1-D is affine regardless of p
        for idx in grid.nodes():
            x = grid.node_coords(idx)[0]
            assert sol.values[idx][0, 0] == pytest.approx((x + 0.5), abs=1e-4)
        for e0, e1 in zip(history, history[1:]):
            assert e1 <= e0 + 1e-12 * (1 + e0)

    def test_q2_two_affine_sheets(self):
        # boundary carries two separated affine branches; the minimizer
        # recovers both sheets, with energy matching the sum of sheets
        N = 11
        grid = empty_grid(2, 1, 2, N)
        boundary = {}
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            boundary[idx] = [[10.0 + 0.3 * x[0]], [-10.0 + 0.5 * x[1]]]
        sol, report, history = solve_dirichlet(boundary, grid, 2.0, restarts=1)
        single = empty_grid(2, 1, 1, N)
        e_sheets = 0.0
        for a, c in (((0.3, 0.0), 10.0), ((0.0, 0.5), -10.0)):
            fill(single, lambda x, a=a, c=c: [[np.dot(a, x) + c]])
            e_sheets += discrete_energy(single, 2.0).total
        assert report.total == pytest.approx(e_sheets, rel=1e-9)

    def test_validation(self):
        grid = empty_grid(2, 1, 1, 5)
        boundary = {
            idx: [[0.0]] for idx in grid.nodes(kinds=(BOUNDARY,))
        }
        with pytest.raises(ValueError):
            solve_dirichlet(boundary, grid, 1.0)
        with pytest.raises(ValueError):
            solve_dirichlet(boundary, grid, 9.0)
        missing = dict(boundary)
        missing.pop(next(iter(missing)))
        with pytest.raises(ValueError):
            solve_dirichlet(missing, grid, 2.0)


class TestGeneralP2D:
    def test_p4_two_branches_converges(self):
        grid = empty_grid(2, 1, 2, 9)
        boundary = {}
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            boundary[idx] = [[5.0 + 0.2 * x[0]], [-5.0 + 0.4 * x[1]]]
        sol, report, history = solve_dirichlet(
            boundary, grid, 4.0, restarts=1, tol=1e-9, max_outer=300
        )
        assert report.converged
        for e0, e1 in zip(history, history[1:]):
            assert e1 <= e0 + 1e-12 * (1 + e0)
        # branches stay separated; each is close to its p-harmonic sheet
        for idx in grid.nodes():
            vals = np.sort(sol.values[idx][:, 0])
            assert vals[0] < 0 < vals[1]


class TestLipschitzTruncation:
    def test_huge_threshold_keeps_all(self):
        g = empty_grid(2, 1, 1, 7)
        fill(g, lambda x: [[x[0] * x[1]]])
        h, kept = lipschitz_truncation(g, 1e9)
        inside = g.mask != OUTSIDE
        assert len(kept) == int(inside.sum())
        assert np.array_equal(h.values[inside], g.values[inside])

    def test_tiny_threshold_empty(self):
        g = empty_grid(2, 1, 1, 5)
        g.values[g.mask != OUTSIDE] = [[5.0]]
        h, kept = lipschitz_truncation(g, 1e-6)
        assert kept == set()
        assert np.all(h.values[g.mask != OUTSIDE] == 0.0)

    def test_spike_removed(self):
        N = 17
        g = empty_grid(2, 1, 1, N)
        fill(g, lambda x: [[0.3 * x[0]]])
        g.values[N // 2, N // 2] = [[50.0]]
        h, kept = lipschitz_truncation(g, 2.0)
        assert (N // 2, N // 2) not in kept
        for idx in kept:
            assert np.array_equal(h.values[idx], g.values[idx])
        t_before = max_difference_quotient(g)
        t_after = max_difference_quotient(h)
        assert t_after < t_before / 10
        assert t_after <= 10 * 2.0  # measured constant stays of order t

    def test_rejects_nonpositive_t(self):
        g = empty_grid(1, 1, 1, 4)
        with pytest.raises(ValueError):
            lipschitz_truncation(g, 0.0)

    @pytest.mark.parametrize("t,p,named", [(math.nan, 2.0, "t"), (1.0, math.nan, "p"),
                                           (1.0, 0.0, "p"), (1.0, math.inf, "p"),
                                           (1.0, -1.0, "p"), (1.0, 0.5, "p")])
    def test_rejects_bad_t_or_p(self, t, p, named):
        # each once returned a truncation (the zero function, or a few arbitrary nodes)
        g = empty_grid(2, 1, 2, 9)
        x = g.all_coords()[g.mask != OUTSIDE]
        g.values[g.mask != OUTSIDE] = np.stack([x[:, :1], -x[:, 1:]], axis=1)
        with pytest.raises(ValueError, match=f"^{named} must be"):
            lipschitz_truncation(g, t, p)

    @pytest.mark.parametrize("m,N,t", [(1, 33, 3.0), (2, 17, 2.0), (2, 16, 1.5)])
    def test_matches_node_by_node_refill(self, m, N, t):
        rng = np.random.default_rng(N)
        g = empty_grid(m, 2, 2, N, disk_mask(N) if m == 2 else None)
        inside = g.mask != OUTSIDE
        x = g.all_coords()[inside]
        g.values[inside] = 0.3 * np.stack([np.stack([x[:, 0], x[:, -1]], axis=1),
                                           np.stack([-x[:, -1], np.ones(len(x))], axis=1)],
                                          axis=1)
        spikes = rng.choice(np.flatnonzero(inside), 4, replace=False)
        g.values.reshape(-1, 2, 2)[spikes] = 30.0
        h, kept = lipschitz_truncation(g, t)
        ref, ref_kept = lipschitz_truncation_reference(g, t)
        assert kept == ref_kept and 0 < len(kept) < int(inside.sum())
        assert np.array_equal(h.values[inside], ref.values[inside])

class TestIterationCap:
    def test_unconverged_returns_best(self):
        grid = empty_grid(1, 1, 1, 9, extent=1.0)
        boundary = {(0,): [[0.0]], (8,): [[1.0]]}
        sol, report, history = solve_dirichlet(
            boundary, grid, 3.0, restarts=1, tol=1e-16, max_outer=1,
            max_inner=1,
        )
        assert report.iterations == 1
        assert not report.converged
        assert len(history) == 2
        assert history[1] <= history[0] + 1e-12 * (1 + history[0])


class TestSolverSafety:
    @staticmethod
    def line_problem():
        grid = empty_grid(1, 1, 2, 9, extent=1.0)
        return {(0,): [[0.0], [1.0]], (8,): [[1.0], [-1.0]]}, grid

    def test_inner_step_that_raises_the_energy_is_reverted(self, monkeypatch):
        # a step to t = -1 goes uphill from the line minimum; the inner loop
        # must put back the values it started from, bit for bit
        steps, seen = [], []
        monkeypatch.setattr(energy, "_line_minimum", lambda *args: steps.append(1) or -1.0)
        minimize = energy._minimize_frozen

        def recorded(Y, *args):
            before = Y.copy()
            minimize(Y, *args)
            seen.append(np.array_equal(Y, before, equal_nan=True))

        monkeypatch.setattr(energy, "_minimize_frozen", recorded)
        boundary, grid = self.line_problem()
        solve_dirichlet(boundary, grid, 3.0, restarts=1, max_outer=1)
        assert steps and seen == [True]

    def test_energy_rise_across_a_pass_is_caught(self, monkeypatch):
        def uphill(Y, ga, gb, slot, free, *args):
            Y[free] += 1.0

        monkeypatch.setattr(energy, "_minimize_frozen", uphill)
        boundary, grid = self.line_problem()
        with pytest.raises(ArithmeticError, match="energy increased"):
            solve_dirichlet(boundary, grid, 2.0, restarts=1)

    @pytest.mark.parametrize("edge", [1e200, 0.0])
    def test_energy_past_float64_names_values(self, edge):
        # values of 1e200 square past the float64 range in the first pass, or,
        # next to 0, in the initial energy
        grid = empty_grid(2, 1, 2, 5, square_mask(5, 2))
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            grid.values[idx] = [[1e200], [-1e200]] if idx[0] == 0 else [[edge], [-edge]]
        with np.errstate(over="ignore"), pytest.raises(ArgumentError,
                                                       match="overflows float64") as info:
            solve_dirichlet(grid, grid, 2.0, restarts=1)
        assert info.value.name == "values"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", ["solve_dirichlet 2", "solve_dirichlet 3",
                                      "discrete_energy 2", "discrete_energy 3"])
    def test_overflow_named_without_a_warning(self, call):
        # warnings are errors and no errstate is set: the matching passes of the
        # solver and of discrete_energy, and the p != 2 inner step, overflow
        # quietly, and the check names it
        grid = empty_grid(2, 1, 2, 5, square_mask(5, 2))
        grid.values[grid.mask == BOUNDARY] = [[1e200], [-1e200]]
        name, p = call.split()
        with pytest.raises(ArgumentError, match="overflows float64") as info:
            if name == "solve_dirichlet":
                solve_dirichlet(grid, grid, float(p), restarts=1)
            else:
                discrete_energy(grid, float(p))
        assert info.value.name == "values"


class TestTraceContinuity:
    def test_trace_distance_controlled_by_dp(self):
        # trace is a restriction: on a fixed grid, the boundary part of the
        # L_p distance is bounded by the full one (up to the cell-measure
        # normalization), so d_p convergence forces trace convergence
        rng = np.random.default_rng(8)
        N = 9
        f = empty_grid(2, 1, 2, N)
        inside = f.mask != OUTSIDE
        f.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), 2, 1))
        p = 2.0
        prev = math.inf
        for scale in (1.0, 0.1, 0.01, 0.001):
            g = f.copy()
            g.values[inside] += scale * rng.uniform(-1, 1, (int(inside.sum()), 2, 1))
            full = dp_distance(f, g, p)
            boundary_nodes = list(f.nodes(kinds=(BOUNDARY,)))
            from oracles import _g2_value

            tr = sum(
                _g2_value(f.values[idx], g.values[idx]) ** p * f.h ** (f.m - 1)
                for idx in boundary_nodes
            ) ** (1 / p)
            assert tr <= full / f.h ** (1 / p) + 1e-12
            assert tr <= prev
            prev = tr
        assert prev <= 0.01  # vanishing with the perturbation scale


class TestBrent:
    """The line search's root finder against scipy's ``brentq``, float for float."""

    @staticmethod
    def both(f, maxiter=100):
        """``(brentq, _brent)`` on ``f`` over [0, 64]: each a root or the ValueError type."""
        from scipy.optimize import brentq

        from qvalued.energy import _brent

        out = []
        for run in (lambda: brentq(f, 0.0, 64.0, xtol=1e-14, maxiter=maxiter, disp=False),
                    lambda: _brent(f, 0.0, 64.0, f(0.0), f(64.0), 1e-14, maxiter=maxiter)):
            try:
                out.append(run())
            except ValueError:
                out.append(ValueError)
        return out

    def test_random_convex_slopes(self):
        # the slope of sum(|d + tD|^p) in the form _line_minimum gives it, and
        # sums of signed powers |t - r|^q: nondecreasing, most with a root in
        # [0, 64].  Plain floats, as brentq's cost here is the calls to f
        rng = np.random.default_rng(17)
        roots = 0
        for k in range(10_000):
            if k % 2:
                d, D = rng.normal(size=(2, int(rng.integers(1, 6)), 2))
                # shift the minimum into the interval
                t0 = rng.uniform(0.0, 40.0)
                terms = [(float(S), float(b), float(c)) for S, b, c in
                         zip((d * d).sum(1), (d * D).sum(1) - t0 * (D * D).sum(1),
                             (D * D).sum(1))]
                power = rng.uniform(1.2, 8.0) / 2.0 - 1.0

                def f(t, terms=terms, power=power):
                    total = 0.0
                    for S, b, c in terms:
                        s = max(S + t * (2.0 * b + t * c), 0.0)
                        if s > 0.0:
                            total += s ** power * (b + t * c)
                    return total
            else:
                terms = [(float(r), float(w), float(q)) for r, w, q in
                         zip(*rng.uniform((-10.0, 0.1, 0.2), (80.0, 3.0, 4.0),
                                          (int(rng.integers(1, 5)), 3)).T)]

                def f(t, terms=terms):
                    return sum(w * math.copysign(abs(t - r) ** q, t - r) for r, w, q in terms)
            expect, got = self.both(f)
            assert got == expect, (k, got, expect)
            roots += isinstance(got, float)
        assert roots > 5_000

    @pytest.mark.parametrize("f,root", [
        (lambda t: t - 64.0, 64.0),  # exactly 0 at the right end
        (lambda t: t - 32.0, 32.0),  # exactly 0 at the first secant step
        (lambda t: float(np.sign(t - 1.0 / 3.0)), None),  # a jump: bisection only
        (lambda t: (t - 5.0) ** 3, None),
        # subnormal differences: the extrapolation divides by an underflowed zero
        (lambda t: 1e-300 * (t - 5.0) ** 3, None),
        (lambda t: 1e-320 * (t - 3.0) ** 3, None),
    ])
    def test_exact_and_hard_roots(self, f, root):
        expect, got = self.both(f)
        assert got == expect
        if root is not None:
            assert got == root

    @pytest.mark.parametrize("maxiter", [1, 2, 5])
    def test_unconverged_returns_last_iterate(self, maxiter):
        expect, got = self.both(lambda t: math.expm1(t - 3.0), maxiter)
        assert isinstance(got, float) and got == expect

    def test_nan_and_same_signs_raise(self):
        assert self.both(lambda t: math.nan if t > 10.0 else t - 20.0) == [ValueError] * 2
        assert self.both(lambda t: math.nan if 1.0 < t < 60.0 else t - 20.0) == [ValueError] * 2
        assert self.both(lambda t: t + 1.0) == [ValueError] * 2
