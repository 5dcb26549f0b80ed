"""Differential tests: the one assignment kernel ``match_many`` for G1 and
G2, against brute force on exact ties and against the per-pair ``dist``
it replaced, and for all three kinds against the einsum cost matrix it
built before.  The other GINF rows are held in ``test_ginf_kernel.py``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qvalued.qspace import (MetricKind, QTuple, _lexmin_assignment, _optimum, _perm_table, dist,
                            dist_many, match_many)

from oracles import all_pairing_costs, match_many_reference, pairing_cost, sum_dist_reference

SUM_KINDS = [(MetricKind.G1, "g1"), (MetricKind.G2, "g2")]


@st.composite
def int_stacks(draw):
    Q = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    E = draw(st.integers(1, 6 if Q < 6 else 3 if Q == 6 else 2))
    coords = st.integers(-2, 2)
    size = E * Q * n
    A = np.array(draw(st.lists(coords, min_size=size, max_size=size)), float)
    B = np.array(draw(st.lists(coords, min_size=size, max_size=size)), float)
    return A.reshape(E, Q, n), B.reshape(E, Q, n)


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(int_stacks())
    def test_g2_takes_first_exact_minimum(self, stacks):
        A, B = stacks
        E, Q, _ = A.shape
        sq, perm = match_many(A, B, MetricKind.G2)
        assert sq.shape == (E,) and perm.shape == (E, Q)
        for e in range(E):
            costs, perms = all_pairing_costs(A[e], B[e], "g2")
            best = costs.min()
            first = tuple(perms[costs.argmin()])
            assert sq[e] == best
            assert tuple(perm[e]) == first
            value, match = dist(QTuple(A[e]), QTuple(B[e]), MetricKind.G2)
            assert value == math.sqrt(best) and match.perm == first

    @settings(max_examples=200, deadline=None)
    @given(int_stacks())
    def test_g1_takes_first_minimum(self, stacks):
        # sums of square roots of small integers are either equal or far apart
        A, B = stacks
        E, Q, _ = A.shape
        cost, perm = match_many(A, B, MetricKind.G1)
        for e in range(E):
            costs, perms = all_pairing_costs(A[e], B[e], "g1")
            best = costs.min()
            first = tuple(perms[np.argmax(costs <= best + 1e-9)])
            assert cost[e] == pytest.approx(best, rel=1e-14, abs=1e-14)
            assert tuple(perm[e]) == first
            _, match = dist(QTuple(A[e]), QTuple(B[e]), MetricKind.G1)
            assert match.perm == first

    @pytest.mark.parametrize("kind", [MetricKind.G1, MetricKind.G2])
    @pytest.mark.parametrize("scale", [1e-8, 2.0**-30, 1e8])
    @settings(max_examples=100, deadline=None)
    @given(stacks=int_stacks())
    def test_tie_rule_does_not_depend_on_scale(self, kind, scale, stacks):
        # exact ties of the integer stack stay ties, however small the data
        A, B = stacks
        cost, perm = match_many(A, B, kind)
        small_cost, small_perm = match_many(A * scale, B * scale, kind)
        assert np.array_equal(small_perm, perm)
        factor = scale * scale if kind is MetricKind.G2 else scale
        if math.log2(scale).is_integer():
            assert np.array_equal(small_cost, cost * factor)
        else:
            assert small_cost == pytest.approx(cost * factor, rel=1e-14, abs=0.0)

    def test_tiny_equal_multisets_are_at_distance_zero(self):
        v, w = QTuple([[0.0], [1e-7]]), QTuple([[1e-7], [0.0]])
        for kind in MetricKind:
            value, match = dist(v, w, kind)
            assert value == 0.0 and match.perm == (1, 0)


def _q2_tied(a, b, tag):
    keep = pairing_cost(a, b, (0, 1), tag)
    swap = pairing_cost(a, b, (1, 0), tag)
    return abs(keep - swap) <= 1e-12 * min(keep, swap)


class TestAgainstOldDist:
    @pytest.mark.parametrize("kind,tag", SUM_KINDS)
    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_floats(self, kind, tag, Q, n):
        rng = np.random.default_rng(100 * Q + 10 * n + len(tag))
        A = rng.standard_normal((30, Q, n)) * rng.choice([1e-3, 1.0, 1e3], (30, 1, 1))
        B = rng.standard_normal((30, Q, n))
        cost, perm = match_many(A, B, kind)
        for e in range(30):
            ref_value, ref_perm = sum_dist_reference(A[e], B[e], tag)
            tied = Q == 2 and _q2_tied(A[e], B[e], tag)
            if tied:
                # the old Q = 2 path compared rounded sums exactly
                ref_perm = (0, 1)
            value, match = dist(QTuple(A[e]), QTuple(B[e]), kind)
            assert match.perm == ref_perm
            assert tuple(perm[e]) == ref_perm
            if kind is MetricKind.G1:
                assert value == cost[e]
            elif Q > 1:
                assert value == math.sqrt(cost[e])
            if (kind is MetricKind.G1 or Q == 1) and not tied:
                assert value == ref_value
            else:
                assert value == pytest.approx(ref_value, rel=1e-15, abs=0.0)


class TestBatching:
    @pytest.mark.parametrize("kind", [MetricKind.G1, MetricKind.G2])
    @pytest.mark.parametrize("Q", [1, 3, 5, 6])
    def test_batched_rows_equal_single_calls(self, kind, Q):
        # 2000 rows at Q = 5 span several of the kernel's enumeration chunks
        E = 40 if Q == 6 else 2000
        rng = np.random.default_rng(Q)
        A = rng.integers(-3, 4, (E, Q, 2)).astype(float)
        ref = rng.integers(-3, 4, (Q, 2)).astype(float)
        cost, perm = match_many(A, ref[None], kind)
        tiled = match_many(A, np.broadcast_to(ref, A.shape), kind)
        assert np.array_equal(cost, tiled[0]) and np.array_equal(perm, tiled[1])
        for e in range(0, E, 37):
            one_cost, one_perm = match_many(A[e:e + 1], ref[None], kind)
            assert one_cost[0] == cost[e]
            assert np.array_equal(one_perm[0], perm[e])

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("Q", [1, 2, 4, 6])
    def test_dist_many_rows_equal_dist(self, kind, Q):
        rng = np.random.default_rng(7 * Q)
        A = rng.standard_normal((25, Q, 3))
        ref = rng.standard_normal((Q, 3))
        value, perm = dist_many(A, ref[None], kind)
        for e in range(25):
            one, match = dist(QTuple(A[e]), QTuple(ref), kind)
            assert value[e] == one and tuple(perm[e]) == match.perm

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("Q", [1, 3, 6])
    def test_empty_stack(self, kind, Q):
        cost, perm = match_many(np.zeros((0, Q, 2)), np.zeros((0, Q, 2)), kind)
        assert cost.shape == (0,) and perm.shape == (0, Q)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            match_many(np.zeros((1, 2, 1)), np.ones((1, 2, 1)), "g2")


def reference_stacks(Q, n, seed):
    """Named (A, B) stacks of the cases the cost matrix must get right: random
    floats of mixed scale, exact integer ties, permuted copies (exact and
    moved by 1e-9), and tuples clustered around two centres."""
    rng = np.random.default_rng(seed)
    E = 200 if Q <= 5 else 4
    A = rng.standard_normal((E, Q, n)) * rng.choice([1e-3, 1.0, 1e3], (E, 1, 1))
    yield "random", A, rng.standard_normal((E, Q, n))
    A, B = rng.integers(-2, 3, (2, E, Q, n)).astype(float)
    yield "ties", A, B
    A = rng.standard_normal((E, Q, n))
    B = np.take_along_axis(A, rng.random((E, Q)).argsort(axis=1)[:, :, None], axis=1)
    B[::2] += 1e-9 * rng.standard_normal((len(B[::2]), Q, n))
    yield "permuted", A, B
    centres = rng.standard_normal((2, E, 1, n))
    A, B = (centres[rng.integers(0, 2, (E, Q)), np.arange(E)[:, None], 0]
            + 0.01 * rng.standard_normal((E, Q, n)) for _ in range(2))
    yield "clustered", A, B


class TestAgainstCostMatrixReference:
    """Costs and perms equal, bit for bit, to the kernel as it was: one einsum
    over the point differences, then the same enumeration or solvers."""

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("Q", range(2, 9))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_equal_the_reference(self, kind, Q, n):
        for name, A, B in reference_stacks(Q, n, 100 * Q + 10 * n):
            for a, b in ((A, B), (A[:1], B), (A, B[:1]), (A[:1], B[:1]), (A[:0], B[:0])):
                cost, perm = match_many(a, b, kind)
                ref_cost, ref_perm = match_many_reference(a, b, kind.value)
                assert cost.shape == ref_cost.shape and perm.shape == ref_perm.shape, name
                assert np.array_equal(cost, ref_cost), name
                assert np.array_equal(perm, ref_perm), name


# a/b of the kernel's infinite costs: at Q = 6 the first lexmin sub-solve for
# a[0] -> b[0] leaves a block whose row a[1] has no finite cost
FAR_A = [[0.6e154], [-0.6e154], [2e300], [3e300], [4e300], [5e300]]
FAR_B = [[0.0], [1.2e154], [2e300], [3e300], [4e300], [5e300]]


@st.composite
def far_stacks(draw):
    """Integer stacks on {-2..2} scaled by 2**510, at Q = 6 or 7: a point
    difference of 4 squares past float64, one of 3 or less stays exact."""
    Q = draw(st.integers(6, 7))
    n = draw(st.integers(1, 2))
    E = draw(st.integers(1, 2))
    size = E * Q * n
    coords = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    A, B = (np.array(draw(coords), float).reshape(E, Q, n) * 2.0**510 for _ in range(2))
    return A, B


class TestInfiniteCosts:
    """Pairings whose squared distance overflows cost inf at every Q, quietly:
    past Q = 5 the Hungarian solves price a block with no finite assignment
    as inf, as the permutation table does."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(MetricKind))
    @settings(max_examples=40, deadline=None)
    @given(stacks=far_stacks())
    # the G2 optimum is 13 * 2**1020, but an unscaled Hungarian solve sums past
    # float64 on its way and refuses the block
    @example(stacks=(np.array([[[0.0]] * 5 + [[-2.0**511]]]),
                     np.array([[[0.0]] * 3 + [[2.0**510], [2.0**511], [2.0**511]]])))
    def test_against_brute_force(self, kind, stacks):
        A, B = stacks
        cost, perm = match_many(A, B, kind)
        for e in range(len(A)):
            with np.errstate(over="ignore"):
                costs, perms = all_pairing_costs(A[e], B[e], kind.value)
            if kind is MetricKind.GINF:
                first = costs.argmin()
            else:
                first = np.argmax(costs <= costs.min() * (1.0 + 1e-12))
            assert cost[e] == costs[first]
            assert tuple(perm[e]) == tuple(perms[first])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("Q", [5, 6])
    def test_finite_optimum_past_infinite_blocks(self, kind, Q):
        expect = {MetricKind.G1: 1.2e154, MetricKind.G2: math.sqrt(2 * 0.6e154**2),
                  MetricKind.GINF: 0.6e154}[kind]
        value, match = dist(QTuple(FAR_A[:Q]), QTuple(FAR_B[:Q]), kind)
        assert value == expect
        assert match.perm == (1, 0, 2, 3, 4, 5)[:Q]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("Q", [1, 2, 5, 6, 7])
    def test_no_finite_pairing_costs_inf_and_takes_the_identity(self, kind, Q):
        A = np.full((2, Q, 1), 1e200)
        B = np.full((2, Q, 1), -1e200)
        B[1, 0] = 1e200  # one finite cost, at Q = 1 the only one
        cost, perm = match_many(A, B, kind)
        value, _ = dist_many(A, B, kind)
        if Q == 1:
            assert cost[0] == value[0] == math.inf and cost[1] == value[1] == 0.0
        else:
            assert (cost == math.inf).all() and (value == math.inf).all()
        assert np.array_equal(perm, np.tile(np.arange(Q), (2, 1)))


def refine(D):
    """The Q > 5 refinement that ``match_many`` runs on a G1 or G2 cost block,
    and the limit it refines within."""
    limit = _optimum(D) * (1.0 + 1e-12)
    return _lexmin_assignment(D, limit), limit


def point_order_totals(D):
    """The total of every permutation of ``_perm_table``, added in point order."""
    P = _perm_table(len(D))
    total = D[0].take(P[:, 0])
    for i in range(1, len(D)):
        total = total + D[i].take(P[:, i])
    return total


def near_threshold_blocks(count, seed=1):
    """Q = 6 blocks of small integers over 3, in which one permutation before
    the table's pick has one entry moved to put its total within 4 ulps, either
    side, of the least total times 1 + 1e-12."""
    P = _perm_table(6)
    rng = np.random.default_rng(seed)
    blocks = []
    while len(blocks) < count:
        D = rng.integers(1, 5, (6, 6)) / 3
        total = point_order_totals(D)
        pick = int(np.argmax(total <= total.min() * (1.0 + 1e-12)))
        if pick == 0:
            continue
        p, i = int(rng.integers(0, pick)), int(rng.integers(0, 6))
        target = total.min() * (1.0 + 1e-12)
        D[i, P[p, i]] += target + int(rng.integers(-4, 5)) * np.spacing(target) - total[p]
        total = point_order_totals(D)
        target = total.min() * (1.0 + 1e-12)
        if D[i, P[p, i]] >= 0 and abs(total[p] - target) <= 4 * np.spacing(target):
            blocks.append(D)
    return blocks


class TestLexminRefinement:
    """The Q > 5 refinement of G1 and G2 where rounding decides: its test adds
    the prefix, the column and the rest's optimum in another order than the
    next row's test, so a column taken within an ulp of the limit can leave
    no column that passes."""

    def test_dead_end_takes_the_least_total(self):
        T = [[1, 4, 2, 1, 1, 2], [2, 4, 2, 3, 2, 3], [3, 2, 2, 1, 1, 3],
             [4, 3, 4, 1, 2, 4], [4, 3, 1, 1, 1, 3], [3, 3, 1, 1, 2, 1]]
        D = np.array(T) / 3
        D[0, 0] = 0.33333333333600035
        perm, limit = refine(D)
        assert sorted(perm.tolist()) == list(range(6))
        assert D[np.arange(6), perm].sum() <= limit + 6 * np.spacing(limit)

    def test_near_threshold_totals_never_raise(self):
        for D in near_threshold_blocks(200):
            perm, limit = refine(D)
            assert sorted(perm.tolist()) == list(range(6))
            assert D[np.arange(6), perm].sum() <= limit + 6 * np.spacing(limit)
