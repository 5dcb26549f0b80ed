"""Differential tests: the one assignment kernel ``match_many`` for G1 and
G2, against brute force on exact ties and against the per-pair ``dist``
it replaced.  The GINF rows are held in ``test_ginf_kernel.py``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued.qspace import MetricKind, QTuple, dist, dist_many, match_many

from oracles import all_pairing_costs, pairing_cost, sum_dist_reference

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
