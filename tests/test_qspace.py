import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued.qspace import (
    Matching,
    MetricKind,
    QTuple,
    SplitRadiusError,
    concatenate,
    dist,
    dist_sorted_1d,
    local_split,
    split_distance,
    support_sigma,
)

from oracles import brute_force_dist, pairing_cost


def qt(*points):
    return QTuple([p if isinstance(p, (list, tuple)) else [p] for p in points])


class TestQTuple:
    def test_multiset_equality(self):
        assert qt(1, 2, 2) == qt(2, 1, 2)
        assert qt(1, 2) != qt(1, 1)
        assert QTuple([[1, 2], [3, 4]]) == QTuple([[3, 4], [1, 2]])

    def test_hash_agrees_with_signed_zero_equality(self):
        assert QTuple([[0.0]]) == QTuple([[-0.0]])
        assert len({QTuple([[0.0]]), QTuple([[-0.0]])}) == 1
        assert hash(QTuple([[1.0, -0.0], [0.0, 2.0]])) == hash(QTuple([[0.0, 2.0], [1.0, 0.0]]))

    def test_validation(self):
        with pytest.raises(ValueError):
            QTuple([])
        with pytest.raises(ValueError):
            QTuple([[np.nan]])
        with pytest.raises(ValueError):
            QTuple([[[1.0]]])

    def test_points_read_only(self):
        v = qt(1, 2)
        with pytest.raises(ValueError):
            v.points[0, 0] = 5.0

    def test_text_round_trip(self):
        v = QTuple([[0.1, 1 / 3], [math.pi, -2.5e-17]])
        w = QTuple.from_text(v.to_text())
        assert np.array_equal(v.points, w.points)


class TestMatching:
    def test_validation(self):
        Matching((0, 1, 2))
        with pytest.raises(ValueError):
            Matching((0, 0, 2))
        with pytest.raises(ValueError):
            Matching((1, 2))

    def test_kind_parse(self):
        assert MetricKind.parse("G2") is MetricKind.G2
        assert MetricKind.parse(" ginf ") is MetricKind.GINF
        with pytest.raises(ValueError):
            MetricKind.parse("g3")


class TestDist:
    def test_q1_scalar(self):
        value, match = dist(qt(3), qt(5), MetricKind.G2)
        assert value == 2.0
        assert match.perm == (0,)

    def test_spec_pair_g2(self):
        value, _ = dist(QTuple([[-1, 1], [1, 0]]), QTuple([[-1, 0], [1, 1]]))
        assert value == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_spec_pair_g1(self):
        value, _ = dist(QTuple([[-1, 1], [1, 0]]), QTuple([[-1, 0], [1, 1]]),
                        MetricKind.G1)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        v = QTuple([[0.3, -0.7], [1.1, 0.2], [0.3, -0.7]])
        for kind in MetricKind:
            value, match = dist(v, v, kind)
            assert value == 0.0
            assert match.perm == (0, 1, 2)

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            dist(qt(1), qt(1, 2))
        with pytest.raises(ValueError):
            dist(QTuple([[1, 2]]), QTuple([[1]]))

    def test_match_attains_value(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            Q = int(rng.integers(1, 6))
            v = QTuple(rng.uniform(-1, 1, (Q, 2)))
            w = QTuple(rng.uniform(-1, 1, (Q, 2)))
            for kind, tag in ((MetricKind.G1, "g1"), (MetricKind.G2, "g2"),
                              (MetricKind.GINF, "ginf")):
                value, match = dist(v, w, kind)
                attained = pairing_cost(v.points, w.points, match.perm, tag)
                assert attained == pytest.approx(value, abs=1e-9)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            Q = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            v = QTuple(rng.uniform(-1, 1, (Q, n)))
            w = QTuple(rng.uniform(-1, 1, (Q, n)))
            for kind, tag in ((MetricKind.G1, "g1"), (MetricKind.G2, "g2"),
                              (MetricKind.GINF, "ginf")):
                value, _ = dist(v, w, kind)
                expect, _ = brute_force_dist(v.points, w.points, tag)
                assert abs(value - expect) <= 1e-9

    def test_lexicographic_tie_break(self):
        # integer coordinates force exactly tied pairings
        v = QTuple([[0], [0], [2]])
        w = QTuple([[1], [1], [3]])
        for kind in MetricKind:
            _, match = dist(v, w, kind)
            assert match.perm == (0, 1, 2)
        # two optimal pairings, swap is lexicographically larger
        v = QTuple([[0, 0], [1, 0]])
        w = QTuple([[0, 1], [1, 1]])
        for kind in MetricKind:
            _, match = dist(v, w, kind)
            assert match.perm == (0, 1)

    @pytest.mark.parametrize("v,w,kind", [
        # both pairings cost 11, but the squares of rounded distances differ
        ([[-1, 0], [-1, -1]], [[2, -1], [-2, -1]], MetricKind.G2),
        # both pairings cost exactly 1 in the stored binary values
        ([0.1, 0.2], [0.2, 1.1], MetricKind.G1),
    ])
    def test_q2_tie_takes_lexicographic_pairing(self, v, w, kind):
        _, match = dist(QTuple(v), QTuple(w), kind)
        assert match.perm == (0, 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_metric_axioms(Q, n, seed):
    rng = np.random.default_rng(seed)
    v = QTuple(rng.uniform(-1, 1, (Q, n)))
    w = QTuple(rng.uniform(-1, 1, (Q, n)))
    u = QTuple(rng.uniform(-1, 1, (Q, n)))
    for kind in MetricKind:
        dvw, _ = dist(v, w, kind)
        dwv, _ = dist(w, v, kind)
        assert abs(dvw - dwv) <= 1e-12
        dvu, _ = dist(v, u, kind)
        duw, _ = dist(u, w, kind)
        assert dvw <= dvu + duw + 1e-9


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(5)
    v = QTuple(rng.uniform(-1, 1, (3, 2)))
    shuffled = QTuple(v.points[[2, 0, 1]])
    for kind in MetricKind:
        assert dist(v, shuffled, kind)[0] == 0.0
    assert v == shuffled
    w = QTuple(v.points + 1e-9)
    assert dist(v, w)[0] > 0
    assert v != w


def test_equivalence_constants():
    rng = np.random.default_rng(17)
    for _ in range(200):
        Q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        v = QTuple(rng.uniform(-1, 1, (Q, n)))
        w = QTuple(rng.uniform(-1, 1, (Q, n)))
        g1 = dist(v, w, MetricKind.G1)[0]
        g2 = dist(v, w, MetricKind.G2)[0]
        gi = dist(v, w, MetricKind.GINF)[0]
        assert gi <= g2 + 1e-9
        assert g2 <= g1 + 1e-9
        assert g1 <= Q * gi + 1e-9
        assert g2 <= math.sqrt(Q) * gi + 1e-9


def test_metric_equivalence_spec_instance():
    v, w = qt(0, 10), qt(1, 9)
    assert dist(v, w, MetricKind.G1)[0] == pytest.approx(2.0, abs=1e-12)
    assert dist(v, w, MetricKind.G2)[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert dist(v, w, MetricKind.GINF)[0] == pytest.approx(1.0, abs=1e-12)


class TestSorted1d:
    def test_spec_example(self):
        assert dist_sorted_1d(qt(1, 5, 2), qt(0, 2, 6)) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    def test_singleton(self):
        assert dist_sorted_1d(qt(4), qt(1)) == 3.0

    def test_equal(self):
        assert dist_sorted_1d(qt(1, 2), qt(2, 1)) == 0.0

    def test_rejects_higher_dimension(self):
        with pytest.raises(ValueError):
            dist_sorted_1d(QTuple([[1, 2]]), QTuple([[1, 2]]))

    def test_rejects_other_multiplicity(self):
        with pytest.raises(ValueError, match="^multiplicity mismatch: Q=2 vs Q=1$"):
            dist_sorted_1d(qt(1, 2), qt(1))

    def test_agrees_with_dist(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            Q = int(rng.integers(1, 7))
            v = QTuple(rng.uniform(-1, 1, (Q, 1)))
            w = QTuple(rng.uniform(-1, 1, (Q, 1)))
            assert dist_sorted_1d(v, w) == pytest.approx(
                dist(v, w, MetricKind.G2)[0], abs=1e-12
            )


class TestSplitDistance:
    def test_examples(self):
        assert split_distance(qt(0, 0, 3)) == 3.0
        assert split_distance(qt(7, 7, 7)) == math.inf
        assert split_distance(QTuple([[0, 0], [1, 0], [5, 0]])) == 1.0

    def test_exact_distinctness(self):
        v = QTuple([[0.0], [1e-300]])
        assert split_distance(v) == 1e-300


class TestConcatenate:
    def test_basic(self):
        assert concatenate(qt(1), qt(2)) == qt(1, 2)

    def test_associative_commutative(self):
        a, b, c = qt(1, 2), qt(3), qt(4, 5)
        assert concatenate(concatenate(a, b), c) == concatenate(a, concatenate(b, c))
        assert concatenate(a, b) == concatenate(b, a)

    def test_multiplicity(self):
        v = concatenate(qt(1, 2), qt(2))
        support, sigma = support_sigma(v)
        assert sigma == 2
        assert {(p[0], m) for p, m in support} == {(1.0, 1), (2.0, 2)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            concatenate(qt(1), QTuple([[1, 2]]))


class TestSupportSigma:
    def test_examples(self):
        support, sigma = support_sigma(qt(1, 1, 3))
        assert sigma == 2
        assert [(p[0], m) for p, m in support] == [(1.0, 2), (3.0, 1)]
        assert support_sigma(qt(5, 5, 5, 5))[1] == 1
        assert support_sigma(qt(1, 2, 3))[1] == 3

    def test_multiplicities_sum_to_Q(self):
        rng = np.random.default_rng(1)
        v = QTuple(rng.integers(0, 2, size=(6, 2)).astype(float))
        support, _ = support_sigma(v)
        assert sum(m for _, m in support) == 6


class TestLocalSplit:
    def test_spec_example(self):
        parts, assignment = local_split(qt(0, 0, 10), qt(0.1, -0.1, 9.8))
        assert parts[0] == qt(0.1, -0.1)
        assert parts[1] == qt(9.8)
        rebuilt = concatenate(parts[0], parts[1])
        assert rebuilt == qt(0.1, -0.1, 9.8)
        # assignment sends original positions into the concatenation
        flat = np.vstack([p.points for p in parts])
        src = qt(0.1, -0.1, 9.8)
        for i, j in enumerate(assignment.perm):
            assert np.array_equal(flat[j], src.points[i])

    def test_interleaved_groups(self):
        # v's points alternate between the two support points of the center,
        # so the concatenation reorders them
        parts, assignment = local_split(qt(0, 10, 0, 10), qt(0.1, 9.9, -0.1, 10.1))
        assert parts == [qt(0.1, -0.1), qt(9.9, 10.1)]
        assert assignment.perm == (0, 2, 1, 3)

    def test_center_equals_value(self):
        v = qt(0, 0, 5)
        parts, _ = local_split(v, v)
        assert parts[0] == qt(0, 0)
        assert parts[1] == qt(5)

    def test_coincident_center_single_part(self):
        # all points of the center coincide: infinite radius, one part
        parts, assignment = local_split(qt(2, 2, 2), qt(5, -1, 9))
        assert len(parts) == 1
        assert parts[0] == qt(5, -1, 9)
        assert sorted(assignment.perm) == [0, 1, 2]

    def test_radius_violation(self):
        with pytest.raises(SplitRadiusError):
            local_split(qt(0, 10), qt(6, 6))

    def test_prop_sigma_monotonicity(self):
        # within half the splitting radius the support cannot merge
        rng = np.random.default_rng(9)
        for _ in range(100):
            Q = int(rng.integers(2, 5))
            n = int(rng.integers(1, 3))
            v = QTuple(np.round(rng.uniform(-1, 1, (Q, n)), 1))
            s = split_distance(v)
            if math.isinf(s):
                continue
            delta = rng.standard_normal((Q, n))
            delta *= 0.49 * s / max(np.linalg.norm(delta, axis=1).max(), 1e-12)
            w = QTuple(v.points + delta)
            gi = dist(v, w, MetricKind.GINF)[0]
            if gi < s / 2:
                assert support_sigma(w)[1] >= support_sigma(v)[1]


class TestSplittingLemma:
    def test_random_and_boundary(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            Q = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            v = QTuple(rng.uniform(-1, 1, (Q, n)))
            s = split_distance(v)
            radius = 1.0 if math.isinf(s) else s / 2
            delta = rng.standard_normal((Q, n))
            norm = math.sqrt(float((delta * delta).sum()))
            scale = radius if trial % 5 == 0 else radius * float(rng.uniform(0.1, 0.99))
            delta *= scale / norm
            w = QTuple(v.points + delta)
            paired = np.linalg.norm(delta, axis=1)
            assert dist(v, w, MetricKind.G2)[0] == pytest.approx(
                math.sqrt(float((paired**2).sum())), abs=1e-12, rel=1e-12
            )
            assert dist(v, w, MetricKind.G1)[0] == pytest.approx(
                float(paired.sum()), abs=1e-12, rel=1e-12
            )
            assert dist(v, w, MetricKind.GINF)[0] == pytest.approx(
                float(paired.max()), abs=1e-12, rel=1e-12
            )

    def test_spec_instance(self):
        value, match = dist(qt(0, 10), qt(0.5, 9.5), MetricKind.G2)
        assert match.perm == (0, 1)
        assert value == pytest.approx(math.sqrt(0.5), abs=1e-12)
