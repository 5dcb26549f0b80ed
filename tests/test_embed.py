import json
import math
import pathlib

import numpy as np
import pytest

from qvalued import ArgumentError, embed
from qvalued.embed import (
    DecodeFailure,
    DirectionFrame,
    FrameConstructionError,
    build_frame,
    decode,
    measured_separation,
    pi_e,
    whitney_count,
    whitney_eta,
    whitney_eta_inverse_1d,
    xi,
    xi0,
    xi_isometry_radius,
    xi_isometry_radius_many,
    xi_many,
    zeta_dual_gap,
)
from qvalued.qspace import MetricKind, QTuple, dist

from oracles import (
    build_frame_reference,
    measured_separation_reference,
    xi_isometry_radius_reference,
    xi_reference,
)


DATA = pathlib.Path(__file__).parent / "data"


def decode_golden_lines():
    """The lines of tests/data/decode_golden.jsonl: per seed-7 frame with n in
    {2, 3} and Q in {2, 3}, three tuples (one on the image of ``xi``, two off
    it by noise), each decoded without and with itself as the hint."""
    lines = []
    for n in (2, 3):
        for Q in (2, 3):
            frame = build_frame(n, Q, seed=7)
            rng = np.random.default_rng(100 * n + Q)
            for case, noise in enumerate((0.0, 0.01, 0.01)):
                v = QTuple(rng.uniform(-1, 1, (Q, n)))
                z = xi(v, frame).coords + noise * rng.standard_normal(frame.ambient_length)
                for hint in (None, v):
                    w = decode(z, frame, hint)
                    lines.append(json.dumps({"n": n, "Q": Q, "case": case,
                                             "hint": hint is not None,
                                             "points": w.points.tolist()}) + "\n")
    return lines


@pytest.fixture(scope="module")
def frame22():
    return build_frame(2, 2, seed=0)


@pytest.fixture(scope="module")
def frame23():
    return build_frame(2, 3, seed=0)


class TestPiE:
    def test_spec_example(self):
        v = QTuple([[-1, 1], [1, 0]])
        assert np.array_equal(pi_e(v, [1, 0]), [-1, 1])

    def test_zero_tuple(self):
        assert np.array_equal(pi_e(QTuple([[0, 0]] * 3), [0, 1]), np.zeros(3))

    def test_sorting_1d(self):
        assert np.array_equal(pi_e(QTuple([[5], [2], [2]]), [1]), [2, 2, 5])

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            pi_e(QTuple([[1, 0]]), [1, 1])


class TestXi0:
    def test_remark_value(self):
        v = QTuple([[-1, 1], [1, 0]])
        assert np.array_equal(xi0(v, np.eye(2)), [-1, 1, 0, 1])

    def test_remark_non_injectivity(self):
        v = QTuple([[-1, 1], [1, 0]])
        w = QTuple([[-1, 0], [1, 1]])
        assert v != w
        assert np.array_equal(xi0(v, np.eye(2)), xi0(w, np.eye(2)))

    def test_zero(self):
        assert np.array_equal(xi0(QTuple([[0, 0]] * 2), np.eye(2)), np.zeros(4))

    def test_one_lipschitz(self):
        rng = np.random.default_rng(2)
        basis = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
        for _ in range(100):
            v = QTuple(rng.uniform(-1, 1, (3, 3)))
            w = QTuple(rng.uniform(-1, 1, (3, 3)))
            g2 = dist(v, w)[0]
            assert np.linalg.norm(xi0(v, basis) - xi0(w, basis)) <= g2 + 1e-9

    def test_bad_basis(self):
        with pytest.raises(ValueError, match="basis rows must be orthonormal to 1e-10"):
            xi0(QTuple([[1, 0]]), np.array([[1, 0], [1, 0]]))


class TestBuildFrame:
    def test_n1(self):
        fr = build_frame(1, 4)
        assert fr.K == 1
        assert fr.epsilon == 1.0
        assert np.array_equal(fr.bases, [[[1.0]]])

    @pytest.mark.parametrize("K", [2, 5])
    def test_n1_integer_k_gives_k_bases(self, K):
        # every unit vector of R^1 is 1 or -1, so each copy of [[1]] keeps epsilon = 1
        fr = build_frame(1, 3, K)
        assert fr.K == K and fr.epsilon == 1.0
        assert np.array_equal(fr.bases, np.ones((K, 1, 1)))
        assert measured_separation(fr.bases[:, 0, :], 3) >= fr.epsilon
        rng = np.random.default_rng(K)
        zero = QTuple(np.zeros((3, 1)))
        for _ in range(20):
            v = QTuple(rng.uniform(-2.0, 2.0, (3, 1)))
            assert np.linalg.norm(xi(v, fr).coords) == pytest.approx(
                dist(v, zero, MetricKind.G2)[0], rel=1e-12)

    # each asks for an array of over 2**24 numbers, and is refused before any is made:
    # the pool (4096, n), a draw (Q*Q, n), the bases (K, n, n) or the scores (K, Q*Q),
    # and at n = 1 the K bases
    @pytest.mark.parametrize("n,Q,K,named", [(5000, 2, "auto", "n"), (2, 100_000, "auto", "Q"),
                                             (2, 2, 10**7, "K"), (2, 200, 512, "K"),
                                             (210, 2, "auto", "n"), (2, 200, "auto", "Q"),
                                             (1, 2, 10**8, "K")])
    def test_size_past_the_bound_is_named(self, n, Q, K, named):
        with pytest.raises(ArgumentError, match=f"lower {named}$") as info:
            build_frame(n, Q, K)
        assert info.value.name == named

    def test_n2_q2_injective(self, frame22):
        assert frame22.epsilon > 0
        rng = np.random.default_rng(4)
        for _ in range(500):
            v = QTuple(rng.uniform(-1, 1, (2, 2)))
            w = QTuple(rng.uniform(-1, 1, (2, 2)))
            dxi = np.linalg.norm(xi(v, frame22).coords - xi(w, frame22).coords)
            if dxi <= 1e-12:
                assert dist(v, w)[0] <= 1e-9

    def test_q1_single_basis_suffices(self):
        fr = build_frame(2, 1, K=1, seed=0)
        assert fr.K == 1
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = QTuple(rng.uniform(-1, 1, (1, 2)))
            w = QTuple(rng.uniform(-1, 1, (1, 2)))
            assert np.linalg.norm(
                xi(v, fr).coords - xi(w, fr).coords
            ) == pytest.approx(dist(v, w)[0], abs=1e-12)

    def test_cap_exceeded(self):
        with pytest.raises(FrameConstructionError):
            build_frame(3, 4, eps_floor=0.999, max_K=16)

    def test_json_round_trip(self, frame22):
        loaded = DirectionFrame.from_json(frame22.to_json())
        assert loaded.K == frame22.K
        assert loaded.epsilon == frame22.epsilon
        assert np.array_equal(loaded.bases, frame22.bases)

    def test_inflated_epsilon_rejected(self, frame22):
        obj = json.loads(frame22.to_json())
        obj["epsilon"] = 0.999999
        with pytest.raises(FrameConstructionError):
            DirectionFrame.from_json(json.dumps(obj))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_nonfinite_epsilon_named(self, frame22, epsilon):
        with pytest.raises(ArgumentError, match="'epsilon'") as info:
            DirectionFrame(2, 2, frame22.bases, epsilon, validate=False)
        assert info.value.name == "epsilon"

    def test_from_json_with_nan_epsilon_names_it(self, frame22):
        text = frame22.to_json().replace(f'"epsilon": {frame22.epsilon!r}', '"epsilon": NaN')
        with pytest.raises(ArgumentError, match="'epsilon'") as info:
            DirectionFrame.from_json(text)
        assert info.value.name == "epsilon"

    @pytest.mark.parametrize("n,Q,K,name", [(2, 2, 0, "K"), (2, 2, -5, "K"), (1, 2, 0, "K"),
                                            (0, 2, "auto", "n"), (2, -1, "auto", "Q")])
    def test_size_below_one_named(self, n, Q, K, name):
        with pytest.raises(ArgumentError) as info:
            build_frame(n, Q, K)
        assert info.value.name == name

    def test_skewed_basis_named(self):
        # only basis 3 of 5 is off, by far more than 1e-10: the message names it
        frame = build_frame(3, 2, K=5, seed=1)
        bases = frame.bases.copy()
        bases[3, 1] += 1e-6 * bases[3, 0]
        DirectionFrame(3, 2, frame.bases, frame.epsilon)
        with pytest.raises(ArgumentError, match="^basis 3 in field 'bases' is not "
                                                "orthonormal to 1e-10$") as info:
            DirectionFrame(3, 2, bases, frame.epsilon)
        assert info.value.name == "bases"

    def test_separation_measured_once(self, monkeypatch):
        # build_frame keeps the epsilon it measured instead of measuring it
        # again, and each doubling of K scores only its new directions
        scored = []
        real = embed._draw_separation
        monkeypatch.setattr(embed, "_draw_separation",
                            lambda dirs, *args: scored.append(len(dirs)) or real(dirs, *args))
        frame = build_frame(3, 2, K=6, seed=7)
        assert scored == [6]
        assert frame.epsilon == pytest.approx(real(frame.bases[:, 0, :], 2).min(), abs=1e-12)
        scored.clear()
        frame = build_frame(3, 4, seed=7)  # K = 6, 12, 24
        assert scored == [6, 6, 12] and frame.K == 24
        assert frame.epsilon == pytest.approx(real(frame.bases[:, 0, :], 4).min(), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    def test_matches_the_per_count_reference(self, n, Q):
        # the K loop that packed, measured and completed every count afresh
        for K in ("auto", 1, 2 * n + 1, 16):
            want = build_frame_reference(n, Q, K, seed=n + Q)
            if want is None:
                with pytest.raises(FrameConstructionError):
                    build_frame(n, Q, K, seed=n + Q)
                continue
            frame = build_frame(n, Q, K, seed=n + Q)
            assert frame.epsilon == want[1]
            assert np.array_equal(frame.bases, want[0])

    @pytest.mark.parametrize("n,Q,K,floor", [(3, 14, 7, 0.05), (2, 17, "auto", 0.005),
                                             (3, 14, "auto", 0.01)])
    def test_draws_past_2_mb_match_the_per_count_reference(self, n, Q, K, floor):
        # 500 * Q * Q * n numbers pass 2 MB here, so build_frame draws them
        # afresh, a chunk at a time, for each doubling of K (to K = 16 and 48)
        assert 500 * Q * Q * n > 1 << 18
        bases, epsilon = build_frame_reference(n, Q, K, seed=5, eps_floor=floor)
        frame = build_frame(n, Q, K, seed=5, eps_floor=floor)
        assert frame.epsilon == epsilon and np.array_equal(frame.bases, bases)

    def test_measured_separation_reproducible(self, frame22):
        a = measured_separation(frame22.bases[:, 0, :], frame22.Q)
        b = measured_separation(frame22.bases[:, 0, :], frame22.Q)
        assert a == b == frame22.epsilon


class TestXi:
    def test_norm_identity_spec(self):
        fr = build_frame(2, 1, seed=0)
        assert np.linalg.norm(
            xi(QTuple([[3, 4]]), fr).coords
        ) == pytest.approx(5.0, abs=1e-12)

    def test_zero(self, frame22):
        assert np.allclose(xi(QTuple([[0, 0], [0, 0]]), frame22).coords, 0.0)

    def test_norm_identity_random(self, frame23):
        rng = np.random.default_rng(6)
        zero = QTuple(np.zeros((3, 2)))
        for _ in range(200):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            assert abs(
                np.linalg.norm(xi(v, frame23).coords) - dist(v, zero)[0]
            ) <= 1e-12

    def test_upper_bound_and_alpha(self, frame23):
        rng = np.random.default_rng(7)
        alpha = math.inf
        for _ in range(300):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            w = QTuple(rng.uniform(-1, 1, (3, 2)))
            g2 = dist(v, w)[0]
            dxi = np.linalg.norm(xi(v, frame23).coords - xi(w, frame23).coords)
            assert dxi <= g2 + 1e-9
            if g2 > 0:
                alpha = min(alpha, dxi / g2)
        assert alpha > 0

    def test_local_isometry(self, frame23):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            r = xi_isometry_radius(v, frame23)
            delta = rng.standard_normal((3, 2))
            delta *= min(r, 1.0) * 0.9 / np.linalg.norm(delta)
            w = QTuple(v.points + delta)
            g2 = dist(v, w)[0]
            dxi = np.linalg.norm(xi(v, frame23).coords - xi(w, frame23).coords)
            assert dxi == pytest.approx(g2, abs=1e-9)

    def test_dimension_mismatch(self, frame22):
        with pytest.raises(ValueError):
            xi(QTuple([[1, 2, 3]]), frame22)

    def test_remark_pair_separated(self, frame22):
        v = QTuple([[-1, 1], [1, 0]])
        w = QTuple([[-1, 0], [1, 1]])
        dxi = np.linalg.norm(xi(v, frame22).coords - xi(w, frame22).coords)
        g2 = dist(v, w)[0]
        assert dxi > 0
        # separation at least the frame's empirical lower constant is not
        # asserted (alpha is reported, not certified); positivity is
        assert dxi / g2 > 1e-6


class TestIsometryRadius:
    def test_coincident(self, frame22):
        assert xi_isometry_radius(QTuple([[0, 0], [0, 0]]), frame22) == math.inf

    def test_1d(self):
        fr = build_frame(1, 2)
        assert xi_isometry_radius(QTuple([[0], [10]]), fr) == 5.0

    def test_direct_evaluation(self, frame22):
        v = QTuple([[0, 0], [1, 0]])
        expected = math.inf
        for k in range(frame22.K):
            for j in range(2):
                gaps = frame22.bases[k, j] @ v.points.T
                u = np.unique(gaps)
                if u.size > 1:
                    expected = min(expected, float(np.diff(u).min()))
        assert xi_isometry_radius(v, frame22) == expected / 2


def _tuple_stack(rng, Q, n, E=60):
    """Random tuples at three scales, with repeated and fully coincident points."""
    X = rng.uniform(-1, 1, (E, Q, n)) * rng.choice([1e-3, 1.0, 1e3], (E, 1, 1))
    X[:10] = X[:10, :1]  # one point Q times: every projection collapses
    X[10:20, Q // 2:] = X[10:20, :1]  # a repeated point beside distinct ones
    X[20:25] = 0.0
    X[25:30] = np.round(X[25:30])  # exact ties between different points' projections
    return X


class TestStackedAgainstPerTuple:
    """The stacked embedding paths hold the per-tuple code they replaced bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    def test_xi_and_radius(self, n, Q):
        fr = build_frame(n, Q, seed=7)
        X = _tuple_stack(np.random.default_rng(10 * Q + n), Q, n)
        Z = xi_many(X, fr)
        R = xi_isometry_radius_many(X, fr)
        assert Z.shape == (X.shape[0], fr.ambient_length) and R.shape == (X.shape[0],)
        for e in range(X.shape[0]):
            v = QTuple(X[e])
            ref = xi_reference(v, fr)
            assert np.array_equal(Z[e], ref)
            assert np.array_equal(xi(v, fr).coords, ref)
            r = xi_isometry_radius_reference(v, fr)
            assert R[e] == r and xi_isometry_radius(v, fr) == r
        assert np.all(R[:10] == math.inf)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    def test_measured_separation(self, n, Q):
        rng = np.random.default_rng(100 + 10 * Q + n)
        # K = 512 spreads the draws over many score chunks, the last one partial
        for K in (1, 2 * n, 512):
            d = rng.standard_normal((K, n))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            assert measured_separation(d, Q) == measured_separation_reference(d, Q)

    def test_stack_shape_checked(self, frame22):
        with pytest.raises(ValueError):
            xi_many(np.zeros((4, 2, 3)), frame22)
        with pytest.raises(ValueError):
            xi_many(np.zeros((2, 2)), frame22)
        # the frame certifies its separation at its own Q only
        with pytest.raises(ValueError, match="^tuple has Q=3, frame has Q=2$"):
            xi(QTuple(np.zeros((3, 2))), frame22)
        with pytest.raises(ValueError, match="^tuple has Q=1, frame has Q=2$"):
            xi_isometry_radius_many(np.zeros((4, 1, 2)), frame22)
        assert xi_many(np.zeros((0, 2, 2)), frame22).shape == (0, frame22.ambient_length)
        assert xi_isometry_radius_many(np.zeros((0, 2, 2)), frame22).shape == (0,)


class TestDecode:
    def test_round_trip(self, frame23):
        rng = np.random.default_rng(9)
        for _ in range(25):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            w = decode(xi(v, frame23), frame23)
            assert dist(v, w)[0] <= 1e-6

    def test_zero_vector(self, frame22):
        w = decode(np.zeros(frame22.ambient_length), frame22)
        assert dist(w, QTuple([[0, 0], [0, 0]]))[0] <= 1e-9

    def test_noise_acceptance(self, frame23):
        rng = np.random.default_rng(10)
        for _ in range(15):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            z = xi(v, frame23).coords
            noise = rng.standard_normal(z.shape)
            r = xi_isometry_radius(v, frame23)
            noise *= 0.05 * min(r, 0.5) / np.linalg.norm(noise)
            zn = z + noise
            w = decode(zn, frame23)
            assert np.linalg.norm(xi(w, frame23).coords - zn) <= (
                np.linalg.norm(z - zn) + 1e-6
            )

    def test_hint_used(self, frame23):
        rng = np.random.default_rng(11)
        v = QTuple(rng.uniform(-1, 1, (3, 2)))
        w = decode(xi(v, frame23), frame23, hint=v)
        assert dist(v, w)[0] <= 1e-9

    def test_length_mismatch(self, frame22):
        with pytest.raises(ValueError):
            decode(np.zeros(frame22.ambient_length + 1), frame22)

    def test_round_trip_larger(self):
        fr = build_frame(3, 4, seed=2)
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = QTuple(rng.uniform(-1, 1, (4, 3)))
            w = decode(xi(v, fr), fr)
            assert dist(v, w)[0] <= 1e-6

    def test_matches_golden_file(self):
        assert "".join(decode_golden_lines()) == (DATA / "decode_golden.jsonl").read_text()

    def test_budget_exhaustion_carries_best(self, frame23):
        rng = np.random.default_rng(12)
        v = QTuple(rng.uniform(-1, 1, (3, 2)))
        z = xi(v, frame23).coords + 0.05 * rng.standard_normal(
            frame23.ambient_length
        )
        with pytest.raises(DecodeFailure) as exc:
            decode(z, frame23, search_budget=1)
        best = exc.value.best
        assert isinstance(best, QTuple)
        assert best.Q == 3 and best.n == 2


class TestWhitneyEta:
    def test_1d_example(self):
        eta = whitney_eta(QTuple([[1], [2]]))
        assert eta[(1,)] == pytest.approx(-3.0)
        assert eta[(2,)] == pytest.approx(2.0)

    def test_count(self):
        for n in (1, 2, 3):
            for Q in (1, 2, 3, 4):
                rng = np.random.default_rng(n * 10 + Q)
                v = QTuple(rng.uniform(-1, 1, (Q, n)))
                eta = whitney_eta(v)
                assert len(eta) == whitney_count(n, Q) == math.comb(Q + n, n) - 1

    def test_zero_tuple(self):
        eta = whitney_eta(QTuple([[0, 0], [0, 0], [0, 0]]))
        assert all(c == 0.0 for c in eta.values())

    def test_permutation_invariance_bit_identical(self):
        rng = np.random.default_rng(12)
        v = QTuple(rng.uniform(-1, 1, (4, 2)))
        shuffled = QTuple(v.points[[2, 0, 3, 1]])
        a = whitney_eta(v)
        b = whitney_eta(shuffled)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key]  # exact, both run on the canonical form

    def test_n2_q2_matches_hand_expansion(self):
        # (x - (u1 a1 + u2 a2)) (x - (u1 b1 + u2 b2))
        a, b = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        eta = whitney_eta(QTuple([a, b]))
        assert eta[(1, 0)] == pytest.approx(-(a[0] + b[0]))
        assert eta[(0, 1)] == pytest.approx(-(a[1] + b[1]))
        assert eta[(2, 0)] == pytest.approx(a[0] * b[0])
        assert eta[(0, 2)] == pytest.approx(a[1] * b[1])
        assert eta[(1, 1)] == pytest.approx(a[0] * b[1] + a[1] * b[0])

    def test_complex_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            eta = whitney_eta(v, complex_mul=True)
            coeffs = [eta[(i,)] for i in range(1, 4)]
            w = whitney_eta_inverse_1d(coeffs, as_complex=True)
            assert dist(v, w)[0] <= 1e-6

    def test_inverse_1d_example(self):
        w = whitney_eta_inverse_1d([-3, 2])
        assert w == QTuple([[1.0], [2.0]]) or dist(w, QTuple([[1.0], [2.0]]))[0] < 1e-9

    def test_inverse_zero(self):
        w = whitney_eta_inverse_1d([0.0, 0.0, 0.0])
        assert np.allclose(w.points, 0.0)

    def test_clustered_roots_conditioning(self):
        # nearly coincident roots: round trip is conditioning-limited
        roots = np.array([[1.0, 0.0], [1.0 + 1e-4, 0.0], [1.0, 1e-4], [-2.0, 0.0]])
        v = QTuple(roots)
        eta = whitney_eta(v, complex_mul=True)
        coeffs = [eta[(i,)] for i in range(1, 5)]
        w = whitney_eta_inverse_1d(coeffs, as_complex=True)
        assert dist(v, w)[0] <= 1e-4

    def test_separated_roots_round_trip(self):
        rng = np.random.default_rng(14)
        done = 0
        while done < 30:
            pts = rng.uniform(-1, 1, (3, 2))
            gaps = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            if gaps[np.triu_indices(3, 1)].min() < 0.1:
                continue
            done += 1
            v = QTuple(pts)
            eta = whitney_eta(v, complex_mul=True)
            w = whitney_eta_inverse_1d([eta[(i,)] for i in range(1, 4)],
                                       as_complex=True)
            assert dist(v, w)[0] <= 1e-6


class TestZeta:
    def test_identical(self):
        v = QTuple([[1], [2]])
        lower, upper = zeta_dual_gap(v, v)
        assert lower == 0.0
        assert upper == 0.0

    def test_q1_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            v = QTuple(rng.uniform(-1, 1, (1, 3)))
            w = QTuple(rng.uniform(-1, 1, (1, 3)))
            lower, upper = zeta_dual_gap(v, w)
            assert upper == pytest.approx(dist(v, w, MetricKind.G1)[0], abs=1e-12)
            assert lower == pytest.approx(upper, abs=1e-12)

    def test_bracket_and_ratio(self):
        rng = np.random.default_rng(16)
        ratios = []
        for _ in range(100):
            v = QTuple(rng.uniform(-1, 1, (3, 2)))
            w = QTuple(rng.uniform(-1, 1, (3, 2)))
            lower, upper = zeta_dual_gap(v, w, dictionary_size=64, seed=1)
            assert lower <= upper + 1e-12
            if upper > 1e-12:
                ratios.append(lower / upper)
        assert min(ratios) > 0

    def test_seed_reproducible(self):
        v = QTuple([[0.0, 0.0], [1.0, 0.5], [0.2, -0.3]])
        w = QTuple([[0.4, 0.1], [-1.0, 0.5], [0.0, 0.9]])
        assert zeta_dual_gap(v, w, seed=5) == zeta_dual_gap(v, w, seed=5)
