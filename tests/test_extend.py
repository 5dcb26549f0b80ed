import math

import numpy as np
import pytest

from qvalued import ArgumentError
from qvalued.extend import (
    BoundarySample,
    ConeExtension,
    WhitneyExtension,
    cone_extend,
    extend_to_plane,
)
from qvalued.grids import OUTSIDE, disk_mask, empty_grid
from qvalued.qspace import MetricKind, QTuple, dist

from oracles import extend_to_plane_reference


def circle_samples(values_fn, count, R=1.0, Q=1, n=1):
    pts = []
    for t in np.linspace(0, 2 * math.pi, count, endpoint=False):
        loc = R * np.array([math.cos(t), math.sin(t)])
        pts.append((loc, QTuple(values_fn(t))))
    return BoundarySample(points=pts, R=R, m=2)


class TestBoundarySample:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundarySample(points=[], R=1.0, m=2)
        with pytest.raises(ValueError):
            BoundarySample(
                points=[(np.array([1.0, 0.0]), QTuple([[1]])),
                        (np.array([0.0, 1.0]), QTuple([[1], [2]]))],
                R=1.0, m=2,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_location_names_points(self, bad):
        # a NaN location passed the cone's sphere test and won every
        # nearest-sample search, answering 5.0 at the sample worth 2.0
        pts = [([bad, 0.0], [[5.0]]), ([1.0, 0.0], [[2.0]]), ([-1.0, 0.0], [[3.0]])]
        with pytest.raises(ArgumentError, match="locations in field 'points' must be finite") \
                as info:
            ConeExtension(BoundarySample(pts, R=1.0, m=2))
        assert info.value.name == "points"

    def test_off_sphere_rejected_by_cone(self):
        s = BoundarySample(points=[([0.5, 0.0], QTuple([[1.0]]))], R=1.0, m=2)
        with pytest.raises(ValueError):
            cone_extend(s, [0.0, 0.0])

    @pytest.mark.parametrize("R", [1e-13, 1e-6, 1.0, 1e6])
    def test_sphere_check_does_not_depend_on_scale(self, R):
        # off the sphere by 3e-10 R is on it to 1e-9 R, by 3e-9 R or a whole R is not
        for off, accepted in ((3e-10, True), (3e-9, False), (-0.5, False)):
            s = BoundarySample(points=[([R, 0.0], QTuple([[1.0]])),
                                       ([0.0, R * (1 + off)], QTuple([[2.0]]))], R=R, m=2)
            if accepted:
                ConeExtension(s)
            else:
                with pytest.raises(ValueError, match="sphere"):
                    ConeExtension(s)


class TestConeExtend:
    def test_sample_reproduction(self):
        s = circle_samples(lambda t: [[math.cos(t)]], 16)
        for loc, val in s.points:
            out = cone_extend(s, loc)
            assert np.array_equal(out.points, val.points)

    @pytest.mark.parametrize("query", [[math.nan, 0.2], [0.1, math.inf]])
    def test_nonfinite_query_rejected(self, query):
        s = circle_samples(lambda t: [[math.cos(t)]], 8)
        with pytest.raises(ValueError, match=r"query \[.*\] is not finite"):
            cone_extend(s, query)

    def test_one_plan_answers_every_query(self):
        s = circle_samples(lambda t: [[0.1 * math.cos(t)], [5.0 + 0.1 * math.sin(t)]], 12)
        cone = ConeExtension(s)
        for q in ([0.3, -0.2], [0.0, 0.0], [0.3, -0.2], [1.0, 0.0], [-0.5, 0.5]):
            assert np.array_equal(cone.evaluate(q).points, cone_extend(s, q).points)

    def test_q1_center_value(self):
        # two antipodal samples; the center takes the first sample's value
        s = BoundarySample(
            points=[(np.array([1.0, 0.0]), QTuple([[5.0]])),
                    (np.array([-1.0, 0.0]), QTuple([[9.0]]))],
            R=1.0, m=2,
        )
        assert cone_extend(s, [0.0, 0.0]).points[0, 0] == 5.0

    def test_q1_radial_formula(self):
        s = BoundarySample(
            points=[(np.array([1.0, 0.0]), QTuple([[2.0]])),
                    (np.array([-1.0, 0.0]), QTuple([[6.0]]))],
            R=1.0, m=2,
        )
        # halfway toward the second sample: (r/R) f(-e1) + (1-r/R) f(x0)
        out = cone_extend(s, [-0.5, 0.0])
        assert out.points[0, 0] == pytest.approx(0.5 * 6.0 + 0.5 * 2.0)

    def test_split_preserves_clusters(self):
        # two clusters far apart relative to the boundary oscillation
        def vals(t):
            return [[0.02 * math.cos(t)], [10.0 + 0.01 * math.sin(t)]]

        s = circle_samples(vals, 12, Q=2)
        out = cone_extend(s, [0.3, 0.2])
        pts = np.sort(out.points.ravel())
        assert pts[0] < 1.0
        assert pts[1] > 9.0

    def test_sup_bound(self):
        # max over queries of GINF(ext, probe) <= (6Q+2) max over samples
        rng = np.random.default_rng(0)
        for Q in (1, 2, 3):
            def vals(t, Q=Q):
                return [[math.cos((k + 1) * t), math.sin(t - k)] for k in range(Q)]

            s = circle_samples(vals, 16)
            probe = QTuple(rng.uniform(-1, 1, (Q, 2)))
            bound = max(
                dist(val, probe, MetricKind.GINF)[0] for _, val in s.points
            )
            for _ in range(40):
                r = math.sqrt(rng.uniform(0, 1))
                t = rng.uniform(0, 2 * math.pi)
                q = r * np.array([math.cos(t), math.sin(t)])
                val = cone_extend(s, q)
                assert dist(val, probe, MetricKind.GINF)[0] <= (6 * Q + 2) * bound + 1e-9

    def test_homogeneity_exact(self):
        def vals(t):
            return [[math.cos(t), math.sin(2 * t)], [0.5 * t, -1.0]]

        s = circle_samples(vals, 10)
        scaled = BoundarySample(
            points=[(loc, QTuple(0.25 * val.points)) for loc, val in s.points],
            R=1.0, m=2,
        )
        for q in ([0.2, 0.1], [0.0, 0.0], [-0.6, 0.3], [1.0, 0.0]):
            a = cone_extend(s, q)
            b = cone_extend(scaled, q)
            assert np.array_equal(0.25 * a.canonical().points, b.canonical().points)

    def test_measured_lipschitz_finite(self):
        # split-triggering Q=2 data; record the measured constant
        def vals(t):
            return [[0.1 * math.cos(t)], [5.0 + 0.1 * math.sin(t)]]

        s = circle_samples(vals, 24, Q=2)
        lip_boundary = 0.0
        locs = s.locations
        for i in range(len(s.points)):
            j = (i + 1) % len(s.points)
            gap = np.linalg.norm(locs[i] - locs[j])
            lip_boundary = max(
                lip_boundary,
                dist(s.points[i][1], s.points[j][1], MetricKind.GINF)[0] / gap,
            )
        rng = np.random.default_rng(1)
        worst = 0.0
        queries = [
            math.sqrt(rng.uniform(0, 1)) * np.array(
                [math.cos(a), math.sin(a)]
            )
            for a in rng.uniform(0, 2 * math.pi, 60)
        ]
        values = [cone_extend(s, q) for q in queries]
        for i in range(len(queries)):
            for j in range(i + 1, len(queries)):
                gap = np.linalg.norm(queries[i] - queries[j])
                if gap < 1e-3:
                    continue
                d = dist(values[i], values[j], MetricKind.GINF)[0]
                worst = max(worst, d / gap)
        assert math.isfinite(worst)
        assert worst <= 50 * lip_boundary  # recorded envelope, Q=2

    def test_values_do_not_depend_on_the_scale(self):
        # a sample hit is a query within 1e-12 R of a sample, relative to R
        # alone, so a small ball answers as the unit ball does
        rng = np.random.default_rng(4)
        angles = rng.uniform(0, 2 * math.pi, 5)
        vals = rng.uniform(-1, 1, (5, 2, 2))
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        queries = np.vstack([rng.uniform(-0.6, 0.6, (6, 2)), dirs[:2]])
        out = []
        for scale in (1.0, 1e-6, 1e-13):
            ext = ConeExtension(BoundarySample(list(zip(scale * dirs, vals)), R=scale, m=2))
            out.append(np.array([ext.evaluate(scale * q).points for q in queries]))
        for got in out[1:]:
            np.testing.assert_allclose(got, out[0], rtol=0, atol=1e-12)
        assert np.array_equal(out[2][-2:], vals[:2])


class TestWhitneyExtend:
    def test_sample_reproduction_m1(self):
        A = [(np.array([0.0]), QTuple([[0.0]])), (np.array([1.0]), QTuple([[1.0]]))]
        ext = WhitneyExtension(A, [[0.0, 1.0]], 8)
        assert ext.evaluate([0.0]).points[0, 0] == 0.0
        assert ext.evaluate([1.0]).points[0, 0] == 1.0

    def test_single_query(self):
        A = [([0.0], QTuple([[0.0]])), ([1.0], QTuple([[1.0]]))]
        out = WhitneyExtension(A, [[0.0, 1.0]], 6).evaluate([0.25])
        assert out.Q == 1

    def test_m1_lipschitz_envelope(self):
        # Lip f = 1 between the two samples; the dyadic construction with
        # halved cells and the cone step measures at most 16 * Lip f here
        # (the nearest-sample jump happens across a cell of size gap/8 and
        # the radial formula doubles the slope on one half)
        A = [(np.array([0.0]), QTuple([[0.0]])), (np.array([1.0]), QTuple([[1.0]]))]
        ext = WhitneyExtension(A, [[0.0, 1.0]], 10)
        xs = np.linspace(0.0, 1.0, 401)
        ys = [ext.evaluate([x]).points[0, 0] for x in xs]
        lip = max(
            abs(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
        )
        assert math.isfinite(lip)
        assert lip <= 16.0 + 1e-6

    def test_m2_single_sample_constant(self):
        ext = WhitneyExtension(
            [(np.array([0.5, 0.5]), QTuple([[2.0, -1.0]]))], [[0, 1], [0, 1]], 5
        )
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.uniform(0, 1, 2)
            assert np.array_equal(ext.evaluate(q).points, [[2.0, -1.0]])

    def test_m2_sample_reproduction(self):
        rng = np.random.default_rng(3)
        A = [
            (rng.uniform(0, 1, 2), QTuple(rng.uniform(-1, 1, (2, 2))))
            for _ in range(6)
        ]
        ext = WhitneyExtension(A, [[0, 1], [0, 1]], 7)
        for loc, val in A:
            assert np.array_equal(ext.evaluate(loc).points, val.points)

    def test_m2_values_bounded_and_finite(self):
        rng = np.random.default_rng(4)
        A = [
            (rng.uniform(0, 1, 2), QTuple(rng.uniform(-1, 1, (2, 1))))
            for _ in range(5)
        ]
        ext = WhitneyExtension(A, [[0, 1], [0, 1]], 6)
        values = np.array([
            ext.evaluate(rng.uniform(0, 1, 2)).points for _ in range(50)
        ])
        assert np.all(np.isfinite(values))
        # cone combinations stay within the affine hull scale of the data
        assert np.abs(values).max() <= 10.0

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(5)
        A = [
            (rng.uniform(0, 1, 2), rng.uniform(-1, 1, (2, 2)))
            for _ in range(4)
        ]
        t = 0.125  # power of two: scaling is bit-exact
        ext = WhitneyExtension([(x, QTuple(v)) for x, v in A], [[0, 1], [0, 1]], 6)
        ext_t = WhitneyExtension([(x, QTuple(t * v)) for x, v in A], [[0, 1], [0, 1]], 6)
        for _ in range(25):
            q = rng.uniform(0, 1, 2)
            a = ext.evaluate(q).canonical().points
            b = ext_t.evaluate(q).canonical().points
            assert np.array_equal(t * a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_locations(self, bad):
        with pytest.raises(ArgumentError, match="locations in field 'data' must be finite") \
                as info:
            WhitneyExtension([([0.5, bad], QTuple([[1.0]]))], [[0, 1], [0, 1]], 4)
        assert info.value.name == "data"

    def test_rejects_m3(self):
        with pytest.raises(ValueError):
            WhitneyExtension(
                [(np.zeros(3), QTuple([[1.0]]))], [[0, 1]] * 3, 4
            )

    def test_depth_cap(self):
        A = [([0.5], QTuple([[1.0]]))]
        with pytest.raises(ValueError):
            WhitneyExtension(A, [[0.0, 1.0]], 25)
        with pytest.raises(ValueError):
            WhitneyExtension(A, [[0.0, 1.0]], -1)

    def test_rejects_queries_outside_the_box(self):
        A = [([0.2, 0.3], QTuple([[0.0]])), ([0.7, 0.4], QTuple([[1.0]]))]
        ext = WhitneyExtension(A, [[0, 1], [0, 1]], 5)
        for q in ([1.5, 0.5], [-3.0, 0.2]):
            with pytest.raises(ValueError, match="outside the domain box"):
                ext.evaluate(q)
        assert ext.evaluate([1.0, 0.0]).Q == 1  # the box is closed
        # inside the enclosing square [0, 1]^2 but above the box
        ext = WhitneyExtension(A, [[0, 1], [0, 0.5]], 5)
        with pytest.raises(ValueError, match="outside the domain box"):
            ext.evaluate([0.5, 0.9])

    def test_rejects_reversed_box(self):
        A = [([0.2, 0.3], QTuple([[0.0]]))]
        with pytest.raises(ValueError, match="box"):
            WhitneyExtension(A, [[1, 0], [0, 1]], 4)

    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError):
            WhitneyExtension(
                [([0.5], QTuple([[1.0]])), ([0.5], QTuple([[2.0]]))],
                [[0.0, 1.0]], 4,
            )

    def test_values_do_not_depend_on_the_scale(self):
        # a sample hit is a query within 1e-12 S of a sample, relative to the
        # box extent S alone, so a small box answers as the unit box does
        rng = np.random.default_rng(4)
        locs = rng.uniform(0, 1, (6, 2))
        vals = rng.uniform(-1, 1, (6, 2, 1))
        queries = np.vstack([rng.uniform(0, 1, (8, 2)), locs[:2]])
        out = []
        for scale in (1.0, 1e-6, 1e-13):
            ext = WhitneyExtension(list(zip(scale * locs, vals)), [[0, scale], [0, scale]], 8)
            out.append(ext.evaluate_many(scale * queries))
        for got in out[1:]:
            np.testing.assert_allclose(got, out[0], rtol=0, atol=1e-12)
        assert np.array_equal(out[2][-2:], vals[:2])


@pytest.fixture(scope="module")
def disk_function():
    N = 17
    g = empty_grid(2, 2, 2, N, disk_mask(N))
    inside = g.mask != OUTSIDE
    coords = g.all_coords()
    for idx in np.ndindex(*g.shape):
        if inside[idx]:
            x = coords[idx]
            g.values[idx] = [
                [x[0] + 1.0, x[1]],
                [x[0] - 1.0, -x[1]],
            ]
    return g


class TestExtendToPlane:
    def test_output_past_the_bound_names_shape(self):
        # 2**13 nodes in, 4**13 out: refused before any output array is made
        with pytest.raises(ArgumentError, match="over 16777216 numbers") as info:
            extend_to_plane(empty_grid(13, 1, 2, 2))
        assert info.value.name == "shape"

    def test_far_nodes_zero(self, disk_function):
        out = extend_to_plane(disk_function)
        coords = out.all_coords()
        r = np.linalg.norm(coords, axis=-1)
        far = r >= 1.5
        assert np.all(out.values[far] == 0.0)

    def test_inside_unchanged(self, disk_function):
        g = disk_function
        out = extend_to_plane(g)
        pad = (out.shape[0] - g.shape[0]) // 2
        inside = g.mask != OUTSIDE
        for idx in np.ndindex(*g.shape):
            if inside[idx]:
                out_idx = tuple(i + pad for i in idx)
                assert np.array_equal(out.values[out_idx], g.values[idx])

    def test_constant_scaling(self):
        N = 17
        g = empty_grid(2, 1, 2, N, disk_mask(N))
        g.values[g.mask != OUTSIDE] = [[3.0], [3.0]]
        out = extend_to_plane(g)
        coords = out.all_coords()
        r = np.linalg.norm(coords, axis=-1)
        idx = np.unravel_index(np.argmin(np.abs(r - 1.25)), r.shape)
        rr = r[idx]
        factor = 2.0 * (2.0 - rr) - 1.0
        assert out.values[idx] == pytest.approx(3.0 * factor, abs=1e-12)

    def test_homogeneity_exact(self, disk_function):
        g = disk_function
        scaled = g.copy()
        inside = g.mask != OUTSIDE
        scaled.values[inside] = 0.5 * g.values[inside]
        a = extend_to_plane(g)
        b = extend_to_plane(scaled)
        keep = a.mask != OUTSIDE
        assert np.array_equal(0.5 * a.values[keep], b.values[keep])

    def test_covers_plane_box(self, disk_function):
        out = extend_to_plane(disk_function)
        half_extent = (out.shape[0] - 1) / 2 * out.h
        assert half_extent >= 2.0 - 1e-12

    @pytest.mark.parametrize("m,N", [(1, 9), (1, 10), (2, 9), (2, 12)])
    def test_matches_node_by_node_reference(self, m, N):
        rng = np.random.default_rng(N + m)
        if m == 2:
            g = empty_grid(2, 2, 3, N, disk_mask(N))
        else:
            g = empty_grid(1, 2, 3, N)
        inside = g.mask != OUTSIDE
        # small integers: many reflected lattice points tie for the nearest node
        g.values[inside] = rng.integers(-2, 3, (int(inside.sum()), 3, 2))
        out = extend_to_plane(g)
        ref = extend_to_plane_reference(g)
        assert out.shape == ref.shape and out.h == ref.h
        assert np.array_equal(out.mask, ref.mask)
        assert np.array_equal(out.values, ref.values)


def far_branch_values(kind, scale):
    """The values at 20 queries of an extension of Q = 3, n = 2 values in
    [-1, 1] with one branch 100 off the others (seed 4), times ``scale``: of 12
    Whitney samples in [0, 1]^2, or of 10 cone samples on the unit circle."""
    rng = np.random.default_rng(4)
    if kind == "whitney":
        locs, queries = rng.uniform(0, 1, (12, 2)), rng.uniform(0, 1, (20, 2))
    else:
        t = np.linspace(0, 2 * math.pi, 10, endpoint=False)
        locs, queries = np.stack([np.cos(t), np.sin(t)], 1), rng.uniform(-0.7, 0.7, (20, 2))
    vals = rng.uniform(-1, 1, (len(locs), 3, 2))
    vals[:, 0] += 100
    samples = list(zip(locs, scale * vals))
    if kind == "whitney":
        return WhitneyExtension(samples, [[0, 1], [0, 1]], 6).evaluate_many(queries)
    return ConeExtension(BoundarySample(samples, R=1.0, m=2)).evaluate_many(queries)


class TestScaleOverflow:
    """Past the float64 range of the plans' squared distances the split test
    compared infinities and never fired, and the values came out wrong."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["whitney", "cone"])
    def test_exact_at_2_500_named_at_2_700(self, kind):
        base = far_branch_values(kind, 1.0)
        assert np.array_equal(far_branch_values(kind, 2.0**500), 2.0**500 * base)
        with pytest.raises(ArgumentError, match="overflow float64") as info:
            far_branch_values(kind, 2.0**700)
        assert info.value.name == "value"
