"""Lipschitz extension of Q-valued boundary data.

Two constructions: a cone extension on balls, which interpolates radially
after splitting off clusters of points that sit further apart than the
boundary data oscillates, and a dyadic-cube extension from an arbitrary
closed sample set, which assigns nearest-sample values on cube corners and
propagates them across edges and faces with the cone construction.  A
third operator reflects a unit-ball grid function onto the surrounding
plane with linearly decaying branches, vanishing beyond radius 3/2.

The cone construction runs in two steps.  The plan (``_cone_plan``)
depends only on the witnessed boundary tuples: it measures the
oscillation, runs the split test and the clustering, and recurses into
each cluster, with one GINF call of ``qspace.match_many`` scoring every
sample pair and one grouping every sample per level.  The apply step
(``_cone_apply``) is all a query adds: the radius, the boundary value
above the query put into the plan's row order, and the radial
interpolation toward the center value.  ``ConeExtension`` plans once per
boundary sample; ``WhitneyExtension`` plans each minimal edge and each
leaf face on first use.

All formulas are positively homogeneous in the values, so scaling the data
scales the extensions exactly.

Extension structures are immutable once built, apart from the Whitney
plan caches, which are filled lazily and idempotently: a plan depends only
on its edge or face, so two queries that build it at once store equal
values.  Queries are pure and safe to issue concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import BOUNDARY, GridFunction, INTERIOR, OUTSIDE
from .qspace import MetricKind, QTuple, match_many, vector_norms


@dataclass
class BoundarySample:
    """Values of a Q-valued map at sampled boundary locations.

    ``points`` is a list of ``(location, value)`` pairs; locations are
    m-vectors, nominally on the sphere of radius R (the cone extension
    enforces this, other producers such as grid traces may sit slightly
    off it).
    """

    points: list
    R: float
    m: int

    def __post_init__(self):
        if not self.points:
            raise ValueError("boundary sample needs at least one point")
        locs = []
        vals = []
        Q = n = None
        for loc, value in self.points:
            loc = np.asarray(loc, dtype=float).reshape(-1)
            if loc.size != self.m:
                raise ValueError(f"location has dimension {loc.size}, expected m={self.m}")
            if not isinstance(value, QTuple):
                value = QTuple(value)
            if Q is None:
                Q, n = value.Q, value.n
            elif (value.Q, value.n) != (Q, n):
                raise ValueError("all boundary values must share Q and n")
            locs.append(loc)
            vals.append(value)
        self.points = list(zip(locs, vals))
        self.Q, self.n = Q, n

    @property
    def locations(self) -> np.ndarray:
        return np.array([loc for loc, _ in self.points])

    @property
    def value_array(self) -> np.ndarray:
        return np.array([val.points for _, val in self.points])


def _vec_norm(x: np.ndarray, kind: str) -> float:
    if kind == "linf":
        return float(np.abs(x).max())
    return float(np.linalg.norm(x))


@functools.lru_cache(maxsize=32)
def _pairs(L: int):
    """Index arrays ``(i, j)`` of every pair i < j of L samples."""
    first, second = np.triu_indices(L, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _oscillation(vals: np.ndarray) -> float:
    """Largest GINF distance between two of the tuples ``vals``, 0 for one tuple.

    The pairs go to the kernel 65,536 at a time; the running maximum does
    not depend on the order, so chunking leaves the value unchanged.
    """
    first, second = _pairs(vals.shape[0])
    osc = 0.0
    rows = 1 << 16
    for lo in range(0, first.size, rows):
        g, _ = match_many(vals[first[lo:lo + rows]], vals[second[lo:lo + rows]],
                          MetricKind.GINF)
        osc = max(osc, float(g.max()))
    return osc


def _split_clusters(points: np.ndarray, threshold: float):
    """Single-linkage clusters: points closer than the threshold are joined.

    Returns the number of clusters and the cluster of each point; clusters
    are numbered in the order of their first point.
    """
    close = vector_norms(points[:, None, :] - points[None, :, :]) <= threshold
    # each point takes the lowest index it reaches: its cluster's first point
    lowest = np.arange(points.shape[0])
    while True:
        step = np.where(close, lowest, lowest.size).min(axis=1)
        if np.array_equal(step, lowest):
            break
        lowest = step
    first, cluster_of = np.unique(lowest, return_inverse=True)
    return first.size, cluster_of


class _ConePlan(NamedTuple):
    """The query-independent part of a cone extension (see ``_cone_plan``)."""

    Y: np.ndarray
    sorter: tuple | None
    samples: np.ndarray


def _group(vals: np.ndarray, ref: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
    """Reorder the points of each tuple in the stack by the cluster of their
    G-inf match in ``ref``, keeping the order within a cluster."""
    _, perm = match_many(vals, ref[None], MetricKind.GINF)
    order = np.argsort(cluster_of[perm], axis=1, kind="stable")
    return vals[np.arange(len(vals))[:, None], order]


def _cone_plan(sample_vals: np.ndarray) -> _ConePlan:
    """Plan the recursive cone extension of the witnessed tuples ``sample_vals``.

    The oscillation and the split test are measured on the samples.  When
    some tuple holds two points farther apart than 3*Q times the
    oscillation, the points of every tuple are grouped by cluster, and each
    cluster is planned on its own; otherwise the plan is a leaf.  Returns:

    ``Y`` (Q, n)
        per output row, the first point of the first witnessed tuple of
        that row's cluster: the value at the center;
    ``sorter``
        ``None`` at a leaf, else ``(ref, cluster_of, ends, children)``: the
        split's reference tuple, the cluster of each of its points, the end
        row of each cluster and one sorter per cluster.  ``_sorted`` applies
        it to put any tuple into output-row order;
    ``samples`` (L, Q, n)
        the witnessed tuples, each in output-row order.
    """
    L, Qc, _ = sample_vals.shape
    osc = _oscillation(sample_vals)
    if Qc >= 2:
        gaps = np.linalg.norm(sample_vals[:, :, None, :] - sample_vals[:, None, :, :], axis=3)
        above = np.flatnonzero(gaps.reshape(L, -1).max(axis=1) > 3.0 * Qc * osc)
        if above.size:
            ref = sample_vals[above[0]]
            count, cluster_of = _split_clusters(ref, 3.0 * osc)
            ends = np.cumsum(np.bincount(cluster_of, minlength=count)).tolist()
            grouped = _group(sample_vals, ref, cluster_of)
            parts = [_cone_plan(grouped[:, lo:hi]) for lo, hi in zip([0] + ends, ends)]
            return _ConePlan(
                np.vstack([part.Y for part in parts]),
                (ref, cluster_of, ends, [part.sorter for part in parts]),
                np.concatenate([part.samples for part in parts], axis=1),
            )
    return _ConePlan(np.tile(sample_vals[0][0], (Qc, 1)), None, sample_vals)


def _sorted(sorter, value: np.ndarray) -> np.ndarray:
    """The points of the tuple ``value`` in the output-row order of a plan:
    one G-inf match per split node, as ``_cone_plan`` grouped the samples."""
    if sorter is None:
        return value
    ref, cluster_of, ends, children = sorter
    value = _group(value[None], ref, cluster_of)[0]
    return np.concatenate([_sorted(child, value[lo:hi])
                           for child, lo, hi in zip(children, [0] + ends, ends)])


def _cone_apply(plan: _ConePlan, R: float, x: np.ndarray, norm: str,
                boundary_fn) -> np.ndarray:
    """The planned cone extension over the ball of radius R centered at 0.

    Interpolates radially between the boundary value above ``x`` and the
    plan's center value ``Y``; ``boundary_fn(b)`` returns the boundary value
    at a point ``b`` of the sphere in the plan's output-row order.
    """
    r = _vec_norm(x, norm)
    if r <= 1e-15 * R:
        return plan.Y
    return (r / R) * boundary_fn(x * (R / r)) + ((R - r) / R) * plan.Y


class ConeExtension:
    """Cone extension of sphere data, planned once for any number of queries.

    Building it checks that the sample locations lie on the sphere and runs
    the oscillation, the split test and the clustering; ``evaluate`` is
    then arithmetic and one nearest-sample search per query.  Boundary
    values between samples are taken from the nearest sample (the geodesic
    and chordal nearest agree on a sphere).
    """

    def __init__(self, samples: BoundarySample):
        self.R = float(samples.R)
        self.m = samples.m
        self.locs = samples.locations
        radii = np.linalg.norm(self.locs, axis=1)
        if np.abs(radii - self.R).max() > 1e-9 * max(1.0, self.R):
            raise ValueError("sample locations must lie on the sphere of radius R to 1e-9")
        self._values = [val for _, val in samples.points]
        self._plan = _cone_plan(samples.value_array)

    def _boundary(self, b: np.ndarray) -> np.ndarray:
        # the boundary value is a sample, so the plan already holds it sorted
        return self._plan.samples[int(np.argmin(np.linalg.norm(self.locs - b, axis=1)))]

    def evaluate(self, query) -> QTuple:
        """Value at a point of the closed ball; a query on the boundary at a
        sample location returns that sample's value exactly."""
        query = np.asarray(query, dtype=float).reshape(-1)
        if query.size != self.m:
            raise ValueError(f"query has dimension {query.size}, expected m={self.m}")
        if not np.all(np.isfinite(query)):
            raise ValueError(f"query {query.tolist()} is not finite")
        if np.linalg.norm(query) > self.R * (1 + 1e-9):
            raise ValueError("query must lie in the closed ball of radius R")
        gaps = np.linalg.norm(self.locs - query, axis=1)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] <= 1e-12 * max(1.0, self.R):
            return self._values[nearest]
        return QTuple(_cone_apply(self._plan, self.R, query, "l2", self._boundary))


def cone_extend(samples: BoundarySample, query) -> QTuple:
    """One-shot cone extension query; see ConeExtension for batches."""
    return ConeExtension(samples).evaluate(query)


def _lines(fixed: np.ndarray, along: np.ndarray) -> dict:
    """Map each value of ``fixed`` to the sorted values of ``along`` that share it."""
    order = np.lexsort((along, fixed))
    keys, starts = np.unique(fixed[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(along[order], starts[1:])))


class WhitneyExtension:
    """Dyadic-cube extension of Q-valued data from a finite sample set.

    The domain box (minus the samples) splits into dyadic cells satisfying
    the usual size-versus-distance condition in the sup norm; corners take
    the nearest sample's value, edges and (in 2-D) faces fill in by the
    cone construction.  Cells that still touch the sample set at the depth
    cap evaluate pointwise by nearest sample.  Supports m in {1, 2}.

    The cone plan of each minimal edge (keyed by its two integer corner
    keys) and of each leaf face is built on the first query that needs it
    and cached on the instance.  An edge's boundary values are its two
    corner samples, which the plan holds already in row order, so a
    perimeter station costs only arithmetic; a face query adds one edge
    evaluation and one G-inf match per split level.

    Parameters
    ----------
    data : list of (location, QTuple)
        Sample locations (distinct) and their values.
    domain_box : array_like, shape (m, 2)
        Lower and upper bounds per axis, low <= high; cells tile the
        enclosing square, and queries must lie in the box.
    depth : int
        Dyadic subdivision cap.
    """

    def __init__(self, data, domain_box, depth: int):
        if not data:
            raise ValueError("sample set must be nonempty")
        locs = np.array([np.asarray(loc, dtype=float).reshape(-1) for loc, _ in data])
        self.m = locs.shape[1]
        if self.m not in (1, 2):
            raise ValueError(f"only m in {{1, 2}} is supported, got m={self.m}")
        vals = []
        Q = n = None
        for _, value in data:
            if not isinstance(value, QTuple):
                value = QTuple(value)
            if Q is None:
                Q, n = value.Q, value.n
            elif (value.Q, value.n) != (Q, n):
                raise ValueError("all sample values must share Q and n")
            vals.append(value.points)
        if np.unique(locs, axis=0).shape[0] != locs.shape[0]:
            raise ValueError("sample locations must be distinct")
        self.Q, self.n = Q, n
        self.locs = locs
        self.vals = np.array(vals)
        box = np.asarray(domain_box, dtype=float).reshape(self.m, 2)
        if np.any(box[:, 0] > box[:, 1]):
            raise ValueError(f"domain box {box.tolist()} has a low end above its high end")
        self.root_lo = box[:, 0].copy()
        self.box_hi = box[:, 1].copy()
        self.S = float((box[:, 1] - box[:, 0]).max())
        if self.S <= 0:
            raise ValueError("domain box must have positive extent")
        self.depth = int(depth)
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.depth > 24:
            raise ValueError(f"depth cap exceeded: {self.depth} > 24")

        self._leaves = {}
        delta = np.array(list(np.ndindex(*(2,) * self.m)), dtype=np.int64)
        cells = np.zeros((1, self.m), dtype=np.int64)
        corners = []
        for d in range(self.depth + 1):
            size = self.S / (1 << d)
            whitney = size < self._dist_inf_to_cells(self.root_lo + cells * size, size)
            self._leaves.update(((tuple(k), d), "w") for k in cells[whitney].tolist())
            side = 1 << (self.depth - d)
            corners.append(((cells[whitney] * side)[:, None, :] + delta * side).reshape(-1, self.m))
            cells = cells[~whitney]
            if d == self.depth:
                self._leaves.update(((tuple(k), d), "near") for k in cells.tolist())
            else:
                cells = (2 * cells[:, None, :] + delta).reshape(-1, self.m)

        corners = np.unique(np.concatenate(corners), axis=0)
        scale = self.S / (1 << self.depth)
        nearest = np.empty(len(corners), dtype=np.intp)
        for lo in range(0, len(corners), 512):
            nearest[lo:lo + 512] = self._nearest_samples(self.root_lo + corners[lo:lo + 512] * scale)
        self._corner_values = {tuple(c): self.vals[i]
                               for c, i in zip(corners.tolist(), nearest.tolist())}
        if self.m == 2:
            self._columns = _lines(corners[:, 0], corners[:, 1])
            self._rows = _lines(corners[:, 1], corners[:, 0])
        # cone plans, built on first use: (k0, k1) corner keys -> minimal
        # edge, (k, d) -> leaf face
        self._edges = {}
        self._faces = {}

    def _dist_inf_to_cells(self, lo: np.ndarray, size: float) -> np.ndarray:
        """Sup-norm distance from the sample set to each cell ``[lo, lo + size]``."""
        gap = np.empty(len(lo))
        for a in range(0, len(lo), 512):
            cell = lo[a:a + 512, None, :]
            below = np.maximum(cell - self.locs, 0.0)
            above = np.maximum(self.locs - (cell + size), 0.0)
            gap[a:a + 512] = np.maximum(below, above).max(axis=2).min(axis=1)
        return gap

    def _nearest_samples(self, x: np.ndarray) -> np.ndarray:
        """Index of the first sup-norm-nearest sample to each row of ``x``."""
        d = np.abs(self.locs[None, :, :] - x[:, None, :]).max(axis=2)
        return np.argmin(d, axis=1)

    def _nearest_sample_value(self, x: np.ndarray) -> np.ndarray:
        return self.vals[int(self._nearest_samples(x[None, :])[0])]

    def _locate(self, x: np.ndarray):
        """The leaf holding ``x``; every descent ends in one by the depth cap."""
        k = np.zeros(self.m, dtype=np.int64)
        d = 0
        while (tuple(k), d) not in self._leaves:
            lo = self.root_lo + k * (self.S / (1 << d))
            d += 1
            k = 2 * k + (x >= lo + self.S / (1 << d)).astype(np.int64)
        return k, d, self._leaves[(tuple(k), d)]

    def _edge(self, k0: tuple, k1: tuple):
        """Center, radius, ``c0 - center`` and cone plan of the minimal edge
        between the corners with integer keys ``k0`` and ``k1``; cached."""
        edge = self._edges.get((k0, k1))
        if edge is None:
            scale = self.S / (1 << self.depth)
            c0 = self.root_lo + np.array(k0) * scale
            c1 = self.root_lo + np.array(k1) * scale
            center = (c0 + c1) / 2.0
            R = float(np.linalg.norm(c1 - c0)) / 2.0
            vals = np.array([self._corner_value(k0, scale), self._corner_value(k1, scale)])
            edge = self._edges[(k0, k1)] = (center, R, c0 - center, _cone_plan(vals))
        return edge

    def _eval_edge(self, k0: tuple, k1: tuple, x: np.ndarray) -> np.ndarray:
        center, R, toward_k0, plan = self._edge(k0, k1)

        def ends(b):
            # an edge's boundary is its two ends, so the plan already holds
            # the value there in output-row order
            return plan.samples[0 if np.dot(b, toward_k0) > 0 else 1]

        return _cone_apply(plan, R, x - center, "l2", ends)

    def _subedge_breaks(self, fixed_axis: int, fixed_int: int, lo_int: int, hi_int: int):
        """Skeleton positions subdividing one side of a cell, endpoints included.

        The side lies on the line where coordinate ``fixed_axis`` equals
        ``fixed_int`` (in units of the finest dyadic scale) and runs from
        ``lo_int`` to ``hi_int`` along the other axis.  Corners of smaller
        neighbouring cells that fall on the side split it into the minimal
        edges over which the cone construction is applied.
        """
        lines = self._columns if fixed_axis == 0 else self._rows
        pos = lines.get(fixed_int)
        breaks = {lo_int, hi_int}
        if pos is not None:
            inner = pos[(pos >= lo_int) & (pos <= hi_int)]
            breaks.update(int(t) for t in inner)
        return np.array(sorted(breaks))

    def _corner_value(self, key: tuple, scale: float) -> np.ndarray:
        val = self._corner_values.get(key)
        if val is None:
            val = self._nearest_sample_value(self.root_lo + np.array(key) * scale)
        return val

    def _perimeter(self, base: np.ndarray, side: int, center: np.ndarray,
                   b_rel: np.ndarray) -> np.ndarray:
        """Value on the boundary of a face at ``center + b_rel``: the cone
        extension along the minimal edge of the face's side that holds it."""
        scale = self.S / (1 << self.depth)
        p = center + b_rel
        fixed_axis = int(np.argmax(np.abs(b_rel)))
        varying = 1 - fixed_axis
        fixed_int = int(round((p[fixed_axis] - self.root_lo[fixed_axis]) / scale))
        breaks = self._subedge_breaks(
            fixed_axis, fixed_int, int(base[varying]), int(base[varying] + side)
        )
        t_int = (p[varying] - self.root_lo[varying]) / scale
        j = int(np.searchsorted(breaks, t_int, side="right") - 1)
        j = max(0, min(j, breaks.size - 2))

        def key_at(var_int):
            key = [0, 0]
            key[fixed_axis] = fixed_int
            key[varying] = int(var_int)
            return tuple(key)

        return self._eval_edge(key_at(breaks[j]), key_at(breaks[j + 1]), p)

    def _face(self, k: tuple, d: int):
        """Center, radius, integer base corner, side and cone plan of the
        leaf face ``(k, d)``; cached.  The plan's samples are the perimeter
        values at every skeleton corner and minimal-edge midpoint."""
        face = self._faces.get((k, d))
        if face is not None:
            return face
        scale = self.S / (1 << self.depth)
        side = 1 << (self.depth - d)
        base = np.asarray(k, dtype=np.int64) * side
        center = self.root_lo + (base + side / 2.0) * scale
        R = side * scale / 2.0
        vals_list = []
        seen = set()
        for fixed_axis in range(2):
            varying = 1 - fixed_axis
            for fixed_int in (int(base[fixed_axis]), int(base[fixed_axis]) + side):
                breaks = self._subedge_breaks(
                    fixed_axis, fixed_int, int(base[varying]), int(base[varying] + side)
                )
                stations = sorted(
                    set(float(t) for t in breaks)
                    | set((float(breaks[j]) + float(breaks[j + 1])) / 2.0
                          for j in range(breaks.size - 1))
                )
                for t in stations:
                    p = np.empty(2)
                    p[fixed_axis] = self.root_lo[fixed_axis] + fixed_int * scale
                    p[varying] = self.root_lo[varying] + t * scale
                    rel = p - center
                    key = (round(rel[0] / scale, 9), round(rel[1] / scale, 9))
                    if key in seen:
                        continue
                    seen.add(key)
                    vals_list.append(self._perimeter(base, side, center, rel))
        face = self._faces[(k, d)] = (center, R, base, side, _cone_plan(np.array(vals_list)))
        return face

    def _eval_face(self, k: tuple, d: int, x: np.ndarray) -> np.ndarray:
        center, R, base, side, plan = self._face(k, d)

        def perimeter(b):
            return _sorted(plan.sorter, self._perimeter(base, side, center, b))

        return _cone_apply(plan, R, x - center, "linf", perimeter)

    def evaluate(self, query) -> QTuple:
        """Value of the extension at a point of the domain box."""
        x = np.asarray(query, dtype=float).reshape(-1)
        if x.size != self.m:
            raise ValueError(f"query has dimension {x.size}, expected m={self.m}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"query {x.tolist()} is not finite")
        if not np.all((self.root_lo <= x) & (x <= self.box_hi)):
            raise ValueError(f"query {x.tolist()} lies outside the domain box")
        d_samples = np.abs(self.locs - x[None, :]).max(axis=1)
        hit = int(np.argmin(d_samples))
        if d_samples[hit] <= 1e-12 * max(1.0, self.S):
            return QTuple(self.vals[hit])
        k, d, kind = self._locate(x)
        if kind == "near":
            return QTuple(self._nearest_sample_value(x))
        if self.m == 1:
            side = 1 << (self.depth - d)
            lo_int = int(k[0]) * side
            return QTuple(self._eval_edge((lo_int,), (lo_int + side,), x))
        return QTuple(self._eval_face(tuple(k.tolist()), d, x))


def whitney_extend(A, domain_box, resolution: int, query) -> QTuple:
    """One-shot dyadic extension query; see WhitneyExtension for batches."""
    return WhitneyExtension(A, domain_box, resolution).evaluate(query)


def extend_to_plane(f: GridFunction) -> GridFunction:
    """Extend a unit-ball grid function to the surrounding plane.

    Inside the ball the values are kept; between radius 1 and 3/2 the point
    reflects through the sphere via ``phi(x) = (2/|x| - 1) x`` and takes the
    nearest node's branches scaled by ``2 |phi(x)| - 1``; beyond radius 3/2
    everything is the zero tuple.  The output grid keeps the input spacing
    and contains the input lattice, padded to cover [-2, 2]^m.
    """
    N = f.shape[0]
    if any(s != N for s in f.shape):
        raise ValueError("expected an equal-extent grid over the unit ball")
    pad = math.ceil((N - 1) / 2)
    N_out = N + 2 * pad
    shape_out = (N_out,) * f.m
    mask = np.full(shape_out, INTERIOR, dtype=np.int8)
    for axis in range(f.m):
        sl = [slice(None)] * f.m
        sl[axis] = 0
        mask[tuple(sl)] = BOUNDARY
        sl[axis] = N_out - 1
        mask[tuple(sl)] = BOUNDARY
    values = np.zeros(shape_out + (f.Q, f.n))

    inside = f.mask != OUTSIDE
    in_coords = f.all_coords()[inside]
    in_vals = f.values[inside]

    for idx in np.ndindex(*shape_out):
        in_idx = tuple(i - pad for i in idx)
        aligned = all(0 <= j < N for j in in_idx)
        if aligned and f.mask[in_idx] != OUTSIDE:
            values[idx] = f.values[in_idx]
            continue
        x = (np.asarray(idx, dtype=float) - (N_out - 1) / 2.0) * f.h
        r = float(np.linalg.norm(x))
        if r >= 1.5:
            continue  # zero tuple
        if r < 1.0:
            # inside the ball but off the sampled domain: nearest node
            j = int(np.argmin(np.linalg.norm(in_coords - x[None, :], axis=1)))
            values[idx] = in_vals[j]
            continue
        y = (2.0 / r - 1.0) * x
        factor = 2.0 * float(np.linalg.norm(y)) - 1.0
        j = int(np.argmin(np.linalg.norm(in_coords - y[None, :], axis=1)))
        values[idx] = factor * in_vals[j]
    return GridFunction(f.m, f.n, f.Q, shape_out, f.h, mask, values)
