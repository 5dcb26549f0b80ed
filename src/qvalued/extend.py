"""Lipschitz extension of Q-valued boundary data.

Two constructions: a cone extension on balls, which interpolates radially
after splitting off clusters of points that sit further apart than the
boundary data oscillates, and a dyadic-cube extension from an arbitrary
closed sample set, which assigns nearest-sample values on cube corners and
propagates them across edges and faces with the cone construction.  A
third operator reflects a unit-ball grid function onto the surrounding
plane with linearly decaying branches, vanishing beyond radius 3/2.

The cone construction runs in two steps.  The plan depends only on the
witnessed boundary tuples: it measures the oscillation, runs the split
test and the clustering, and recurses into each cluster.
``_cone_plan_many`` plans a whole stack of sample sets at once, with one
GINF call of ``qspace.match_many`` scoring every sample pair of every set
and one grouping the samples of every set that splits.  The apply step is
all a query adds: the radius, the boundary value above the query put into
the plan's row order, and the radial interpolation toward the center
value.  ``ConeExtension`` plans once per boundary sample.
``WhitneyExtension`` plans per batch of queries: ``evaluate_many`` plans
every minimal edge and leaf face the batch reaches and has not planned
before, in a few stacked calls, then applies the plans query by query.

All formulas are positively homogeneous in the values, so scaling the data
scales the extensions exactly.

Extension structures are immutable once built, apart from the Whitney
plan caches, which are filled lazily and idempotently: a plan depends only
on its edge or face, so two batches that build it at once store equal
values.  Queries are pure and safe to issue concurrently.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import BOUNDARY, GridFunction, INTERIOR, OUTSIDE, _nearest
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


@functools.lru_cache(maxsize=32)
def _pairs(L: int):
    """Index arrays ``(i, j)`` of every pair i < j of L samples."""
    first, second = np.triu_indices(L, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _oscillation(vals: np.ndarray) -> np.ndarray:
    """Largest GINF distance between two of the tuples in each row of the
    stack ``vals`` (..., L, Q, n), 0 for one tuple.

    The pairs of every row go to the kernel 65,536 at a time; a maximum does
    not depend on the order, so chunking leaves the values unchanged.
    """
    lead, (L, Q, n) = vals.shape[:-3], vals.shape[-3:]
    flat = vals.reshape(-1, Q, n)
    first, second = _pairs(L)
    osc = np.zeros(flat.shape[0] // L)
    pairs, rows = osc.size * first.size, 1 << 16
    for lo in range(0, pairs, rows):
        e, pair = np.divmod(np.arange(lo, min(lo + rows, pairs)), first.size)
        g, _ = match_many(flat[e * L + first[pair]], flat[e * L + second[pair]], MetricKind.GINF)
        np.maximum.at(osc, e, g)
    return osc.reshape(lead)


def _split_clusters(points: np.ndarray, threshold):
    """Single-linkage clusters of each tuple in the stack ``points`` (..., Q, n):
    points closer than that tuple's threshold are joined.

    Returns per tuple the number of clusters and the cluster of each point;
    clusters are numbered in the order of their first point.
    """
    Q = points.shape[-2]
    close = (vector_norms(points[..., :, None, :] - points[..., None, :, :])
             <= np.asarray(threshold)[..., None, None])
    # each point takes the lowest index it reaches: its cluster's first point
    lowest = np.broadcast_to(np.arange(Q), close.shape[:-1])
    while True:
        step = np.where(close, lowest[..., None, :], Q).min(axis=-1)
        if np.array_equal(step, lowest):
            break
        lowest = step
    first = lowest == np.arange(Q)
    rank = np.cumsum(first, axis=-1) - 1
    return first.sum(axis=-1), np.take_along_axis(rank, lowest, axis=-1)


class _ConePlan(NamedTuple):
    """The query-independent part of a cone extension (see ``_cone_plan_many``)."""

    Y: np.ndarray
    sorter: tuple | None
    samples: np.ndarray


def _group(vals: np.ndarray, ref: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
    """Reorder the points of each tuple ``vals[s, l]`` by the cluster
    ``cluster_of[s]`` of their G-inf match in ``ref[s]``, keeping the order
    within a cluster.  ``vals`` is (S, L, Q, n), ``ref`` (S, Q, n)."""
    S, L, Q, n = vals.shape
    flat = vals.reshape(S * L, Q, n)
    _, perm = match_many(flat, np.repeat(ref, L, axis=0), MetricKind.GINF)
    labels = np.take_along_axis(np.repeat(cluster_of, L, axis=0), perm, axis=1)
    order = np.argsort(labels, axis=1, kind="stable")
    return np.take_along_axis(flat, order[:, :, None], axis=1).reshape(vals.shape)


def _plan_rows(stack: np.ndarray):
    """``Y`` (E, Q, n), the sorters and ``samples`` (E, L, Q, n) of the cone
    plans of the rows of ``stack``; see ``_cone_plan_many``."""
    E, L, Qc, _ = stack.shape
    Y = np.repeat(stack[:, :1, 0], Qc, axis=1)
    sorters = [None] * E
    if Qc < 2 or E == 0:
        return Y, sorters, stack
    osc = _oscillation(stack)
    gaps = np.linalg.norm(stack[:, :, :, None, :] - stack[:, :, None, :, :], axis=4)
    above = gaps.reshape(E, L, -1).max(axis=2) > 3.0 * Qc * osc[:, None]
    rows = np.flatnonzero(above.any(axis=1))
    if rows.size == 0:
        return Y, sorters, stack
    ref = stack[rows, above[rows].argmax(axis=1)]
    _, cluster_of = _split_clusters(ref, 3.0 * osc[rows])
    grouped = _group(stack[rows], ref, cluster_of)
    samples = stack.copy()
    patterns = {}
    for s, labels in enumerate(map(tuple, cluster_of.tolist())):
        patterns.setdefault(labels, []).append(s)
    for labels, members in patterns.items():
        ends = np.cumsum(np.bincount(labels)).tolist()
        parts = [_plan_rows(grouped[members, :, lo:hi]) for lo, hi in zip([0] + ends, ends)]
        at = rows[members]
        Y[at] = np.concatenate([part[0] for part in parts], axis=1)
        samples[at] = np.concatenate([part[2] for part in parts], axis=2)
        for i, s in enumerate(members):
            sorters[at[i]] = (ref[s], cluster_of[s], ends, [part[1][i] for part in parts])
    return Y, sorters, samples


def _cone_plan_many(stack: np.ndarray) -> list:
    """Plan the recursive cone extension of each row of witnessed tuples in
    ``stack`` (E, L, Q, n); one ``_ConePlan`` per row.

    Per row, the oscillation and the split test are measured on the
    samples.  When some tuple holds two points farther apart than 3*Q times
    the oscillation, the points of every tuple are grouped by cluster, and
    each cluster is planned on its own; otherwise the plan is a leaf.  The
    rows are planned together: one G-inf kernel call scores every sample
    pair of every row, one groups every split row's samples, and the split
    rows recurse in one call per cluster slice of each cluster pattern.
    A plan holds:

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
    return [_ConePlan(*plan) for plan in zip(*_plan_rows(stack))]


def _cone_plan(sample_vals: np.ndarray) -> _ConePlan:
    """The cone plan of one set of witnessed tuples (L, Q, n)."""
    return _cone_plan_many(sample_vals[None])[0]


def _sorted(sorter, value: np.ndarray) -> np.ndarray:
    """The points of the tuple ``value`` in the output-row order of a plan:
    one G-inf match per split node, as ``_cone_plan_many`` grouped the samples."""
    if sorter is None:
        return value
    ref, cluster_of, ends, children = sorter
    value = _group(value[None, None], ref[None], cluster_of[None])[0, 0]
    return np.concatenate([_sorted(child, value[lo:hi])
                           for child, lo, hi in zip(children, [0] + ends, ends)])


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
        plan, R = self._plan, self.R
        r = float(np.linalg.norm(query))
        if r <= 1e-15 * R:
            return QTuple(plan.Y)
        # the boundary value above the query is a sample, which the plan
        # already holds in output-row order
        b = query * (R / r)
        boundary = plan.samples[int(np.argmin(np.linalg.norm(self.locs - b, axis=1)))]
        return QTuple((r / R) * boundary + ((R - r) / R) * plan.Y)


def cone_extend(samples: BoundarySample, query) -> QTuple:
    """One-shot cone extension query; see ConeExtension for batches."""
    return ConeExtension(samples).evaluate(query)


class QueryError(ValueError):
    """A query of a batch that cannot be evaluated; ``index`` is its 0-based
    position in the batch and ``problem`` says what is wrong with it."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"query {index}: {problem}")
        self.index, self.problem = index, problem


def _lines(fixed: np.ndarray, along: np.ndarray) -> dict:
    """Map each value of ``fixed`` to the sorted values of ``along`` that share it."""
    order = np.lexsort((along, fixed))
    keys, starts = np.unique(fixed[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(along[order], starts[1:])))


class _Edge(NamedTuple):
    """A minimal edge: center, radius, ``c0 - center`` and cone plan."""

    center: np.ndarray
    R: float
    toward_k0: np.ndarray
    plan: _ConePlan


class _Face(NamedTuple):
    """A leaf face: center, radius, integer base corner, side, the breaks of
    its four sides (x = low, x = high, y = low, y = high, each a sorted
    tuple of positions along the side) and cone plan."""

    center: np.ndarray
    R: float
    base: np.ndarray
    side: int
    breaks: tuple
    plan: _ConePlan | None


class WhitneyExtension:
    """Dyadic-cube extension of Q-valued data from a finite sample set.

    The domain box (minus the samples) splits into dyadic cells satisfying
    the usual size-versus-distance condition in the sup norm; corners take
    the nearest sample's value, edges and (in 2-D) faces fill in by the
    cone construction.  Cells that still touch the sample set at the depth
    cap evaluate pointwise by nearest sample.  Supports m in {1, 2}.

    Plans are built per batch of queries (``evaluate_many``) and cached on
    the instance: the batch's new leaf faces have their minimal edges (each
    keyed by its two integer corner keys) planned in one stacked call, their
    perimeter stations evaluated as array arithmetic on those edge plans,
    and the faces planned in one call per station count.  An edge's
    boundary values are its two corner samples, which the plan holds
    already in row order, so a perimeter value costs only arithmetic; a
    face query adds one G-inf match per split level.

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
        nearest, _ = self._nearest_samples(self.root_lo + corners * scale)
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

    def _nearest_samples(self, x: np.ndarray):
        """Index of the first sup-norm-nearest sample to each row of ``x``, and
        the sup-norm distance to it; 512 rows at a time."""
        index = np.empty(len(x), dtype=np.intp)
        gap = np.empty(len(x))
        for lo in range(0, len(x), 512):
            d = np.abs(self.locs[None, :, :] - x[lo:lo + 512, None, :]).max(axis=2)
            index[lo:lo + 512] = np.argmin(d, axis=1)
            gap[lo:lo + 512] = d[np.arange(len(d)), index[lo:lo + 512]]
        return index, gap

    def _locate(self, x: np.ndarray):
        """The leaf holding ``x``; every descent ends in one by the depth cap."""
        k = np.zeros(self.m, dtype=np.int64)
        d = 0
        while (tuple(k), d) not in self._leaves:
            lo = self.root_lo + k * (self.S / (1 << d))
            d += 1
            k = 2 * k + (x >= lo + self.S / (1 << d)).astype(np.int64)
        return k, d, self._leaves[(tuple(k), d)]

    def _edges_for(self, keys: list) -> list:
        """The minimal edge of each ``(k0, k1)`` pair of integer corner keys;
        the uncached ones are planned together."""
        new = list(dict.fromkeys(key for key in keys if key not in self._edges))
        if new:
            scale = self.S / (1 << self.depth)
            c0 = self.root_lo + np.array([k0 for k0, _ in new]) * scale
            c1 = self.root_lo + np.array([k1 for _, k1 in new]) * scale
            center = (c0 + c1) / 2.0
            R = vector_norms(c1 - c0) / 2.0
            plans = _cone_plan_many(np.array([[self._corner_values[k0], self._corner_values[k1]]
                                              for k0, k1 in new]))
            self._edges.update(zip(new, map(_Edge, center, R.tolist(), c0 - center, plans)))
        return [self._edges[key] for key in keys]

    def _edge_values(self, keys: list, x: np.ndarray) -> np.ndarray:
        """The cone extension along the minimal edge ``keys[i]`` at ``x[i]``."""
        edges = self._edges_for(keys)
        rel = x - np.array([edge.center for edge in edges])
        R = np.array([edge.R for edge in edges])
        out = np.array([edge.plan.Y for edge in edges])
        r = vector_norms(rel)
        far = np.flatnonzero(r > 1e-15 * R)
        if far.size:
            r, R = r[far], R[far]
            b = rel[far] * (R / r)[:, None]
            toward = np.array([edges[i].toward_k0 for i in far.tolist()])
            # an edge's boundary is its two ends, so the plan already holds
            # the value there in output-row order
            end = np.where((b * toward).sum(axis=1) > 0, 0, 1)
            ends = np.array([edges[i].plan.samples[e] for i, e in zip(far.tolist(), end.tolist())])
            out[far] = (r / R)[:, None, None] * ends + ((R - r) / R)[:, None, None] * out[far]
        return out

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

    def _perimeter_values(self, faces: list, rel: np.ndarray) -> np.ndarray:
        """The value on the boundary of ``faces[i]`` at ``center + rel[i]``: the
        cone extension along the minimal edge of the face's side that holds it."""
        scale = self.S / (1 << self.depth)
        rows = np.arange(len(faces))
        p = np.array([face.center for face in faces]) + rel
        base = np.array([face.base for face in faces])
        fixed = np.argmax(np.abs(rel), axis=1)
        varying = 1 - fixed
        fixed_int = np.rint((p[rows, fixed] - self.root_lo[fixed]) / scale).astype(np.int64)
        t_int = (p[rows, varying] - self.root_lo[varying]) / scale
        high = fixed_int != base[rows, fixed]
        keys = []
        for face, axis, w, at, t in zip(faces, fixed.tolist(), (2 * fixed + high).tolist(),
                                        fixed_int.tolist(), t_int.tolist()):
            breaks = face.breaks[w]
            j = min(max(bisect.bisect_right(breaks, t) - 1, 0), len(breaks) - 2)
            if axis == 0:
                keys.append(((at, breaks[j]), (at, breaks[j + 1])))
            else:
                keys.append(((breaks[j], at), (breaks[j + 1], at)))
        return self._edge_values(keys, p)

    def _plan_faces(self, keys: list) -> list:
        """Plan the leaf faces ``(k, d)``.  A face's samples are its perimeter
        values at every skeleton corner and minimal-edge midpoint ("stations"):
        each side in turn, in increasing position, the corners listed with
        the sides x = low and x = high.  Station positions are integers in
        half-units of the finest scale."""
        scale = self.S / (1 << self.depth)
        side = np.array([1 << (self.depth - d) for _, d in keys])
        base = np.array([k for k, _ in keys], dtype=np.int64) * side[:, None]
        center = self.root_lo + (base + side[:, None] / 2.0) * scale
        R = (side * scale / 2.0).tolist()
        faces, owner, which, halves = [], [], [], []
        for i, (lo, s) in enumerate(zip(base.tolist(), side.tolist())):
            breaks = tuple(
                tuple(self._subedge_breaks(axis, lo[axis] + end, lo[1 - axis],
                                           lo[1 - axis] + s).tolist())
                for axis in (0, 1) for end in (0, s)
            )
            faces.append(_Face(center[i], R[i], base[i], s, breaks, None))
            for w, line in enumerate(breaks):
                stations = [2 * line[0]]
                for a, b in zip(line, line[1:]):
                    stations += [a + b, 2 * b]
                if w >= 2:
                    stations = stations[1:-1]
                owner += [i] * len(stations)
                which += [w] * len(stations)
                halves += stations
        owner, which, halves = np.array(owner), np.array(which), np.array(halves)
        rows = np.arange(owner.size)
        fixed = which // 2
        fixed_int = base[owner, fixed] + (which % 2) * side[owner]
        p = np.empty((owner.size, 2))
        p[rows, fixed] = self.root_lo[fixed] + fixed_int * scale
        p[rows, 1 - fixed] = self.root_lo[1 - fixed] + (halves / 2) * scale
        vals = self._perimeter_values([faces[i] for i in owner.tolist()], p - center[owner])

        counts = np.bincount(owner, minlength=len(keys))
        starts = np.cumsum(counts) - counts
        by_count = {}
        for i, count in enumerate(counts.tolist()):
            by_count.setdefault(count, []).append(i)
        for count, members in by_count.items():
            stack = vals[starts[members][:, None] + np.arange(count)]
            for i, plan in zip(members, _cone_plan_many(stack)):
                faces[i] = faces[i]._replace(plan=plan)
        return faces

    def _faces_for(self, keys: list) -> list:
        """The leaf face of each key ``(k, d)``; the uncached ones are planned
        together."""
        new = list(dict.fromkeys(key for key in keys if key not in self._faces))
        if new:
            self._faces.update(zip(new, self._plan_faces(new)))
        return [self._faces[key] for key in keys]

    def evaluate_many(self, queries) -> np.ndarray:
        """Values of the extension at the rows of ``queries`` (K, m), as a
        (K, Q, n) array.  Every query is checked before any is evaluated; a
        bad one raises ``QueryError`` naming its index."""
        X = np.asarray(queries, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"queries must form a (K, m) array, got shape {X.shape}")
        if X.shape[0] and X.shape[1] != self.m:
            raise QueryError(0, f"query has dimension {X.shape[1]}, expected m={self.m}")
        finite = np.isfinite(X).all(axis=1)
        ok = finite & np.all((self.root_lo <= X) & (X <= self.box_hi), axis=1)
        if not ok.all():
            i = int(np.argmin(ok))
            problem = "lies outside the domain box" if finite[i] else "is not finite"
            raise QueryError(i, f"query {X[i].tolist()} {problem}")

        nearest, gap = self._nearest_samples(X)
        # sample hits and cells at the depth cap take the nearest sample
        out = self.vals[nearest]
        rows, keys = [], []
        for i in np.flatnonzero(gap > 1e-12 * max(1.0, self.S)).tolist():
            k, d, kind = self._locate(X[i])
            if kind == "w":
                rows.append(i)
                keys.append((tuple(k.tolist()), d))
        if not rows:
            return out
        if self.m == 1:
            edges = [((k << (self.depth - d),), ((k + 1) << (self.depth - d),))
                     for (k,), d in keys]
            out[rows] = self._edge_values(edges, X[rows])
            return out

        faces = self._faces_for(keys)
        rel = X[rows] - np.array([face.center for face in faces])
        R = np.array([face.R for face in faces])
        r = np.abs(rel).max(axis=1)
        for i, face in zip(rows, faces):
            out[i] = face.plan.Y
        far = np.flatnonzero(r > 1e-15 * R)
        if not far.size:
            return out
        boundary = self._perimeter_values([faces[i] for i in far.tolist()],
                                          rel[far] * (R[far] / r[far])[:, None])
        for j, i in enumerate(far.tolist()):
            face, ri, Ri = faces[i], r[i], R[i]
            value = _sorted(face.plan.sorter, boundary[j])
            out[rows[i]] = (ri / Ri) * value + ((Ri - ri) / Ri) * face.plan.Y
        return out

    def evaluate(self, query) -> QTuple:
        """Value of the extension at a point of the domain box."""
        x = np.asarray(query, dtype=float).reshape(1, -1)
        return QTuple(self.evaluate_many(x)[0])


def whitney_extend(A, domain_box, resolution: int, query) -> QTuple:
    """One-shot dyadic extension query; see WhitneyExtension for batches."""
    return WhitneyExtension(A, domain_box, resolution).evaluate(query)


def extend_to_plane(f: GridFunction) -> GridFunction:
    """Extend a unit-ball grid function to the surrounding plane.

    Inside the ball the values are kept; between radius 1 and 3/2 the point
    reflects through the sphere via ``phi(x) = (2/|x| - 1) x`` and takes the
    nearest node's branches scaled by ``2 |phi(x)| - 1``; beyond radius 3/2
    everything is the zero tuple.  The output grid keeps the input spacing
    and contains the input lattice, padded to cover [-2, 2]^m.  Ties for
    the nearest node go to the first in C order.
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

    # the input lattice sits at offset pad in the output grid
    kept = np.zeros(shape_out, dtype=bool)
    kept[(slice(pad, pad + N),) * f.m] = inside
    values[kept] = in_vals
    idx = np.indices(shape_out).reshape(f.m, -1).T
    x = (idx - (N_out - 1) / 2.0) * f.h
    r = vector_norms(x)
    # inside the ball but off the sampled domain: the nearest node
    ball = np.flatnonzero(~kept.ravel() & (r < 1.0))
    flat = values.reshape(-1, f.Q, f.n)
    flat[ball] = in_vals[_nearest(x[ball], in_coords)]
    # the ring reflects through the sphere, scaled toward 0 at radius 3/2
    ring = np.flatnonzero(~kept.ravel() & (r >= 1.0) & (r < 1.5))
    y = (2.0 / r[ring] - 1.0)[:, None] * x[ring]
    factor = 2.0 * vector_norms(y) - 1.0
    flat[ring] = factor[:, None, None] * in_vals[_nearest(y, in_coords)]
    return GridFunction(f.m, f.n, f.Q, shape_out, f.h, mask, values)
