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
test and the clustering, and recurses into each cluster.  ``_plan_rows``
plans a whole stack of sample sets at once, with one GINF call of
``qspace.match_many`` scoring every sample pair of every set and one
grouping the samples of every set that splits.  The apply step is all a
query adds: the radius, the boundary value above the query put into the
plan's row order, and the radial blend toward the center value
(``_blend``).  Both operators answer a batch with ``evaluate_many``, which
checks every query first, and ``evaluate`` is its one-row call.
``ConeExtension`` plans its boundary sample once, when it is built, and
finds a query's nearest sample with ``grids._nearest``.
``WhitneyExtension`` holds its dyadic tree as sorted integer keys: per
level, the flat indices of the leaf cells; the flat lattice indices of the
cell corners; and one key array of the skeleton lines.  ``evaluate_many``
locates a whole batch of queries with one ``searchsorted`` per level and
finds the breaks of every face side and the minimal edge under every
perimeter point by ``searchsorted`` in the line keys.  It plans every
minimal edge and leaf face the batch reaches and has not planned before,
in a few stacked calls, into arrays indexed by edge or leaf, then applies
them to the whole batch: the far queries' boundary values go into row
order one split level at a time (``_sorted_many``), and one array
expression blends them with the center values.  A plan depends on its
witnessed tuples alone, so each distinct problem is planned once: an
edge's is that of its ordered pair of end samples, and faces whose
stations are equal byte for byte share one.  A corner's nearest sample
is found when a planned edge first needs it.

All formulas are positively homogeneous in the values, so scaling the data
by a power of two scales the extensions exactly, until the plans' squared
distances pass float64, where a plan names the field ``value``.

Extension structures are immutable once built, apart from the Whitney
corner samples and plan caches, which are filled lazily and idempotently:
a corner's sample and a plan depend only on the corner, edge or face, so
two batches that build one at once store equal values.  Queries are pure
and safe to issue concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._fields import _MAX_ENTRIES, ArgumentError
from .grids import GridFunction, OUTSIDE, _blocks, _lattice, _nearest, square_mask
from .qspace import MetricKind, QTuple, match_many, vector_norms


def _samples(pairs, name: str, m=None):
    """The locations (L, m), the values as QTuples and their points (L, Q, n)
    of the ``(location, value)`` pairs of the argument ``name``, whose locations
    must be finite.  ``m`` defaults to the size of the first location."""
    if not pairs:
        raise ArgumentError(name, f"field '{name}' must hold at least one point")
    locs = [np.asarray(loc, dtype=float).reshape(-1) for loc, _ in pairs]
    m = locs[0].size if m is None else m
    bad = [loc.size for loc in locs if loc.size != m]
    if bad:
        raise ArgumentError(name, f"each location 'x' in field '{name}' must hold m={m} "
                                  f"numbers, got {bad[0]}")
    locs = np.array(locs)
    if not np.isfinite(locs).all():
        raise ArgumentError(name, f"the locations in field '{name}' must be finite")
    values = [value if isinstance(value, QTuple) else QTuple(value) for _, value in pairs]
    if len({(value.Q, value.n) for value in values}) > 1:
        raise ArgumentError(name, f"the values in field '{name}' must share Q and n")
    return locs, values, np.array([value.points for value in values])


@dataclass
class BoundarySample:
    """Values of a Q-valued map at sampled boundary locations.

    ``points`` is a list of ``(location, value)`` pairs; locations are
    m-vectors, nominally on the sphere of radius R (the cone extension
    enforces this, other producers such as grid traces may sit slightly
    off it).  They are also held as the arrays ``locations`` (L, m) and
    ``value_array`` (L, Q, n).
    """

    points: list
    R: float
    m: int

    def __post_init__(self):
        self.locations, values, self.value_array = _samples(self.points, "points", self.m)
        self.points = list(zip(self.locations, values))
        self.Q, self.n = self.value_array.shape[1:]


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
    """Plan the recursive cone extension of each row of witnessed tuples in
    ``stack`` (E, L, Q, n), as ``Y`` (E, Q, n), a list of E sorters and
    ``samples`` (E, L, Q, n).

    Per row, the oscillation and the split test are measured on the
    samples (a distance past float64 raises ``ArgumentError`` naming
    ``value``).  When some tuple holds two points farther apart than 3*Q times
    the oscillation, the points of every tuple are grouped by cluster, and
    each cluster is planned on its own; otherwise the plan is a leaf.  The
    rows are planned together: one G-inf kernel call scores every sample
    pair of every row, one groups every split row's samples, and the split
    rows recurse in one call per cluster slice of each cluster pattern.
    Per row:

    ``Y`` (Q, n)
        per output row, the first point of the first witnessed tuple of
        that row's cluster: the value at the center;
    sorter
        ``None`` at a leaf, else ``(ref, cluster_of, ends, children)``: the
        split's reference tuple, the cluster of each of its points, the end
        row of each cluster and one sorter per cluster.  ``_sorted_many``
        applies it to put any tuple into output-row order;
    ``samples`` (L, Q, n)
        the witnessed tuples, each in output-row order.
    """
    E, L, Qc, _ = stack.shape
    Y = np.repeat(stack[:, :1, 0], Qc, axis=1)
    sorters = [None] * E
    if Qc < 2 or E == 0:
        return Y, sorters, stack
    osc = _oscillation(stack)
    with np.errstate(over="ignore"):  # named below: the split test cannot compare inf
        gaps = np.linalg.norm(stack[:, :, :, None, :] - stack[:, :, None, :, :], axis=4)
    widest = gaps.reshape(E, L, -1).max(axis=2)
    if not (np.isfinite(osc).all() and np.isfinite(widest).all()):
        raise ArgumentError("value", "field 'value' holds points so far apart that their "
                                     "distances overflow float64; scale them down")
    above = widest > 3.0 * Qc * osc[:, None]
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


def _sorted_many(sorters: list, values: np.ndarray) -> np.ndarray:
    """The points of each tuple ``values[k]`` (K, Q, n) in the output-row
    order of the plan whose sorter is ``sorters[k]``, as ``_plan_rows``
    grouped the samples.

    The sorter trees are applied one split level at a time.  A split node
    reorders its cluster slice by one G-inf match to its reference, and the
    slices of a level that have the same width go to one ``_group`` call;
    the slices of their children wait for the next level.
    """
    out = np.array(values, dtype=float)
    # (row, offset of the slice in the row, split node), for the current level
    level = [(k, 0, sorter) for k, sorter in enumerate(sorters) if sorter is not None]
    while level:
        by_width = {}
        for node in level:
            by_width.setdefault(len(node[2][1]), []).append(node)
        level = []
        for width, nodes in by_width.items():
            k = np.array([row for row, _, _ in nodes])[:, None]
            at = np.array([offset for _, offset, _ in nodes])[:, None] + np.arange(width)
            ref = np.stack([sorter[0] for _, _, sorter in nodes])
            cluster_of = np.stack([sorter[1] for _, _, sorter in nodes])
            out[k, at] = _group(out[k, at][:, None], ref, cluster_of)[:, 0]
            for row, offset, (_, _, ends, children) in nodes:
                level += [(row, offset + lo, child)
                          for child, lo in zip(children, [0] + ends) if child is not None]
    return out


def _blend(r, R, boundary: np.ndarray, center: np.ndarray) -> np.ndarray:
    """The cone construction's radial interpolation ``(r/R) boundary +
    ((R - r)/R) center`` of the rows of ``boundary`` (K, Q, n), at radii
    ``r`` (K,) in balls of radii ``R``."""
    return (r / R)[:, None, None] * boundary + ((R - r) / R)[:, None, None] * center


class QueryError(ValueError):
    """A query of a batch that cannot be evaluated; ``index`` is its 0-based
    position in the batch and ``problem`` says what is wrong with it."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"query {index}: {problem}")
        self.index, self.problem = index, problem


def _checked_queries(queries, m: int, inside, domain: str) -> np.ndarray:
    """``queries`` as a (K, m) float array, every row checked before any is
    evaluated: the first that is not finite, or that the test ``inside`` of
    the whole array rejects, raises ``QueryError``; ``domain`` names what
    ``inside`` tests."""
    X = np.asarray(queries, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"queries must form a (K, m) array, got shape {X.shape}")
    if X.shape[0] and X.shape[1] != m:
        raise QueryError(0, f"query has dimension {X.shape[1]}, expected m={m}")
    finite = np.isfinite(X).all(axis=1)
    ok = finite & inside(X)
    if not ok.all():
        i = int(np.argmin(ok))
        problem = f"lies outside {domain}" if finite[i] else "is not finite"
        raise QueryError(i, f"query {X[i].tolist()} {problem}")
    return X


def _evaluate(self, query) -> QTuple:
    """Value at one point of the operator's domain: ``evaluate_many`` of one row."""
    return QTuple(self.evaluate_many(np.asarray(query, dtype=float).reshape(1, -1))[0])


class ConeExtension:
    """Cone extension of sphere data, planned once for any number of queries.

    Building it checks that the sample locations lie on the sphere and plans
    the witnessed tuples; ``evaluate_many`` is then arithmetic and
    nearest-sample searches.  Boundary values between samples are taken
    from the nearest sample (the geodesic and chordal nearest agree on a
    sphere), whose tuple the plan holds already in output-row order.
    """

    def __init__(self, samples: BoundarySample):
        self.R = float(samples.R)
        self.m = samples.m
        self.locs = samples.locations
        radii = np.linalg.norm(self.locs, axis=1)
        # relative, as the sample hits are, so that scaled data get the same answer
        if np.abs(radii - self.R).max() > 1e-9 * self.R:
            raise ArgumentError("x", "each location 'x' must lie on the sphere of radius 'R' "
                                     "to 1e-9 R")
        self._values = samples.value_array
        Y, _, ordered = _plan_rows(self._values[None])
        self._Y, self._ordered = Y[0], ordered[0]

    def evaluate_many(self, queries) -> np.ndarray:
        """Values at the rows of ``queries`` (K, m), points of the closed ball,
        as a (K, Q, n) array; a query at a sample location returns that
        sample's value exactly.  Every query is checked before any is
        evaluated; a bad one raises ``QueryError`` naming its index."""
        R = self.R
        X = _checked_queries(queries, self.m, lambda X: vector_norms(X) <= R * (1 + 1e-9),
                             "the closed ball of radius R")
        nearest, gap = _nearest(X, self.locs)
        out = self._values[nearest]
        r = vector_norms(X)
        # past the sample hits, the center takes Y and the rest blend with
        # the sample above them, which the plan holds in output-row order
        far = np.flatnonzero(gap > 1e-12 * R)
        out[far] = self._Y
        far = far[r[far] > 1e-15 * R]
        above, _ = _nearest(X[far] * (R / r[far])[:, None], self.locs)
        out[far] = _blend(r[far], R, self._ordered[above], self._Y)
        return out

    evaluate = _evaluate


def cone_extend(samples: BoundarySample, query) -> QTuple:
    """One-shot cone extension query; see ConeExtension for batches."""
    return ConeExtension(samples).evaluate(query)


def _flat(cells: np.ndarray, d: int) -> np.ndarray:
    """Row-major flat index of each cell ``cells[i]`` of level ``d`` on its
    (2**d)**m grid."""
    flat = cells[:, 0].copy()
    for column in cells.T[1:]:
        flat = (flat << d) + column
    return flat


class WhitneyExtension:
    """Dyadic-cube extension of Q-valued data from a finite sample set.

    The domain box (minus the samples) splits into dyadic cells satisfying
    the usual size-versus-distance condition in the sup norm; corners take
    the nearest sample's value, edges and (in 2-D) faces fill in by the
    cone construction.  Cells that still touch the sample set at the depth
    cap evaluate pointwise by nearest sample.  Supports m in {1, 2}.

    The tree is held as sorted integer keys.  The leaves of level ``d`` are
    the row-major flat indices of their cells on the (2**d)**m grid, with a
    flag for Whitney (against depth-cap) leaves; ``evaluate_many`` descends
    every query at once, one ``searchsorted`` per level.  The skeleton lines
    are one sorted key array: per fixed axis, line and position along it,
    so the corners on one side of a cell are one contiguous range of it,
    and a minimal edge runs from an entry to the next; an entry's index
    names its edge.  Its first part, the lines of fixed x (the only line in
    1-D), is the flat indices of the corners on the (2**depth + 1)**m
    lattice of the finest scale.  A corner's nearest sample is found when a
    planned edge first needs it, and kept.

    Plans are built per batch of queries and cached on the instance: the
    batch's new leaf faces have their minimal edges planned in one stacked
    call, their perimeter stations evaluated as array arithmetic on those
    edge plans, and the faces planned in one call per station count.  Each
    distinct problem is planned once: an edge's plan is that of its two
    corner samples, one stack row per distinct ordered pair of them, and
    faces with the same stations byte for byte share one plan.  An edge's
    boundary values are its two corner samples, which the plan holds
    already in row order, so a perimeter value costs only arithmetic.  The
    far face queries of a batch are put into row order together: one G-inf
    match per split level and cluster width for the whole batch, whatever
    the number of queries.

    Parameters
    ----------
    data : list of (location, QTuple)
        Sample locations (distinct) and their values.
    box : array_like, shape (m, 2)
        Lower and upper bounds per axis, low <= high; cells tile the
        enclosing square, and queries must lie in the box.
    depth : int
        Dyadic subdivision cap.

    A bad argument raises ``ArgumentError`` naming its parameter, and its
    message names it once, as the field of ``qv extend whitney``'s JSON.
    """

    def __init__(self, data, box, depth: int):
        locs, _, vals = _samples(data, "data")
        self.m = locs.shape[1]
        if self.m not in (1, 2):
            raise ArgumentError("data", f"the locations in field 'data' must hold m=1 or m=2 "
                                        f"numbers, got m={self.m}")
        # return_index: the plain np.unique loads numpy.ma, 15-21 ms of a one-shot run
        if np.unique(locs, axis=0, return_index=True)[0].shape[0] != locs.shape[0]:
            raise ArgumentError("data", "the locations in field 'data' must be distinct")
        Q, n = self.Q, self.n = vals.shape[1:]
        self.locs, self.vals = locs, vals
        box = np.asarray(box, dtype=float)
        if box.size != 2 * self.m:
            raise ArgumentError("box", f"field 'box' must hold a [low, high] pair for each of "
                                       f"the m={self.m} axes")
        box = box.reshape(self.m, 2)
        if np.any(box[:, 0] > box[:, 1]):
            raise ArgumentError("box", f"field 'box' {box.tolist()} has a low end above its "
                                       f"high end")
        self.root_lo = box[:, 0].copy()
        self.box_hi = box[:, 1].copy()
        with np.errstate(over="ignore"):  # an extent past the largest float is refused below
            self.S = float((box[:, 1] - box[:, 0]).max())
        if not 0 < self.S < math.inf:
            raise ArgumentError("box", "field 'box' must have a positive finite extent")
        self.depth = int(depth)
        if not 0 <= self.depth <= 24:
            raise ArgumentError("depth", f"field 'depth' must be an integer in [0, 24], "
                                         f"got {self.depth}")
        # the finest scale's step, and the side of its (2**depth + 1)**m corner lattice
        self._scale = self.S / (1 << self.depth)
        L = self._L = (1 << self.depth) + 1

        delta = np.array(list(np.ndindex(*(2,) * self.m)), dtype=np.int64)
        cells = np.zeros((1, self.m), dtype=np.int64)
        keys, whitneys, corners = [], [], []
        for d in range(self.depth + 1):
            size = self.S / (1 << d)
            whitney = size < self._nearest_samples(self.root_lo + cells * size, size)[1]
            side = 1 << (self.depth - d)
            corners.append(((cells[whitney] * side)[:, None, :] + delta * side).reshape(-1, self.m))
            # every cell left at the depth cap is a leaf
            leaf = whitney if d < self.depth else np.ones_like(whitney)
            flat = _flat(cells[leaf], d)
            order = np.argsort(flat)
            keys.append(flat[order])
            whitneys.append(whitney[leaf][order])
            if d < self.depth:
                cells = (2 * cells[~whitney][:, None, :] + delta).reshape(-1, self.m)
        # the leaves of level d are _leaf_keys[_level_start[d]:_level_start[d + 1]];
        # a leaf's index in _leaf_keys keys its face plan
        self._level_start = np.cumsum([0] + [len(k) for k in keys]).tolist()
        self._leaf_keys = np.concatenate(keys)
        self._leaf_whitney = np.concatenate(whitneys)

        # the corners in lexicographic order, deduplicated by their flat
        # index on the (2**depth + 1)**m lattice, which keeps that order
        corners = np.concatenate(corners)
        self._lines, first = np.unique(np.ravel_multi_index(corners.T, (L,) * self.m),
                                       return_index=True)
        self._corners = corners[first]
        # each corner's nearest sample, -1 until a planned edge first needs it
        self._corner_nearest = np.full(len(first), -1, dtype=np.intp)
        # skeleton lines: in 2-D the key of a corner on the line where axis
        # a is fixed is (a, fixed, along) in base L, so the columns are the
        # corner keys themselves; in 1-D the one line is the corner keys
        self._line_corner = np.arange(len(first))
        if self.m == 2:
            by_row = self._corners[:, 1] * L + self._corners[:, 0]
            order = np.argsort(by_row)
            self._lines = np.concatenate([self._lines, L * L + by_row[order]])
            self._line_corner = np.concatenate([self._line_corner, order])
        # cone plans, built on first use: minimal edges as arrays indexed
        # like _lines, leaf faces as arrays indexed like _leaf_keys
        self._edge_planned = np.zeros(len(self._lines), dtype=bool)
        self._edge_Y = np.empty((len(self._lines), Q, n))
        self._edge_ends = np.empty((len(self._lines), 2, Q, n))
        self._face_planned = np.zeros(len(self._leaf_keys), dtype=bool)
        self._face_Y = np.empty((len(self._leaf_keys), Q, n))
        self._face_sorter = [None] * len(self._leaf_keys)

    def _nearest_samples(self, lo: np.ndarray, size: float = 0.0, budget: int = 1 << 16):
        """Index of the first sup-norm-nearest sample to each cell
        ``[lo, lo + size]`` (the point ``lo`` at size 0), and the sup-norm
        distance to it.  The distances are built one coordinate at a time,
        for blocks of about ``budget`` cell-sample pairs."""
        index = np.empty(len(lo), dtype=np.intp)
        gap = np.empty(len(lo))
        for block in _blocks(len(lo), len(self.locs), budget):
            cells = lo[block]
            d = np.zeros((len(cells), len(self.locs)))
            for c, s in zip(cells.T, self.locs.T):
                np.maximum(d, c[:, None] - s, out=d)
                np.maximum(d, s - (c + size)[:, None], out=d)
            index[block] = np.argmin(d, axis=1)
            gap[block] = d[np.arange(len(d)), index[block]]
        return index, gap

    def _locate(self, X: np.ndarray):
        """The leaf holding each row of ``X``: its index in ``_leaf_keys``, its
        cell ``k`` and its level ``d``.  All rows descend together, one level
        at a time; every descent ends in a leaf by the depth cap."""
        leaf = np.empty(len(X), dtype=np.intp)
        k_out = np.empty(X.shape, dtype=np.int64)
        d_out = np.empty(len(X), dtype=np.int64)
        todo = np.arange(len(X))
        k = np.zeros(X.shape, dtype=np.int64)
        for d in range(self.depth + 1):
            lo = self._level_start[d]
            keys, flat = self._leaf_keys[lo:self._level_start[d + 1]], _flat(k, d)
            at = np.searchsorted(keys, flat)
            hit = at < len(keys)
            hit[hit] = keys[at[hit]] == flat[hit]
            found = todo[hit]
            leaf[found], k_out[found], d_out[found] = lo + at[hit], k[hit], d
            todo, k = todo[~hit], k[~hit]
            if not todo.size:
                break
            # the float test of a one-query descent, so dyadic boundaries
            # fall on the same side
            corner = self.root_lo + k * (self.S / (1 << d))
            k = 2 * k + (X[todo] >= corner + self.S / (1 << (d + 1))).astype(np.int64)
        return leaf, k_out, d_out

    def _corner_samples(self, corners: np.ndarray) -> np.ndarray:
        """The nearest sample of each corner ``corners[...]`` (indices into
        ``_corners``), searched for the corners that have none yet."""
        todo, _ = np.unique(corners[self._corner_nearest[corners] < 0],
                            return_index=True)  # see __init__
        if todo.size:
            self._corner_nearest[todo], _ = self._nearest_samples(
                self.root_lo + self._corners[todo] * self._scale)
        return self._corner_nearest[corners]

    def _plan_edges(self, ids: np.ndarray):
        """Plan the minimal edges ``ids`` that are not planned yet, together.
        An edge's plan is that of its two end samples, so each distinct
        ordered pair of them is planned once."""
        new, _ = np.unique(ids[~self._edge_planned[ids]], return_index=True)  # see __init__
        if new.size:
            ends = self._corner_samples(self._line_corner[np.stack([new, new + 1], axis=1)])
            count = len(self.vals)
            pairs, inverse = np.unique(ends[:, 0] * count + ends[:, 1], return_inverse=True)
            Y, _, samples = _plan_rows(self.vals[np.stack(np.divmod(pairs, count), axis=1)])
            self._edge_Y[new] = Y[inverse]
            self._edge_ends[new] = samples[inverse]
            self._edge_planned[new] = True

    def _edge_values(self, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The cone extension along the minimal edge ``ids[i]`` at ``x[i]``."""
        self._plan_edges(ids)
        c0 = self.root_lo + self._corners[self._line_corner[ids]] * self._scale
        c1 = self.root_lo + self._corners[self._line_corner[ids + 1]] * self._scale
        center = (c0 + c1) / 2.0
        R = vector_norms(c1 - c0) / 2.0
        rel = x - center
        out = self._edge_Y[ids]
        r = vector_norms(rel)
        far = np.flatnonzero(r > 1e-15 * R)
        if far.size:
            r, R = r[far], R[far]
            b = rel[far] * (R / r)[:, None]
            # an edge's boundary is its two ends, so the plan already holds
            # the value there in output-row order
            end = np.where((b * (c0 - center)[far]).sum(axis=1) > 0, 0, 1)
            out[far] = _blend(r, R, self._edge_ends[ids[far], end], out[far])
        return out

    def _breaks(self, axis, line, lo, length):
        """Where the breaks of the skeleton segment on the line ``axis = line``
        from ``lo`` to ``lo + length`` along it lie in ``_lines``, as ``start``
        and ``stop``, and the key of that line, to which ``_lines`` adds a
        break's position; all in units of the finest scale.  A segment's breaks
        are every skeleton corner on it, endpoints included: on a face side
        they split it into the minimal edges over which the cone construction
        is applied."""
        key = (axis * self._L + line) * self._L
        return (key, np.searchsorted(self._lines, key + lo),
                np.searchsorted(self._lines, key + lo + length, side="right"))

    def _sides(self, base: np.ndarray, side: np.ndarray):
        """Where the breaks of each side of each face lie in ``_lines``, as
        ``start`` and ``stop`` arrays (F, 4).  The faces have integer base
        corners ``base`` and sides ``side`` in units of the finest scale; the
        sides are x = low, x = high, y = low and y = high."""
        axis = np.array([0, 0, 1, 1])
        _, start, stop = self._breaks(axis, base[:, axis] + np.array([0, 1, 0, 1]) * side[:, None],
                                      base[:, 1 - axis], side[:, None])
        return start, stop

    def _perimeter_edges(self, base: np.ndarray, side: np.ndarray, p: np.ndarray,
                         rel: np.ndarray) -> np.ndarray:
        """The minimal edge holding the point ``p[i] = center + rel[i]`` on the
        boundary of the face ``(base[i], side[i])``: the side is the one
        across the largest coordinate of ``rel[i]``, at its high end when
        that coordinate is positive."""
        rows = np.arange(len(p))
        fixed = np.argmax(np.abs(rel), axis=1)
        varying = 1 - fixed
        key, start, stop = self._breaks(fixed, base[rows, fixed] + (rel[rows, fixed] > 0) * side,
                                        base[rows, varying], side)
        # breaks are integers, so b <= t exactly when b <= floor(t)
        t = np.floor((p[rows, varying] - self.root_lo[varying]) / self._scale).astype(np.int64)
        return np.clip(np.searchsorted(self._lines, key + t, side="right") - 1, start, stop - 2)

    def _perimeter_values(self, base: np.ndarray, side: np.ndarray, center: np.ndarray,
                          rel: np.ndarray) -> np.ndarray:
        """The value on the boundary of the face ``(base[i], side[i])`` at
        ``center[i] + rel[i]``: the cone extension along the minimal edge of
        the face's side that holds it."""
        p = center + rel
        return self._edge_values(self._perimeter_edges(base, side, p, rel), p)

    def _plan_faces(self, leaf: np.ndarray, base: np.ndarray, side: np.ndarray):
        """Plan the leaf faces ``leaf[i]``, with integer base corner ``base[i]``
        and side ``side[i]``, that are not planned yet, together.  A face's
        samples are its perimeter values at every skeleton corner and
        minimal-edge midpoint ("stations"): each side in turn, in increasing
        position, the corners listed with the sides x = low and x = high.
        Station positions are integers in half-units of the finest scale;
        the faces with equal station counts are planned in one call, each
        distinct station stack once."""
        todo = ~self._face_planned[leaf]
        leaf, first = np.unique(leaf[todo], return_index=True)  # see __init__
        if not leaf.size:
            return
        base, side = base[todo][first], side[todo][first]
        L, scale = self._L, self._scale
        center = self.root_lo + (base + side[:, None] / 2.0) * scale
        start, stop = self._sides(base, side)
        start, stop = start.ravel(), stop.ravel()
        count = stop - start
        segment = np.repeat(np.arange(count.size), count)
        entry = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
        pos = self._lines[entry] % L
        after = self._lines[np.minimum(entry + 1, len(self._lines) - 1)] % L
        first, last = entry == start[segment], entry == stop[segment] - 1
        # per break: the corner, then the midpoint of the edge it starts
        halves = np.stack([2 * pos, pos + after], axis=1).ravel()
        keep = np.stack([~((first | last) & (segment % 4 >= 2)), ~last], axis=1).ravel()
        halves = halves[keep]
        owner, which = np.divmod(np.repeat(segment, 2)[keep], 4)
        rows = np.arange(owner.size)
        fixed = which // 2
        fixed_int = base[owner, fixed] + (which % 2) * side[owner]
        p = np.empty((owner.size, 2))
        p[rows, fixed] = self.root_lo[fixed] + fixed_int * scale
        p[rows, 1 - fixed] = self.root_lo[1 - fixed] + (halves / 2) * scale
        vals = self._perimeter_values(base[owner], side[owner], center[owner], p - center[owner])

        counts = np.bincount(owner, minlength=len(base))
        starts = np.cumsum(counts) - counts
        for count in sorted(set(counts.tolist())):
            members = np.flatnonzero(counts == count)
            stack = vals[starts[members][:, None] + np.arange(count)]
            # faces with the same stations byte for byte share one plan, and
            # its sorter, which is only read; -0.0 and 0.0 stay apart
            rows = stack.reshape(len(members), -1)
            rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
            _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
            Y, sorters, _ = _plan_rows(stack[first])
            self._face_Y[leaf[members]] = Y[inverse]
            for i, k in zip(leaf[members].tolist(), inverse.tolist()):
                self._face_sorter[i] = sorters[k]
        self._face_planned[leaf] = True

    def evaluate_many(self, queries) -> np.ndarray:
        """Values of the extension at the rows of ``queries`` (K, m), as a
        (K, Q, n) array.  Every query is checked before any is evaluated; a
        bad one raises ``QueryError`` naming its index."""
        X = _checked_queries(queries, self.m, lambda X: np.all(
            (self.root_lo <= X) & (X <= self.box_hi), axis=1), "the domain box")
        nearest, gap = self._nearest_samples(X)
        # sample hits and cells at the depth cap take the nearest sample
        out = self.vals[nearest]
        rows = np.flatnonzero(gap > 1e-12 * self.S)
        leaf, k, d = self._locate(X[rows])
        whitney = self._leaf_whitney[leaf]
        rows, leaf, k, d = rows[whitney], leaf[whitney], k[whitney], d[whitney]
        if not rows.size:
            return out
        side = np.left_shift(1, self.depth - d)
        base = k * side[:, None]
        if self.m == 1:
            out[rows] = self._edge_values(np.searchsorted(self._lines, base[:, 0]), X[rows])
            return out

        self._plan_faces(leaf, base, side)
        center = self.root_lo + (base + side[:, None] / 2.0) * self._scale
        R = side * self._scale / 2.0
        rel = X[rows] - center
        r = np.abs(rel).max(axis=1)
        out[rows] = self._face_Y[leaf]
        far = np.flatnonzero(r > 1e-15 * R)
        if not far.size:
            return out
        r, R = r[far], R[far]
        boundary = self._perimeter_values(base[far], side[far], center[far],
                                          rel[far] * (R / r)[:, None])
        value = _sorted_many([self._face_sorter[i] for i in leaf[far].tolist()], boundary)
        # out holds each face's Y already
        out[rows[far]] = _blend(r, R, value, out[rows[far]])
        return out

    evaluate = _evaluate


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
        raise ArgumentError("shape", f"field 'shape' {list(f.shape)} must have equal extents "
                                     "for a grid over the unit ball")
    pad = math.ceil((N - 1) / 2)
    N_out = N + 2 * pad
    # the output's values hold N_out**m * Q * n numbers, its node indices N_out**m * m
    if int(N_out) ** f.m * max(f.Q * f.n, f.m) > _MAX_ENTRIES:
        raise ArgumentError("shape", f"field 'shape' {list(f.shape)} (with Q {f.Q}, n {f.n}) "
                                     f"asks for an extension of over {_MAX_ENTRIES} numbers")
    shape_out = (N_out,) * f.m
    mask = square_mask(N_out, f.m)
    values = np.zeros(shape_out + (f.Q, f.n))

    inside = f.mask != OUTSIDE
    in_coords = f.all_coords()[inside]
    in_vals = f.values[inside]

    # the input lattice sits at offset pad in the output grid
    kept = np.zeros(shape_out, dtype=bool)
    kept[(slice(pad, pad + N),) * f.m] = inside
    values[kept] = in_vals
    x = _lattice(shape_out, f.h).reshape(-1, f.m)
    r = vector_norms(x)
    # inside the ball but off the sampled domain: the nearest node
    ball = np.flatnonzero(~kept.ravel() & (r < 1.0))
    flat = values.reshape(-1, f.Q, f.n)
    flat[ball] = in_vals[_nearest(x[ball], in_coords)[0]]
    # the ring reflects through the sphere, scaled toward 0 at radius 3/2
    ring = np.flatnonzero(~kept.ravel() & (r >= 1.0) & (r < 1.5))
    y = (2.0 / r[ring] - 1.0)[:, None] * x[ring]
    factor = 2.0 * vector_norms(y) - 1.0
    flat[ring] = factor[:, None, None] * in_vals[_nearest(y, in_coords)[0]]
    return GridFunction(f.m, f.n, f.Q, shape_out, f.h, mask, values)
