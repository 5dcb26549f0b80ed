"""Unordered Q-tuples of points in R^n and the optimal-assignment metrics on them.

A Q-tuple is a multiset of Q points (multiplicity counts).  The three
metrics pair the points of two tuples optimally and aggregate the pairwise
Euclidean distances by sum (G1), root-sum-of-squares (G2) or maximum
(GINF).  ``match_many`` matches whole stacks of tuple pairs at once
under any of the three, ``dist_many`` turns their costs into distances,
and ``dist`` is the one-pair case of both.  This module also
provides the splitting machinery: the minimum gap between distinct points
of a tuple forces the optimal pairing for any sufficiently small
perturbation, which is what makes local decompositions (``local_split``)
work.

All values here are immutable after construction and every operation is
a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SplitRadiusError(ValueError):
    """Raised when a local split is requested outside its continuity radius."""


class QTuple:
    """An unordered Q-tuple of points in R^n (multiset with multiplicity).

    Points are held as a read-only (Q, n) float array.  Order of storage is
    irrelevant: two tuples are equal when they agree as multisets, decided
    by comparing canonical forms (points sorted lexicographically
    coordinate by coordinate).

    Parameters
    ----------
    points : array_like
        Shape (Q, n).  A 1-D array of length Q is promoted to n = 1.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must form a (Q, n) array with Q >= 1, n >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = np.array(pts, dtype=float, copy=True)
        pts.flags.writeable = False
        self.points = pts

    @property
    def Q(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def canonical(self) -> "QTuple":
        """Return the canonical form: points sorted lexicographically."""
        order = np.lexsort(self.points.T[::-1])
        return QTuple(self.points[order])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTuple):
            return NotImplemented
        if self.points.shape != other.points.shape:
            return False
        return np.array_equal(self.canonical().points, other.canonical().points)

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which __eq__ already treats as equal
        return hash((self.canonical().points + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"QTuple({self.points.tolist()!r})"

    def to_text(self) -> str:
        """Textual form ``[[x1,...,xn],...]``; floats round-trip exactly."""
        return json.dumps(self.points.tolist())

    @classmethod
    def from_text(cls, text: str) -> "QTuple":
        return cls(json.loads(text))


@dataclass(frozen=True)
class Matching:
    """A permutation of {0..Q-1} certifying a pairing between two Q-tuples.

    ``perm[i] = j`` pairs point i of the first tuple with point j of the
    second.
    """

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        object.__setattr__(self, "perm", perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm must be a bijection on {0..Q-1}")

    def __len__(self) -> int:
        return len(self.perm)


class MetricKind(Enum):
    """Which aggregation the assignment metric uses."""

    G1 = "g1"
    G2 = "g2"
    GINF = "ginf"

    @classmethod
    def parse(cls, text: str) -> "MetricKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown metric kind {text!r}; expected g1, g2 or ginf") from None


def _check_compatible(v: QTuple, w: QTuple) -> None:
    if v.Q != w.Q:
        raise ValueError(f"multiplicity mismatch: Q={v.Q} vs Q={w.Q}")
    if v.n != w.n:
        raise ValueError(f"dimension mismatch: n={v.n} vs n={w.n}")


def _optimum(cost: np.ndarray) -> float:
    """The least total cost of an assignment on ``cost``: one Hungarian solve."""
    # local import: scipy.optimize costs ~0.6 s at start-up, and only Q > 5 needs it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _lexmin_assignment(cost: np.ndarray, limit: float) -> np.ndarray:
    """The lexicographically smallest assignment whose cost is at most ``limit``.

    Each row in turn takes the smallest free column from which the remaining
    rows can still be assigned within ``limit``, as a solve on the remaining
    block confirms.  A column whose own cost already takes the prefix past
    ``limit`` is skipped unsolved: the rest costs at least 0 and rounding is
    monotone, so the full test would reject it too.
    """
    Q = cost.shape[0]
    free = list(range(Q))
    perm = np.empty(Q, dtype=int)
    prefix = 0.0
    for i in range(Q):
        for j in free:
            if prefix + cost[i, j] > limit:
                continue
            rest_cols = [c for c in free if c != j]
            rest = _optimum(cost[np.ix_(np.arange(i + 1, Q), rest_cols)]) if rest_cols else 0.0
            if prefix + cost[i, j] + rest <= limit:
                perm[i] = j
                prefix += cost[i, j]
                free.remove(j)
                break
        else:  # pragma: no cover - the optimal column always qualifies
            raise AssertionError("assignment refinement failed")
    return perm


def _bottleneck_assignment(D: np.ndarray):
    """Exact bottleneck assignment by bisection over the pairwise distance set.

    A threshold t is feasible when the pairs farther apart than t can all be
    avoided, that is when the 0/1 cost ``D > t`` has an assignment of cost 0;
    sums of zeros and ones are exact, so the test is too.
    """
    levels = np.unique(D)
    # every row and column needs at least its own minimum
    forced = max(D.min(axis=1).max(), D.min(axis=0).max())
    lo, hi = int(np.searchsorted(levels, forced)), levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _optimum((D > levels[mid]).astype(float)) == 0.0:
            hi = mid
        else:
            lo = mid + 1
    t = float(levels[lo])
    # lexicographically smallest perfect matching at the optimal threshold
    return t, _lexmin_assignment((D > t).astype(float), 0.0)


def vector_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of ``d``.

    Each equals ``np.linalg.norm`` of that one vector to the last bit, since
    both reduce through the same dot product; ``np.linalg.norm(d, axis=-1)``
    and ``einsum`` sum in another order and can differ in the last bit.
    """
    d = np.asarray(d, dtype=float)
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


@functools.lru_cache(maxsize=None)
def _perm_table(Q: int) -> np.ndarray:
    """Every permutation of {0..Q-1} in lexicographic order, one per row."""
    table = np.array(list(itertools.permutations(range(Q))), dtype=np.intp)
    table.flags.writeable = False
    return table


def match_many(A: np.ndarray, B: np.ndarray, kind: MetricKind):
    """Optimal matchings between matching rows of two stacks of Q-tuples.

    Parameters
    ----------
    A, B : ndarray, shape (E, Q, n)
        ``A[e]`` and ``B[e]`` are the points of the e-th pair of tuples;
        either stack may have a single row, which is paired with every row
        of the other (``B = ref[None]`` matches all of ``A`` to ``ref``).
    kind : MetricKind

    Returns
    -------
    cost : ndarray, shape (E,)
        Per pair, the sum (G1), the sum of squares (G2: the squared G2
        distance) or the maximum (GINF) of the paired distances.
    perm : ndarray of int, shape (E, Q)
        Point i of ``A[e]`` goes to point ``perm[e, i]`` of ``B[e]``.  For
        Q <= 5 every permutation is scored in lexicographic order: GINF
        takes the first minimum, G1 and G2 the first permutation within
        1e-12 relative of the minimum, with that permutation's cost.
        Beyond that each row keeps the same rule with Hungarian solves: it
        finds the optimum (for GINF, the optimal threshold, by bisection
        over the paired distances), then gives each point in turn the
        smallest column from which the rest can still be paired within it.
    """
    if not isinstance(kind, MetricKind):
        raise ValueError(f"unknown metric kind {kind!r}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = A.shape[1]
    # one enum lookup each: the extension makes thousands of one-row calls
    squared, bottleneck = kind is MetricKind.G2, kind is MetricKind.GINF
    if Q == 1:
        d = A[:, 0] - B[:, 0]
        cost = np.einsum("ek,ek->e", d, d) if squared else vector_norms(d)
        return cost, np.zeros((cost.size, 1), dtype=np.intp)
    # C[e, i, j] prices pairing point i of A[e] with point j of B[e]
    diff = A[:, :, None, :] - B[:, None, :, :]
    C = np.einsum("eijk,eijk->eij", diff, diff)
    if not squared:
        C = np.sqrt(C)
    E = C.shape[0]
    cost = np.empty(E)
    if Q > 5:
        perm = np.empty((E, Q), dtype=np.intp)
        for e in range(E):
            if bottleneck:
                cost[e], perm[e] = _bottleneck_assignment(C[e])
            else:
                # relative, so that the tie rule does not depend on the scale of the data
                perm[e] = _lexmin_assignment(C[e], _optimum(C[e]) * (1.0 + 1e-12))
                cost[e] = C[e, np.arange(Q), perm[e]].sum()
        return cost, perm
    P = _perm_table(Q)
    first = np.empty(E, dtype=np.intp)
    rows = max(1, (1 << 18) // P.size)  # about 2 MB of gathered distances per chunk
    for lo in range(0, E, rows):
        picked = C[lo:lo + rows, np.arange(Q), P]
        if bottleneck:
            worst = picked.max(axis=2)
            cost[lo:lo + rows] = worst.min(axis=1)
            first[lo:lo + rows] = worst.argmin(axis=1)
        else:
            total = picked.sum(axis=2)
            best = total.min(axis=1, keepdims=True)
            pick = (total <= best * (1.0 + 1e-12)).argmax(axis=1)
            cost[lo:lo + rows] = total[np.arange(pick.size), pick]
            first[lo:lo + rows] = pick
    return cost, P.take(first, axis=0)  # same rows as P[first], several times faster


def dist_many(A: np.ndarray, B: np.ndarray, kind: MetricKind):
    """Assignment distances between matching rows of two stacks of Q-tuples.

    ``match_many`` with its costs turned into distances, as ``dist``
    reports them: G1 and GINF costs already are, G2 takes the square root
    of the summed squares, except at Q = 1, where it takes the norm of the
    one difference itself (the root of its rounded square can differ in
    the last bit).

    Returns
    -------
    value : ndarray, shape (E,)
    perm : ndarray of int, shape (E, Q)
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    cost, perm = match_many(A, B, kind)
    if kind is not MetricKind.G2:
        return cost, perm
    if A.shape[1] == 1:
        return vector_norms(A[:, 0] - B[:, 0]), perm
    return np.sqrt(cost), perm


def dist(v: QTuple, w: QTuple, kind: MetricKind = MetricKind.G2):
    """Assignment distance between two Q-tuples with an optimal matching.

    The one-pair case of ``dist_many``.

    Parameters
    ----------
    v, w : QTuple
        Tuples with equal Q and n.
    kind : MetricKind
        G1 sums the paired distances, G2 takes the root-sum-of-squares,
        GINF the maximum.

    Returns
    -------
    value : float
    match : Matching
        A minimizing pairing; among optimal pairings the lexicographically
        smallest permutation is returned.
    """
    _check_compatible(v, w)
    value, perm = dist_many(v.points[None], w.points[None], kind)
    return float(value[0]), Matching(tuple(perm[0]))


def dist_sorted_1d(v: QTuple, w: QTuple) -> float:
    """G2 distance of two 1-D tuples via the sorted pairing.

    On the real line the optimal pairing matches values in increasing
    order, so no assignment solve is needed.
    """
    if v.n != 1 or w.n != 1:
        raise ValueError(f"dist_sorted_1d needs n=1 tuples, got n={v.n} and n={w.n}")
    if v.Q != w.Q:
        raise ValueError(f"multiplicity mismatch: Q={v.Q} vs Q={w.Q}")
    a = np.sort(v.points[:, 0])
    b = np.sort(w.points[:, 0])
    return float(np.linalg.norm(a - b))


def split_distance_many(X: np.ndarray) -> np.ndarray:
    """``split_distance`` of every tuple of a (E, Q, n) stack, shape (E,).

    Takes the minimum over the pairs ``i < j`` of points whose difference
    is nonzero, so equal points count once, as in the support.
    """
    X = np.asarray(X, dtype=float)
    i, j = np.triu_indices(X.shape[1], 1)
    d = X[:, i] - X[:, j]
    m = np.abs(d).max(axis=2)
    apart = m > 0
    # scale before squaring so subnormal gaps do not underflow to 0
    scaled = d / np.where(apart, m, 1.0)[..., None]
    gaps = np.where(apart, m * vector_norms(scaled), math.inf)
    return gaps.min(axis=1, initial=math.inf)


def split_distance(v: QTuple) -> float:
    """Minimum distance between distinct support points; +inf if all coincide.

    Distinctness is exact coordinate equality; callers needing a tolerance
    pre-quantize their points.  The one-tuple case of ``split_distance_many``.
    """
    return float(split_distance_many(v.points[None])[0])


def concatenate(v: QTuple, w: QTuple) -> QTuple:
    """The (v.Q + w.Q)-tuple containing the points of both (with multiplicity)."""
    if v.n != w.n:
        raise ValueError(f"dimension mismatch: n={v.n} vs n={w.n}")
    return QTuple(np.vstack([v.points, w.points]))


def support_sigma(v: QTuple):
    """Distinct support points with multiplicities, plus their count.

    Returns
    -------
    support : list of (point, multiplicity)
        Points in canonical (lexicographic) order; multiplicities sum to Q.
    sigma : int
        Number of distinct points.
    """
    pts, counts = np.unique(v.points, axis=0, return_counts=True)
    support = [(pts[i].copy(), int(counts[i])) for i in range(pts.shape[0])]
    return support, len(support)


def local_split(center: QTuple, v: QTuple):
    """Partition v's points by the support decomposition of the center tuple.

    Valid only when ``dist(center, v, GINF) < split_distance(center) / 2``,
    which is exactly the radius on which the decomposition is well defined
    and continuous.  Each returned part collects the points of v lying
    within half the splitting radius of one distinct point of the center,
    and has size equal to that point's multiplicity.

    Returns
    -------
    parts : list of QTuple
        One per support point of the center, in canonical support order.
        Their concatenation equals v as a multiset.
    assignment : Matching
        ``assignment.perm[i]`` is the position of v's point i in the
        concatenation of the parts.
    """
    _check_compatible(center, v)
    s = split_distance(center)
    g, _ = dist(center, v, MetricKind.GINF)
    if not g < s / 2:
        raise SplitRadiusError(
            f"GINF distance {g} is not below half the splitting radius {s / 2}"
        )
    support, sigma = support_sigma(center)
    centers = np.array([p for p, _ in support])
    d = np.linalg.norm(v.points[:, None, :] - centers[None, :, :], axis=2)
    group = np.argmin(d, axis=1)
    groups = [np.flatnonzero(group == j) for j in range(sigma)]
    for j, idx in enumerate(groups):
        if idx.size != support[j][1]:  # pragma: no cover - excluded by the radius check
            raise SplitRadiusError("grouping does not reproduce the center multiplicities")
    parts = [QTuple(v.points[idx]) for idx in groups]
    position = np.empty(v.Q, dtype=int)
    offset = 0
    for idx in groups:
        for k, i in enumerate(idx):
            position[i] = offset + k
        offset += idx.size
    return parts, Matching(tuple(position))
