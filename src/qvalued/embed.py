"""Embeddings of Q-tuple space into Euclidean and dual spaces.

Three constructions live here:

* the sorted-projection embedding ``xi``: project a tuple onto every
  direction of a frame of orthonormal bases, sort each list of projections,
  and concatenate.  It is 1-Lipschitz, a local isometry, and injective once
  the frame's directions separate well enough.  ``xi_many`` embeds a
  whole (E, Q, n) stack of tuples at once, and ``xi`` is its one-tuple
  case;
* the polynomial-coefficient embedding ``whitney_eta``: the coefficients of
  the monic polynomial whose roots (as linear forms) are the tuple's
  points, with a root-finding inverse in one (complex) variable;
* the dual-norm functional ``zeta``: a tuple acts on Lipschitz functions by
  summing values at its points; the dual distance is bracketed by a
  dictionary of 1-Lipschitz cone functions from below and the G1 metric
  from above.

``decode`` inverts ``xi`` approximately by local optimization; it is exact
on the image up to round-off but carries no global Lipschitz certificate.

Frames are immutable after construction and all operations are pure;
``decode`` keeps its optimizer state caller-local.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._fields import (_MAX_ENTRIES, ArgumentError, _field, _int_field, _numbers,
                      _positive_field, _short)
from .qspace import MetricKind, QTuple, dist_many

_VALIDATION_SEED = 171717
_VALIDATION_DRAWS = 500


class FrameConstructionError(RuntimeError):
    """Raised when no direction frame passes validation within the size cap."""


class _FrameArgumentError(ArgumentError, FrameConstructionError):
    """An argument of ``DirectionFrame`` that does not form a frame."""


class DecodeFailure(RuntimeError):
    """Decode did not converge; ``best`` holds the best iterate found."""

    def __init__(self, message: str, best: QTuple):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class EmbeddedVector:
    """Image of a tuple under ``xi``; length is Q * n * K of the frame."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


class DirectionFrame:
    """K orthonormal bases of R^n whose leading directions separate vectors.

    The separation parameter ``epsilon`` is certified empirically at
    construction: over a fixed set of random draws of L = Q^2 unit vectors,
    some leading direction has inner product at least ``epsilon`` in
    absolute value with every vector of the draw.

    Parameters
    ----------
    n, Q : int
    bases : array_like, shape (K, n, n)
        ``bases[k, 0]`` is the distinguished direction of basis k; rows of
        each (n, n) block form an orthonormal basis.
    epsilon : float
    """

    def __init__(self, n: int, Q: int, bases, epsilon: float, *, validate: bool = True):
        self.n = int(n)
        self.Q = int(Q)
        self.bases = np.asarray(bases, dtype=float)
        if self.bases.ndim != 3 or self.bases.shape[1:] != (self.n, self.n):
            raise _FrameArgumentError("bases", f"field 'bases' must have shape "
                                               f"(K, {self.n}, {self.n}), got {self.bases.shape}")
        self.K = self.bases.shape[0]
        self.epsilon = float(epsilon)
        if not 0 < self.epsilon < math.inf:
            raise _FrameArgumentError("epsilon", f"field 'epsilon' must be a positive finite "
                                                 f"number, got {self.epsilon}")
        skewed = _skewed(self.bases)
        if skewed.size:
            raise _FrameArgumentError("bases", f"basis {skewed[0]} in field 'bases' is not "
                                               "orthonormal to 1e-10")
        if validate:
            measured = measured_separation(self.bases[:, 0, :], self.Q)
            if measured < self.epsilon - 1e-12:
                raise _FrameArgumentError("epsilon", f"field 'epsilon' {self.epsilon} exceeds "
                                                     f"the measured separation {measured}")
        self._dirmat = self.bases.reshape(self.K * self.n, self.n)

    @property
    def ambient_length(self) -> int:
        return self.Q * self.n * self.K

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "Q": self.Q,
                "K": self.K,
                "epsilon": self.epsilon,
                "bases": self.bases.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DirectionFrame":
        """Parse the text that ``to_json`` writes, as ``from_obj`` does."""
        return cls.from_obj(json.loads(text))

    @classmethod
    def from_obj(cls, obj) -> "DirectionFrame":
        """Build from the parsed JSON object that ``to_json`` writes, measuring
        the separation of its directions.  A bad field raises ``ArgumentError``
        naming it; one that does not form a frame is a FrameConstructionError too."""
        n, Q, K = (_int_field(obj, name) for name in ("n", "Q", "K"))
        epsilon = _positive_field(obj, "epsilon")
        bases = _numbers(_field(obj, "bases"), "bases")
        if bases.shape[:1] != (K,):
            raise ArgumentError("bases", f"field 'bases' must hold K={K} bases, "
                                         f"got an array of shape {bases.shape}")
        return cls(n, Q, bases, epsilon)


def _skewed(bases: np.ndarray) -> np.ndarray:
    """The indices of the bases of a (K, n, n) stack whose rows are not orthonormal to 1e-10."""
    gram = bases @ bases.transpose(0, 2, 1)
    return np.flatnonzero(np.abs(gram - np.eye(bases.shape[2])).max(axis=(1, 2)) > 1e-10)


def _validation_draws(Q: int, n: int, chunk: int = _VALIDATION_DRAWS):
    """The fixed validation draws, each L = Q^2 random unit vectors of R^n, in
    consecutive (chunk, L, n) blocks: one stream, so the same numbers as one
    draw at a time.  One block holds every draw unless ``chunk`` is given."""
    L = max(1, Q * Q)
    rng = np.random.default_rng(_VALIDATION_SEED)
    for lo in range(0, _VALIDATION_DRAWS, chunk):
        V = rng.standard_normal((min(chunk, _VALIDATION_DRAWS - lo), L, n))
        V /= np.linalg.norm(V, axis=2, keepdims=True)
        yield V


def _draw_separation(directions: np.ndarray, Q: int, held: np.ndarray = None) -> np.ndarray:
    """Per validation draw of L = Q^2 random unit vectors, the best direction's
    worst absolute inner product with them, shape (``_VALIDATION_DRAWS``,).

    The draw sequence is fixed, so the values are reproducible, and the
    elementwise max of the values of two sets of directions is the value of
    their union.  ``held`` is every draw of ``_validation_draws``, made once
    by the caller; without it the draws are made here.  Draws are scored a
    chunk at a time, which keeps the (draws, L, K) score block near 2 MB at
    any frame size.
    """
    directions = np.asarray(directions, dtype=float)
    K, n = directions.shape
    L = max(1, Q * Q)
    chunk = max(1, (1 << 18) // (K * L))
    blocks = (_validation_draws(Q, n, chunk) if held is None
              else (held[lo:lo + chunk] for lo in range(0, _VALIDATION_DRAWS, chunk)))
    best = np.empty(_VALIDATION_DRAWS)
    lo = 0
    for V in blocks:
        if L > 1:
            # one (draws * L, n) @ (n, K) product; each inner product rounds as
            # it does in directions @ V[d].T
            scores = V.reshape(-1, n) @ directions.T
            np.abs(scores, out=scores)
            best[lo:lo + len(V)] = scores.reshape(len(V), L, K).min(axis=1).max(axis=1)
        else:
            # at L = 1 each draw's product is a matrix-vector call, which the
            # stacked product keeps and a 2-D product would not
            scores = np.abs(np.matmul(directions, V.transpose(0, 2, 1)))  # (draws, K, 1)
            best[lo:lo + len(V)] = scores[:, :, 0].max(axis=1)
        lo += len(V)
    return best


def measured_separation(directions: np.ndarray, Q: int) -> float:
    """Largest epsilon the direction set certifies on the validation draws:
    the minimum over draws of ``_draw_separation``."""
    return float(_draw_separation(directions, Q).min(initial=math.inf))


def _greedy_directions(pool: np.ndarray):
    """Farthest-point packing on the sphere with antipodal identification:
    yields the directions of ``pool`` in packing order, without end.

    Each direction depends only on the ones before it, so the first k
    directions yielded are the k-direction packing."""
    sims = np.zeros(len(pool))  # |cos| >= 0: the first update sets |pool @ pool[0]| exactly
    i = 0
    while True:
        yield pool[i]
        np.maximum(sims, np.abs(pool @ pool[i]), out=sims)
        i = int(np.argmin(sims))


def _complete_bases(directions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal bases (K, n, n) of R^n, basis k's first row the unit
    direction ``directions[k]``, each completed against one random complement.

    The complements are one (K, n, n - 1) draw, the same numbers as one
    (n, n - 1) draw per basis in turn, and the stacked QR factors each matrix
    as a QR of it alone does.
    """
    K, n = directions.shape
    M = np.empty((K, n, n))
    M[:, :, 0] = directions
    M[:, :, 1:] = rng.standard_normal((K, n, n - 1))
    Qmat, _ = np.linalg.qr(M)
    flip = (Qmat[:, :, 0] * directions).sum(axis=1) < 0  # each sum is +-1 to rounding
    Qmat[flip] = -Qmat[flip]
    return np.ascontiguousarray(Qmat.transpose(0, 2, 1))


def build_frame(n: int, Q: int, K="auto", *, seed: int = 0, eps_floor: float = 0.05,
                max_K: int = 512) -> DirectionFrame:
    """Construct a direction frame by greedy max-min packing on the sphere.

    Directions are inserted one at a time, each maximizing its minimal
    angle (mod antipody) to the ones already chosen, then completed to
    orthonormal bases against a random complement.  ``epsilon`` is the
    largest value the fixed validation draws certify, measured once here.
    With ``K="auto"`` the direction count doubles from 2n until the
    certified epsilon reaches ``eps_floor``; exceeding ``max_K`` raises
    FrameConstructionError.  The directions are prefix-nested, so each
    doubling packs on from where the last one stopped, scores only its new
    directions and keeps, per draw, the best of the old and the new: a max,
    and exact.  The validation draws are made once per call where they fit
    in 2 MB, and nothing is kept from one call to the next.  An ``n``, ``Q``
    or integer ``K`` below 1, or one that asks for an array of over
    ``_MAX_ENTRIES`` numbers, raises ``ArgumentError`` naming it, before
    anything is allocated.
    """
    auto = K == "auto"
    for name, value in (("n", n), ("Q", Q), ("K", 1 if auto else K)):
        if value < 1:
            raise ArgumentError(name, f"{name} must be a positive integer, got {value}")
    if auto:
        schedule = []
        k = 2 * n
        while k <= max_K:
            schedule.append(k)
            k *= 2
    else:
        schedule = [int(K)]
    # the largest arrays: the candidate pool (4096, n), a validation draw (Q*Q, n),
    # and the bases (K, n, n) and a draw's scores (K, Q*Q) at the largest K tried,
    # which an automatic K blames on n and Q; at n = 1, only the K bases
    n_, Q_, top = int(n), int(Q), max(schedule, default=0)  # Python ints do not wrap
    sizes = [("n", 4096 * n_), ("Q", Q_ * Q_ * n_), ("n" if auto else "K", top * n_ * n_),
             ("Q" if auto else "K", top * Q_ * Q_)] if n_ > 1 else [("K", 1 if auto else top)]
    for name, entries in sizes:
        if entries > _MAX_ENTRIES:
            raise ArgumentError(name, f"n={n}, Q={Q} and K={K} ask for an array of over "
                                      f"{_MAX_ENTRIES} numbers; lower {name}")
    if n == 1:
        # every unit vector of R^1 is 1 or -1, so the direction 1 certifies epsilon = 1;
        # an integer K asks for K copies of it
        return DirectionFrame(1, Q, [[[1.0]]] * (1 if auto else int(K)), 1.0, validate=False)
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((4096, n))  # the candidate directions
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    # every doubling scores against the same draws: made once here where they fit
    # in 2 MB, else drawn afresh, a chunk at a time, for each doubling
    held = (next(_validation_draws(Q, n)) if _VALIDATION_DRAWS * Q_ * Q_ * n_ <= 1 << 18
            else None)
    greedy = _greedy_directions(pool)
    dirs = np.empty((0, n))
    best, eps = np.full(_VALIDATION_DRAWS, -math.inf), 0.0
    for k in schedule:
        new = np.array(list(itertools.islice(greedy, k - len(dirs))))
        dirs = np.concatenate([dirs, new])
        best = np.maximum(best, _draw_separation(new, Q, held))
        eps = float(best.min())
        if eps >= eps_floor or not auto:
            if eps <= 0:
                raise FrameConstructionError("measured separation is zero")
            return DirectionFrame(n, Q, _complete_bases(dirs, rng), eps, validate=False)
    raise FrameConstructionError(
        f"no frame for n={n}, Q={Q} with K <= {max_K} reached eps_floor={eps_floor} "
        f"(best {eps})"
    )


def pi_e(v: QTuple, e) -> np.ndarray:
    """Projections of the tuple's points onto a unit direction, sorted
    ascending, as ``xi_many`` sorts them."""
    e = np.asarray(e, dtype=float).reshape(-1)
    if abs(np.linalg.norm(e) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector to 1e-10")
    if e.size != v.n:
        raise ValueError(f"direction has dimension {e.size}, tuple has n={v.n}")
    return np.sort(v.points @ e)


def xi0(v: QTuple, basis) -> np.ndarray:
    """Sorted projections onto every vector of one orthonormal basis, concatenated.

    This map is 1-Lipschitz and preserves the norm identity
    ``|xi0(v)| = G2(v, Q*[[0]])`` but is generally not injective.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (v.n, v.n):
        raise ValueError(f"basis must be ({v.n}, {v.n}), got {basis.shape}")
    if _skewed(basis[None]).size:
        raise ValueError("basis rows must be orthonormal to 1e-10")
    return np.concatenate([pi_e(v, basis[j]) for j in range(v.n)])


def _sorted_projections(X, frame: DirectionFrame) -> np.ndarray:
    """Sorted projections of a (E, Q, n) stack onto each frame direction, (E, K*n, Q)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"tuple stack must have shape (E, Q, n), got {X.shape}")
    if X.shape[2] != frame.n:
        raise ValueError(f"tuple has n={X.shape[2]}, frame has n={frame.n}")
    if X.shape[1] != frame.Q:
        raise ValueError(f"tuple has Q={X.shape[1]}, frame has Q={frame.Q}")
    return np.sort(np.matmul(frame._dirmat, X.transpose(0, 2, 1)), axis=2)


def xi_many(X, frame: DirectionFrame) -> np.ndarray:
    """The frame embedding of every tuple of a (E, Q, n) stack, one row each.

    Row e is ``xi`` of the tuple with points ``X[e]``: per-direction sorted
    projections, concatenated and scaled by K^(-1/2); shape (E, Q*n*K).  A Q
    or n other than the frame's, for which it certifies nothing, raises ValueError.
    """
    proj = _sorted_projections(X, frame)
    E, R, Q = proj.shape
    return proj.reshape(E, R * Q) / math.sqrt(frame.K)


def xi(v: QTuple, frame: DirectionFrame) -> EmbeddedVector:
    """The frame embedding: per-basis sorted projections, scaled by K^(-1/2).

    The one-tuple case of ``xi_many``.
    """
    return EmbeddedVector(xi_many(v.points[None], frame)[0])


def xi_isometry_radius_many(X, frame: DirectionFrame) -> np.ndarray:
    """``xi_isometry_radius`` of every tuple of a (E, Q, n) stack, shape (E,)."""
    proj = _sorted_projections(X, frame)
    E, R, Q = proj.shape
    gaps = np.diff(proj, axis=2).reshape(E, R * (Q - 1))
    # the positive gaps of the sorted values are the gaps of the distinct ones
    return np.where(gaps > 0, gaps, math.inf).min(axis=1, initial=math.inf) / 2.0


def xi_isometry_radius(v: QTuple, frame: DirectionFrame) -> float:
    """Half the minimal splitting gap among all K*n projected 1-D tuples.

    Within this G2 radius around v the embedding is an exact isometry.
    Infinite when every projection collapses to a single value.
    """
    return float(xi_isometry_radius_many(v.points[None], frame)[0])


def _rank_update(Y: np.ndarray, dirmat: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """One alternating step: re-rank projections, then solve for the points.

    With ranks frozen the objective is quadratic with normal matrix K*I
    (the bases resolve the identity), so the minimizer is an average of
    target values times directions.
    """
    proj = dirmat @ Y.T  # (R, Q) with R = K * n
    order = np.argsort(proj, axis=1, kind="stable")
    rank = np.argsort(order, axis=1, kind="stable")
    picked = np.take_along_axis(targets, rank, axis=1)
    k_count = dirmat.shape[0] // dirmat.shape[1]
    return np.einsum("ri,rn->in", picked, dirmat) / k_count


def _sorted_objective(Y: np.ndarray, dirmat: np.ndarray, targets: np.ndarray, K: int) -> float:
    """The squared distance from the unnormalized embedding of the points ``Y``
    to ``targets`` (K*n, Q), over K."""
    return float(((np.sort(dirmat @ Y.T, axis=1) - targets) ** 2).sum() / K)


def decode(z, frame: DirectionFrame, hint: QTuple = None, *,
           search_budget: int = 50_000) -> QTuple:
    """Approximate inverse of ``xi``: a tuple locally minimizing |xi(v) - z|.

    Seeds come from the hint (if any) and from each basis of the frame,
    pairing its sorted blocks rank-wise.  Each seed is refined by
    alternating rank re-assignment with the closed-form least-squares point
    update, then polished by derivative-free coordinate search on the true
    objective.  On the image of ``xi`` the round trip is exact to G2 1e-6.

    Raises
    ------
    DecodeFailure
        If the coordinate search spends ``search_budget`` objective
        evaluations without converging; the exception carries the best
        iterate.
    """
    coords = z.coords if isinstance(z, EmbeddedVector) else np.asarray(z, dtype=float)
    if coords.size != frame.ambient_length:
        raise ValueError(
            f"embedded vector has length {coords.size}, frame expects {frame.ambient_length}"
        )
    Q, n, K = frame.Q, frame.n, frame.K
    dirmat = frame._dirmat
    raw = coords.reshape(K * n, Q) * math.sqrt(K)
    targets_sorted = np.sort(raw, axis=1)
    scale = 1.0 + float(np.abs(raw).max())

    seeds = []
    if hint is not None:
        if hint.Q != Q or hint.n != n:
            raise ValueError("hint must match the frame's Q and n")
        seeds.append(hint.points.copy())
    for k in range(K):
        # basis k's sorted blocks: entry [j, i] is the i-th smallest projection
        # onto direction j; the seed pairs equal ranks
        seeds.append(targets_sorted[k * n : (k + 1) * n].T @ frame.bases[k])

    def alternate(Y):
        f_prev = _sorted_objective(Y, dirmat, targets_sorted, K)
        for _ in range(200):
            Y_new = _rank_update(Y, dirmat, targets_sorted)
            f_new = _sorted_objective(Y_new, dirmat, targets_sorted, K)
            if f_new > f_prev - 1e-14 * scale * scale:
                if f_new <= f_prev:
                    return Y_new, f_new
                return Y, f_prev
            Y, f_prev = Y_new, f_new
        return Y, f_prev

    best_Y, best_f = None, math.inf
    for seed_Y in seeds:
        Y, f = alternate(seed_Y.copy())
        if f < best_f:
            best_Y, best_f = Y, f

    rng = np.random.default_rng(12345)
    for _ in range(8):  # restarts from noise around the best iterate
        if best_f <= (1e-9 * scale) ** 2:
            break
        noise = rng.standard_normal(best_Y.shape) * (math.sqrt(best_f) + 1e-6)
        Y, f = alternate(best_Y + noise)
        if f < best_f:
            best_Y, best_f = Y, f

    # polish on the true objective, which keeps the stored block order of z
    Y, f, converged = _coordinate_search(
        best_Y, lambda Y: _sorted_objective(Y, dirmat, raw, K), step0=1e-3 * scale,
        min_step=1e-12 * scale, budget=search_budget,
    )
    if not converged:
        raise DecodeFailure("coordinate refinement hit its evaluation budget", QTuple(Y))
    return QTuple(Y)


def _coordinate_search(Y0, objective, step0: float, min_step: float, budget: int):
    """Pattern search over the point coordinates; only improvements accepted."""
    Y = Y0.copy()
    f = objective(Y)
    step = step0
    evals = 0
    while step > min_step:
        improved = False
        for idx in np.ndindex(*Y.shape):
            for sgn in (1.0, -1.0):
                Y[idx] += sgn * step
                f_try = objective(Y)
                evals += 1
                if f_try < f:
                    f = f_try
                    improved = True
                    break
                Y[idx] -= sgn * step
            if evals > budget:
                return Y, f, False
        if not improved:
            step /= 2.0
    return Y, f, True


def whitney_count(n: int, Q: int) -> int:
    """Number of polynomial coefficients: C(Q + n, n) - 1."""
    return math.comb(Q + n, n) - 1


def whitney_eta(v: QTuple, *, complex_mul: bool = False):
    """Coefficients of the monic polynomial with the tuple's points as roots.

    The polynomial is ``prod_i (x - <u, y_i>)`` expanded in the variables
    ``(u_1, ..., u_n, x)``; the output maps each multi-index ``alpha`` with
    ``1 <= |alpha| <= Q`` to the coefficient of ``u^alpha x^(Q - |alpha|)``
    and always has exactly ``C(Q+n, n) - 1`` entries.  The computation runs
    on the canonical form of the tuple, so permuting the input points
    yields bit-identical output.

    With ``complex_mul=True`` the points are read as complex numbers (n=2
    as re/im pairs, n=1 with zero imaginary part) and the classical
    one-variable coefficients ``{(i,): c_i}`` of ``prod (x - z_i)`` are
    returned.
    """
    v = v.canonical()
    if complex_mul:
        if v.n == 1:
            roots = v.points[:, 0].astype(complex)
        elif v.n == 2:
            roots = v.points[:, 0] + 1j * v.points[:, 1]
        else:
            raise ValueError("complex coefficients need n=1 or n=2 input")
        coeffs = np.array([1.0 + 0j])
        for z in roots:
            coeffs = np.convolve(coeffs, np.array([1.0, -z]))
        return {(i,): complex(coeffs[i]) for i in range(1, v.Q + 1)}

    n, Q = v.n, v.Q
    by_degree = [dict() for _ in range(Q + 1)]
    by_degree[0][(0,) * n] = 1.0
    for point in v.points:
        new = [dict() for _ in range(Q + 1)]
        for d in range(Q + 1):
            for alpha, c in by_degree[d].items():
                if d + 1 <= Q:
                    new[d + 1][alpha] = new[d + 1].get(alpha, 0.0) + c
                for j in range(n):
                    if point[j] == 0.0:
                        continue
                    beta = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]
                    new[d][beta] = new[d].get(beta, 0.0) - c * point[j]
        by_degree = new
    out = {}
    for i in range(1, Q + 1):
        for alpha in _multi_indices(n, i):
            out[alpha] = float(by_degree[Q - i].get(alpha, 0.0))
    return out


def _multi_indices(n: int, total: int):
    """All alpha in N^n with |alpha| == total, lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _multi_indices(n - 1, total - first):
            yield (first,) + rest


def whitney_eta_inverse_1d(coeffs, as_complex: bool = None) -> QTuple:
    """Roots of the monic polynomial ``x^Q + c_1 x^(Q-1) + ... + c_Q``.

    Computed as companion-matrix eigenvalues.  Returns an n=2 tuple of
    (re, im) points, collapsing to n=1 when the coefficients are real and
    every root is real to within round-off; pass ``as_complex`` to force
    either form.
    """
    c = np.asarray(list(coeffs))
    if c.ndim != 1 or c.size < 1:
        raise ValueError("coeffs must be a nonempty 1-D sequence")
    roots = np.roots(np.concatenate([[1.0], c]))
    if as_complex is None:
        as_complex = np.iscomplexobj(c) or (
            np.abs(roots.imag).max() > 1e-9 * (1.0 + np.abs(roots).max())
        )
    if as_complex:
        return QTuple(np.column_stack([roots.real, roots.imag]))
    return QTuple(roots.real.reshape(-1, 1))


def _zeta_anchors(V: np.ndarray, W: np.ndarray, seeds, dictionary_size: int):
    """The anchors of ``zeta_dual_gap_many``'s cone functions, shape (E, 2Q + size, n).

    Row e holds the points of ``V[e]`` and ``W[e]``, then ``dictionary_size``
    points drawn uniformly in the box around them, as
    ``default_rng(seeds[e]).uniform(low, high, size=(dictionary_size, n))``
    draws them: that is ``low + (high - low) * random()``, taken here for
    every row at once.  A box wider than the float64 range gives anchors
    that are not finite.
    """
    pts = np.concatenate([V, W], axis=1)
    lo = pts.min(axis=1)
    hi = pts.max(axis=1)
    span = hi - lo
    low, high = lo - 0.5 * span - 0.1, hi + 0.5 * span + 0.1
    E, _, n = V.shape
    u = np.empty((E, dictionary_size, n))
    for e, seed in enumerate(seeds):
        u[e] = np.random.default_rng(seed).random((dictionary_size, n))
    extra = low[:, None] + (high - low)[:, None] * u
    return np.concatenate([pts, extra], axis=1)


def zeta_dual_gap_many(V, W, seeds, dictionary_size: int = 64):
    """``zeta_dual_gap`` of matching rows of two (E, Q, n) stacks of tuples.

    Row e draws its random anchors from ``default_rng(seeds[e])``, as the
    one-pair call with ``seed=seeds[e]`` does.  A row whose anchor box, G1
    bound or lower bound is past the float64 range raises ValueError naming
    its tuples.

    Returns
    -------
    (lower, upper) : pair of ndarrays, shape (E,)
    """
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        upper, _ = dist_many(V, W, MetricKind.G1)
        anchors = _zeta_anchors(V, W, seeds, dictionary_size)
        dv = np.linalg.norm(V[:, None, :, :] - anchors[:, :, None, :], axis=3).sum(axis=2)
        dw = np.linalg.norm(W[:, None, :, :] - anchors[:, :, None, :], axis=3).sum(axis=2)
        lower = np.abs(dv - dw).max(axis=1)  # NaN where an anchor is not finite
    finite = np.isfinite(upper) & np.isfinite(lower)
    if not finite.all():
        e = int(np.argmin(finite))
        raise ValueError(f"tuples {_short(V[e].tolist())} and {_short(W[e].tolist())} are "
                         "too large for the dual bracket: its anchors or bounds overflow "
                         "float64; scale them down")
    return lower, upper


def zeta_dual_gap(v: QTuple, w: QTuple, dictionary_size: int = 64, *, seed: int = 0):
    """Bracket the dual-norm distance of the summation functionals of v and w.

    The upper bound is the G1 distance (exact).  The lower bound maximizes
    ``|sum_i u(y_i) - sum_i u(y'_i)|`` over the dictionary of 1-Lipschitz
    cone functions ``u_a(y) = d(y, a)`` anchored at the points of both
    tuples plus ``dictionary_size`` random anchors.  A basepoint term
    ``- d(a, y0)`` would shift both sums by Q times the same constant, so
    no basepoint enters.  Always ``lower <= true dual norm <= upper``.
    The one-pair case of ``zeta_dual_gap_many``.

    Returns
    -------
    (lower, upper) : pair of floats
    """
    if v.Q != w.Q or v.n != w.n:
        raise ValueError("tuples must share Q and n")
    lower, upper = zeta_dual_gap_many(v.points[None], w.points[None], [seed], dictionary_size)
    return float(lower[0]), float(upper[0])
