"""Empirical property harness for the provable identities and inequalities.

Every check draws random instances from a seeded generator, counts
violations at configurable tolerances, and reports the extremal observed
ratio along with up to five failing witnesses.  Checks are independent and
reproducible bit for bit under a fixed seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import embed
from .grids import GridFunction, _blocks, square_mask
# ``dist`` is no longer called here; the benchmark's tracer test pins its binding
from .qspace import (MetricKind, QTuple, dist, dist_many, match_many,  # noqa: F401
                     split_distance_many, vector_norms)

_CHECK_OFFSETS = {
    "metric_equivalence": 101,
    "splitting_lemma": 202,
    "xi": 303,
    "sqrt_q_bound": 404,
    "poincare": 505,
    "zeta_bounds": 606,
}

_DEFAULT_TOLERANCES = {
    "equivalence": 1e-9,
    "splitting": 1e-12,
    "xi_upper": 1e-9,
    "xi_local": 1e-9,
    "xi_norm": 1e-12,
    "sqrt_q": 1e-6,
    "poincare_c": 64.0,
    "zeta": 1e-12,
}


@dataclass
class CheckConfig:
    """Scale and tolerances of the random-instance checks."""

    seed: int = 0
    trials: int = 200
    Q_range: tuple = (1, 4)
    n_range: tuple = (1, 3)
    m_range: tuple = (1, 2)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name, rng in (("Q_range", self.Q_range), ("n_range", self.n_range),
                          ("m_range", self.m_range)):
            if len(rng) != 2 or rng[0] > rng[1] or rng[0] < 1:
                raise ValueError(f"{name} must be a nonempty range of positive integers")
        for name, value in self.tolerances.items():
            if name not in _DEFAULT_TOLERANCES:
                raise ValueError(f"tolerances has unknown name {name!r}; expected one of "
                                 f"{', '.join(_DEFAULT_TOLERANCES)}")
            # every comparison with NaN is false: the check would pass or fail every trial
            if not math.isfinite(value):
                raise ValueError(f"tolerances[{name!r}] must be a finite number, got {value!r}")
        merged = dict(_DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        self.tolerances = merged

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "trials": self.trials,
                "Q_range": list(self.Q_range),
                "n_range": list(self.n_range),
                "m_range": list(self.m_range),
                "tolerances": self.tolerances,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckConfig":
        obj = json.loads(text)
        return cls(
            seed=obj.get("seed", 0),
            trials=obj.get("trials", 200),
            Q_range=tuple(obj.get("Q_range", (1, 4))),
            n_range=tuple(obj.get("n_range", (1, 3))),
            m_range=tuple(obj.get("m_range", (1, 2))),
            tolerances=obj.get("tolerances", {}),
        )


@dataclass
class CheckReport:
    """Outcome of one check: failure count, extremal ratio, witnesses."""

    name: str
    trials: int
    failures: int
    worst_ratio: float
    witnesses: list = field(default_factory=list)
    # wall time of the check, set by run_all; not part of the report itself
    seconds: float = 0.0

    def record_failure(self, witness: str):
        self.failures += 1
        if len(self.witnesses) < 5:
            self.witnesses.append(witness)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst_ratio": self.worst_ratio,
            "witnesses": self.witnesses,
        }


# tuple pairs per stacked assignment-kernel call, and embedded coordinates
# per stacked embedding call: both bound the memory a stacked check takes
_KERNEL_ROWS = 2048
_EMBED_ENTRIES = 1 << 15


def _rng_for(cfg: CheckConfig, name: str) -> np.random.Generator:
    return np.random.default_rng(cfg.seed * 1000003 + _CHECK_OFFSETS[name])


def random_tuple(rng: np.random.Generator, Q: int, n: int,
                 cluster: bool = True) -> QTuple:
    """Points uniform in [-1, 1]^n, sometimes clustered to shrink the split gap."""
    if cluster and Q > 1 and rng.random() < 0.4:
        k = int(rng.integers(1, Q + 1))
        centers = rng.uniform(-1.0, 1.0, size=(k, n))
        assign = rng.integers(0, k, size=Q)
        pts = centers[assign] + 0.02 * rng.standard_normal((Q, n))
        return QTuple(pts)
    return QTuple(rng.uniform(-1.0, 1.0, size=(Q, n)))


def _draw_Qn(rng, cfg):
    Q = int(rng.integers(cfg.Q_range[0], cfg.Q_range[1] + 1))
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    return Q, n


def check_metric_equivalence(cfg: CheckConfig, _dist_many=None) -> CheckReport:
    """G_inf <= G2 <= G1 <= Q G_inf and G2 <= sqrt(Q) G_inf on random pairs.

    ``_dist_many`` replaces ``dist_many`` as the source of the distances.
    """
    d = _dist_many or dist_many
    rng = _rng_for(cfg, "metric_equivalence")
    tol = cfg.tolerances["equivalence"]
    report = CheckReport("metric_equivalence", cfg.trials, 0, 0.0)
    rows = []
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        v = random_tuple(rng, Q, n)
        w = random_tuple(rng, Q, n)
        rows.append((v.points, w.points))
    ok = np.ones(len(rows), dtype=bool)
    for index, (V, W) in _grouped(rows):
        Q = V.shape[1]
        g1, g2, gi = (_in_blocks(d, V, W, kind) for kind in MetricKind)
        ok[index] = ((gi <= g2 + tol) & (g2 <= g1 + tol) & (g1 <= Q * gi + tol)
                     & (g2 <= math.sqrt(Q) * gi + tol))
        apart = gi > 0
        if apart.any():
            report.worst_ratio = max(report.worst_ratio, float((g1[apart] / (Q * gi[apart])).max()))
    _record_pairs(report, rows, ok)
    return report


def _grouped(rows: list):
    """Trials stacked by the shape of their first field, in first-seen order.

    ``rows`` holds one tuple of fields per trial, the first an array: the
    (Q, n) points of a tuple, or a (nodes, Q, n) stack of them.  Yields, per
    shape, the positions of its trials in ``rows`` and one stacked array per
    field.
    """
    groups = {}
    for t, row in enumerate(rows):
        groups.setdefault(row[0].shape, []).append(t)
    for index in groups.values():
        yield np.array(index), [np.array([rows[t][k] for t in index])
                                for k in range(len(rows[index[0]]))]


def _in_blocks(kernel, A, B, kind, left=None, right=None) -> np.ndarray:
    """``kernel(A[left], B[right], kind)[0]``, a block of pairs gathered per call.

    ``kernel`` is ``match_many`` or ``dist_many`` and ``A``, ``B`` are (E, Q, n)
    stacks; ``left`` and ``right`` default to every row in order.  Each call
    takes at most ``_KERNEL_ROWS`` pairs.
    """
    if left is None:
        left = right = np.arange(len(A))
    out = np.empty(left.size)
    for block in _blocks(left.size, 1, _KERNEL_ROWS):
        out[block] = kernel(A[left[block]], B[right[block]], kind)[0]
    return out


def _record_pairs(report: CheckReport, rows, ok: np.ndarray) -> None:
    """Record the tuples v and w, the first two fields of ``rows[t]``, of every
    trial t that failed, in trial order."""
    for t in np.flatnonzero(~ok):
        v, w = rows[t][:2]
        report.record_failure(json.dumps({"v": v.tolist(), "w": w.tolist()}))


def check_splitting_lemma(cfg: CheckConfig) -> CheckReport:
    """Within half the splitting radius the constructed pairing is optimal.

    Perturbations are scaled so the G2 distance is at most split/2, with
    the boundary case split/2 hit exactly on every fourth trial; the
    point-wise pairing cost must equal the assignment optimum exactly for
    all three aggregations.
    """
    rng = _rng_for(cfg, "splitting_lemma")
    tol = cfg.tolerances["splitting"]
    report = CheckReport("splitting_lemma", cfg.trials, 0, 0.0)
    # draw every trial first (no draw depends on a distance), then work by shape
    rows = []
    for trial in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        v = random_tuple(rng, Q, n)
        delta = rng.standard_normal((Q, n))
        total = math.sqrt(float((delta * delta).sum()))
        if total == 0.0:
            continue
        # radius * 1.0 is the radius itself: the boundary case
        factor = 1.0 if trial % 4 == 0 else rng.uniform(0.1, 0.999)
        rows.append((v.points, delta, total, factor))
    ok = np.ones(len(rows), dtype=bool)
    pairs = [None] * len(rows)
    for index, (V, D, total, factor) in _grouped(rows):
        s = split_distance_many(V)
        radius = np.where(np.isinf(s), 1.0, s / 2.0)
        D = D * (radius * factor / total)[:, None, None]
        W = V + D
        paired = np.linalg.norm(D, axis=2)
        targets = {
            MetricKind.G1: paired.sum(axis=1),
            MetricKind.G2: np.sqrt((paired * paired).sum(axis=1)),
            MetricKind.GINF: paired.max(axis=1),
        }
        for kind, target in targets.items():
            value = _in_blocks(dist_many, V, W, kind)
            gap = np.abs(value - target)
            report.worst_ratio = max(report.worst_ratio, float((gap / (1.0 + target)).max()))
            ok[index] &= gap <= tol * (1.0 + target)
        for t, v, w in zip(index, V, W):
            pairs[t] = (v, w)
    _record_pairs(report, pairs, ok)
    return report


def _frame(frames: dict, n: int, Q: int) -> embed.DirectionFrame:
    """The seed-7 frame for (n, Q), built on first use and kept in ``frames``."""
    key = (n, Q)
    if key not in frames:
        frames[key] = embed.build_frame(n, Q, seed=7)
    return frames[key]


def check_xi(cfg: CheckConfig, frame: embed.DirectionFrame = None,
             frames: dict = None) -> CheckReport:
    """Upper bound, local isometry and norm identity of the frame embedding.

    The reported ratio is the empirical lower Lipschitz constant (the
    smallest observed |xi(v) - xi(w)| / G2(v, w)), which must stay positive.
    Without a fixed ``frame`` each trial embeds with the seed-7 frame of
    its (n, Q), taken from and added to the cache ``frames`` when given.
    """
    rng = _rng_for(cfg, "xi")
    tol_up = cfg.tolerances["xi_upper"]
    tol_loc = cfg.tolerances["xi_local"]
    tol_norm = cfg.tolerances["xi_norm"]
    report = CheckReport("xi", cfg.trials, 0, math.inf)
    frames = {} if frames is None else frames
    # draw every trial first: the step towards ``near`` needs the isometry
    # radius, but its direction and length factor are drawn regardless
    rows, frame_of = [], {}
    for _ in range(cfg.trials):
        if frame is not None:
            Q, n, fr = frame.Q, frame.n, frame
        else:
            Q, n = _draw_Qn(rng, cfg)
            fr = _frame(frames, n, Q)
        frame_of[(Q, n)] = fr
        v = random_tuple(rng, Q, n)
        w = random_tuple(rng, Q, n)
        delta = rng.standard_normal((Q, n))
        total = math.sqrt(float((delta * delta).sum()))
        length = rng.uniform(0.05, 0.95) if total > 0 else 0.0
        rows.append((v.points, w.points, delta, total, length))
    ok = np.ones(len(rows), dtype=bool)
    for index, (V, W, D, total, length) in _grouped(rows):
        Q, n = V.shape[1:]
        fr = frame_of[(Q, n)]
        xv = embed.xi_many(V, fr)
        g2, _ = dist_many(V, W, MetricKind.G2)
        dxi = vector_norms(xv - embed.xi_many(W, fr))
        apart = g2 > 1e-12
        if apart.any():
            report.worst_ratio = min(report.worst_ratio, float((dxi[apart] / g2[apart]).min()))
        norm_gap = np.abs(vector_norms(xv) - dist_many(V, np.zeros((1, Q, n)), MetricKind.G2)[0])
        good = (dxi <= g2 + tol_up) & (norm_gap <= tol_norm)

        moved = total > 0
        r = embed.xi_isometry_radius_many(V[moved], fr)
        reach = np.where(np.isfinite(r), 0.5 * np.minimum(r, 10.0), 1.0)
        near = V[moved] + D[moved] * (reach * length[moved] / total[moved])[:, None, None]
        g2_near, _ = dist_many(V[moved], near, MetricKind.G2)
        dxi_near = vector_norms(xv[moved] - embed.xi_many(near, fr))
        good[moved] &= np.abs(dxi_near - g2_near) <= tol_loc
        ok[index] = good
    _record_pairs(report, rows, ok)
    if math.isinf(report.worst_ratio):
        report.worst_ratio = 0.0
    if report.worst_ratio <= 0.0 and report.failures == 0:
        report.failures = 1
    return report


def _lipschitz_grid(rng, m: int, Q: int, n: int, N: int = 9) -> np.ndarray:
    """A Lipschitz Q-valued map on the N^m grid over [-1, 1]^m, from smooth branches.

    Returns its values at the nodes in C order, shape (N**m, Q, n).
    """
    h = 2.0 / (N - 1)
    freq = rng.uniform(0.5, 2.0, size=(Q, n, m))
    phase = rng.uniform(0, 2 * math.pi, size=(Q, n))
    amp = rng.uniform(0.2, 1.0, size=(Q, n))
    x = (np.indices((N,) * m).reshape(m, -1).T - (N - 1) / 2.0) * h  # (nodes, m), C order
    # one dot product per (node, branch, coordinate): a stacked matmul rounds
    # as freq[i, c] @ x does, where einsum or an explicit sum can differ
    arg = (freq[None, :, :, None, :] @ x[:, None, None, :, None])[..., 0, 0]
    return amp * np.sin(arg + phase)


def _grid_edges(N: int, m: int):
    """``GridFunction.edge_index`` of the full N^m grid that ``_lipschitz_grid`` samples."""
    shape = (N,) * m
    grid = GridFunction(m, 1, 1, shape, 2.0 / (N - 1), square_mask(N, m), np.zeros(shape + (1, 1)))
    return grid.edge_index()


def check_sqrt_Q_bound(cfg: CheckConfig, frames: dict = None) -> CheckReport:
    """Embedded difference quotients stay below sqrt(Q) times the local slope.

    The local Lipschitz constant is measured in the max-pairing metric over
    the same neighbour pairs as the embedded quotient, which makes the
    sqrt(Q) factor sharp (a two-branch sign flip attains it).  Frames come
    from the cache ``frames`` as in ``check_xi``.  Q stays at most 3 unless
    ``Q_range`` starts above it.
    """
    rng = _rng_for(cfg, "sqrt_q_bound")
    tol = cfg.tolerances["sqrt_q"]
    report = CheckReport("sqrt_q_bound", cfg.trials, 0, 0.0)
    frames = {} if frames is None else frames
    lo, hi = cfg.Q_range
    N = 7
    h = 2.0 / (N - 1)
    # draw every trial first (no draw depends on a distance), then work by shape
    rows = []
    for _ in range(cfg.trials):
        Q = int(rng.integers(lo, min(hi, max(lo, 3)) + 1))
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
        rows.append((_lipschitz_grid(rng, m, Q, n, N=N), m))
    edges, failed = {}, []
    report.trials = 0
    for index, (X, M) in _grouped(rows):
        T, nodes, Q, n = X.shape
        m = int(M[0])
        if m not in edges:
            edges[m] = _grid_edges(N, m)
        u, v = edges[m]
        fr = _frame(frames, n, Q)
        flat = X.reshape(-1, Q, n)
        offset = (np.arange(T) * nodes)[:, None]
        ginf = _in_blocks(match_many, flat, flat, MetricKind.GINF, (u + offset).ravel(),
                          (v + offset).ravel()).reshape(T, u.size)
        quot = np.empty((T, u.size))
        # whole trials per block, so each block's edges stay inside it
        for block in _blocks(T, nodes * fr.ambient_length, _EMBED_ENTRIES):
            emb = embed.xi_many(X[block].reshape(-1, Q, n), fr).reshape(-1, nodes, fr.ambient_length)
            quot[block] = vector_norms(emb[:, u] - emb[:, v]) / h
        bound = math.sqrt(Q) * (ginf / h)
        report.trials += ginf.size
        sloped = ginf > 0
        if sloped.any():
            report.worst_ratio = max(report.worst_ratio,
                                     float((quot[sloped] / bound[sloped]).max()))
        for t, e in zip(*np.nonzero(quot > bound + tol)):
            failed.append((index[t], e, m))
    for _, e, m in sorted(failed):
        u, v = edges[m]
        edge = [np.unravel_index(k, (N,) * m) for k in (u[e], v[e])]
        report.record_failure(json.dumps({"edge": [[int(i) for i in a] for a in edge]}))
    return report


def check_poincare(cfg: CheckConfig) -> CheckReport:
    """Mean oscillation on convex subwindows is controlled by the q-energy.

    Finiteness of the constant is the assertion; its empirical value is the
    reported ratio and must stay below the configured cap.
    """
    rng = _rng_for(cfg, "poincare")
    cap = cfg.tolerances["poincare_c"]
    report = CheckReport("poincare", cfg.trials, 0, 0.0)
    N = 7
    h = 2.0 / (N - 1)
    # draw every trial first (no draw depends on a distance), then work by shape
    trials = []
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
        q = float(rng.choice([1.0, 2.0]))
        values = _lipschitz_grid(rng, m, Q, n, N=N)
        width = int(rng.integers(2, N + 1))
        lo = [int(rng.integers(0, N - width + 1)) for _ in range(m)]
        trials.append((values, m, q, width, lo))
    groups, edges = {}, {}
    for t, (values, *_) in enumerate(trials):
        groups.setdefault(values.shape[1:], []).append(t)
    best, rhs = np.empty(len(trials)), np.empty(len(trials))
    for index in groups.values():
        # one kernel call per shape: each trial's window edges, then every
        # (node, candidate) pair of its window, at that trial's node offset
        left, right, counts, offset = [], [], [], 0
        for t in index:
            values, m, _, width, lo = trials[t]
            if m not in edges:
                edges[m] = _grid_edges(N, m)
            u, v = edges[m]
            window = tuple(slice(a, a + width) for a in lo)
            nodes = np.arange(len(values)).reshape((N,) * m)[window].ravel()
            in_window = np.zeros(len(values), dtype=bool)
            in_window[nodes] = True
            inner = in_window[u] & in_window[v]
            k = nodes.size
            left += [u[inner] + offset, np.tile(nodes, k) + offset]
            right += [v[inner] + offset, np.repeat(nodes, k) + offset]
            counts.append((int(inner.sum()), k))
            offset += len(values)
        X = np.concatenate([trials[t][0] for t in index])
        sq = _in_blocks(match_many, X, X, MetricKind.G2, np.concatenate(left),
                        np.concatenate(right))
        start = 0
        for t, (n_inner, k) in zip(index, counts):
            _, m, q, width, _ = trials[t]
            terms = sq[start:start + n_inner + k * k] ** (q / 2.0)
            start += n_inner + k * k
            energy = h ** (m - q) * float(terms[:n_inner].sum())
            best[t] = float((terms[n_inner:].reshape(k, k) * h**m).sum(axis=1).min())
            rhs[t] = (h * (width - 1) * math.sqrt(m)) ** q * energy
    for t, (_, _, _, width, lo) in enumerate(trials):
        if rhs[t] == 0.0:
            if best[t] > 1e-12:
                report.record_failure(json.dumps({"window": lo, "width": width}))
            continue
        C = float(best[t] / rhs[t])
        report.worst_ratio = max(report.worst_ratio, C)
        if C > cap:
            report.record_failure(json.dumps({"window": lo, "width": width, "C": C}))
    return report


def check_zeta_bounds(cfg: CheckConfig) -> CheckReport:
    """Dictionary lower bound below the G1 upper bound; ratio 1 when Q = 1.

    The reported ratio is the smallest observed lower/upper over trials
    with positive distance; it must stay positive.
    """
    rng = _rng_for(cfg, "zeta_bounds")
    tol = cfg.tolerances["zeta"]
    report = CheckReport("zeta_bounds", cfg.trials, 0, math.inf)
    rows = []
    for trial in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        if trial % 3 == 0:
            Q = 1
        v = random_tuple(rng, Q, n)
        w = random_tuple(rng, Q, n)
        rows.append((v.points, w.points, int(rng.integers(0, 2**31))))
    ok = np.ones(len(rows), dtype=bool)
    for index, (V, W, seeds) in _grouped(rows):
        lower, upper = embed.zeta_dual_gap_many(V, W, seeds, dictionary_size=64)
        good = lower <= upper + tol
        if V.shape[1] == 1:
            good &= (upper <= 1e-9) | (np.abs(lower - upper) <= 1e-12 * (1.0 + upper))
        positive = upper > 1e-12
        if positive.any():
            ratio = lower[positive] / upper[positive]
            report.worst_ratio = min(report.worst_ratio, float(ratio.min()))
            good[positive] &= ratio > 0.0
        ok[index] = good
    _record_pairs(report, rows, ok)
    if math.isinf(report.worst_ratio):
        report.worst_ratio = 0.0
    return report


_ALL_CHECKS = (
    check_metric_equivalence,
    check_splitting_lemma,
    check_xi,
    check_sqrt_Q_bound,
    check_poincare,
    check_zeta_bounds,
)


# the checks that embed with the seed-7 frames; run_all lets them share one cache
_EMBEDDING_CHECKS = (check_xi, check_sqrt_Q_bound)


def run_all(cfg: CheckConfig) -> list:
    """Run every check; reports in a fixed order, each with its wall time.

    The embedding checks share one frame cache for the call, so each
    (n, Q) frame is built once per run, never carried over to the next.
    """
    frames = {}
    reports = []
    for check in _ALL_CHECKS:
        start = time.perf_counter()
        report = check(cfg, frames=frames) if check in _EMBEDDING_CHECKS else check(cfg)
        report.seconds = time.perf_counter() - start
        reports.append(report)
    return reports
