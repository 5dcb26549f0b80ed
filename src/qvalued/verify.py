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
from .grids import GridFunction, square_mask
from .qspace import (MetricKind, QTuple, dist, dist_many, match_many, split_distance,
                     vector_norms)

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


def check_metric_equivalence(cfg: CheckConfig, _dist=None) -> CheckReport:
    """G_inf <= G2 <= G1 <= Q G_inf and G2 <= sqrt(Q) G_inf on random pairs."""
    d = _dist or dist
    rng = _rng_for(cfg, "metric_equivalence")
    tol = cfg.tolerances["equivalence"]
    report = CheckReport("metric_equivalence", cfg.trials, 0, 0.0)
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        v = random_tuple(rng, Q, n)
        w = random_tuple(rng, Q, n)
        g1, _ = d(v, w, MetricKind.G1)
        g2, _ = d(v, w, MetricKind.G2)
        gi, _ = d(v, w, MetricKind.GINF)
        ok = (
            gi <= g2 + tol
            and g2 <= g1 + tol
            and g1 <= Q * gi + tol
            and g2 <= math.sqrt(Q) * gi + tol
        )
        if gi > 0:
            report.worst_ratio = max(report.worst_ratio, g1 / (Q * gi))
        if not ok:
            report.record_failure(json.dumps({"v": v.points.tolist(), "w": w.points.tolist()}))
    return report


def _grouped(rows: list):
    """Trials stacked by the (Q, n) shape of their tuples, in first-seen order.

    ``rows`` holds one tuple of arrays per trial, the first of shape (Q, n).
    Yields, per shape, the positions of its trials in ``rows`` and one
    stacked array per field.
    """
    groups = {}
    for t, row in enumerate(rows):
        groups.setdefault(row[0].shape, []).append(t)
    for index in groups.values():
        yield np.array(index), [np.array([rows[t][k] for t in index])
                                for k in range(len(rows[index[0]]))]


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
    # draw every trial first (no draw depends on a distance), then match by shape
    rows = []
    for trial in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        v = random_tuple(rng, Q, n)
        s = split_distance(v)
        radius = 1.0 if math.isinf(s) else s / 2.0
        delta = rng.standard_normal((Q, n))
        total = math.sqrt(float((delta * delta).sum()))
        if total == 0.0:
            continue
        scale = radius if trial % 4 == 0 else radius * rng.uniform(0.1, 0.999)
        delta *= scale / total
        rows.append((v.points, v.points + delta, delta))
    ok = np.ones(len(rows), dtype=bool)
    for index, (V, W, D) in _grouped(rows):
        paired = np.linalg.norm(D, axis=2)
        targets = {
            MetricKind.G1: paired.sum(axis=1),
            MetricKind.G2: np.sqrt((paired * paired).sum(axis=1)),
            MetricKind.GINF: paired.max(axis=1),
        }
        for kind, target in targets.items():
            value, _ = dist_many(V, W, kind)
            gap = np.abs(value - target)
            report.worst_ratio = max(report.worst_ratio, float((gap / (1.0 + target)).max()))
            ok[index] &= gap <= tol * (1.0 + target)
    for (v, w, _), good in zip(rows, ok):
        if not good:
            report.record_failure(json.dumps({"v": v.tolist(), "w": w.tolist()}))
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
    for (v, w, *_), good in zip(rows, ok):
        if not good:
            report.record_failure(json.dumps({"v": v.tolist(), "w": w.tolist()}))
    if math.isinf(report.worst_ratio):
        report.worst_ratio = 0.0
    if report.worst_ratio <= 0.0 and report.failures == 0:
        report.failures = 1
    return report


def _lipschitz_grid(rng, m: int, Q: int, n: int, N: int = 9) -> GridFunction:
    """A Lipschitz Q-valued grid function built from smooth branches."""
    mask = square_mask(N, m)
    shape = (N,) * m
    h = 2.0 / (N - 1)
    freq = rng.uniform(0.5, 2.0, size=(Q, n, m))
    phase = rng.uniform(0, 2 * math.pi, size=(Q, n))
    amp = rng.uniform(0.2, 1.0, size=(Q, n))
    x = (np.indices(shape).reshape(m, -1).T - (N - 1) / 2.0) * h  # (nodes, m), C order
    # one dot product per (node, branch, coordinate): a stacked matmul rounds
    # as freq[i, c] @ x does, where einsum or an explicit sum can differ
    arg = (freq[None, :, :, None, :] @ x[:, None, None, :, None])[..., 0, 0]
    values = amp * np.sin(arg + phase)
    return GridFunction(m, n, Q, shape, h, mask, values.reshape(shape + (Q, n)))


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
    trials = 0
    for _ in range(cfg.trials):
        Q = int(rng.integers(lo, min(hi, max(lo, 3)) + 1))
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
        f = _lipschitz_grid(rng, m, Q, n, N=7)
        fr = _frame(frames, n, Q)
        X = f.values.reshape(-1, Q, n)
        emb = embed.xi_many(X, fr)
        left, right = f.edge_index()
        ginf, _ = match_many(X[left], X[right], MetricKind.GINF)
        quot = vector_norms(emb[left] - emb[right]) / f.h
        bound = math.sqrt(Q) * (ginf / f.h)
        trials += left.size
        sloped = ginf > 0
        if sloped.any():
            report.worst_ratio = max(report.worst_ratio,
                                     float((quot[sloped] / bound[sloped]).max()))
        for e in np.flatnonzero(quot > bound + tol):
            edge = [np.unravel_index(k, f.shape) for k in (left[e], right[e])]
            report.record_failure(json.dumps({"edge": [[int(i) for i in u] for u in edge]}))
    report.trials = trials
    return report


def check_poincare(cfg: CheckConfig) -> CheckReport:
    """Mean oscillation on convex subwindows is controlled by the q-energy.

    Finiteness of the constant is the assertion; its empirical value is the
    reported ratio and must stay below the configured cap.
    """
    rng = _rng_for(cfg, "poincare")
    cap = cfg.tolerances["poincare_c"]
    report = CheckReport("poincare", cfg.trials, 0, 0.0)
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
        q = float(rng.choice([1.0, 2.0]))
        N = 7
        f = _lipschitz_grid(rng, m, Q, n, N=N)
        width = int(rng.integers(2, N + 1))
        lo = [int(rng.integers(0, N - width + 1)) for _ in range(m)]
        window = np.indices((width,) * m).reshape(m, -1) + np.array(lo)[:, None]
        nodes = np.ravel_multi_index(tuple(window), f.shape)
        k = nodes.size
        cell = f.h**m
        diam = f.h * (width - 1) * math.sqrt(m)
        u, v = f.edge_index()
        in_window = np.zeros(f.mask.size, dtype=bool)
        in_window[nodes] = True
        inner = in_window[u] & in_window[v]
        # one kernel call: the window's edges, then every (node, candidate) pair
        left = np.concatenate([u[inner], np.tile(nodes, k)])
        right = np.concatenate([v[inner], np.repeat(nodes, k)])
        X = f.values.reshape(-1, Q, n)
        sq, _ = match_many(X[left], X[right], MetricKind.G2)
        terms = sq ** (q / 2.0)
        n_inner = int(inner.sum())
        energy = f.h ** (m - q) * float(terms[:n_inner].sum())
        best = float((terms[n_inner:].reshape(k, k) * cell).sum(axis=1).min())
        rhs = diam**q * energy
        if rhs == 0.0:
            if best > 1e-12:
                report.record_failure(json.dumps({"window": lo, "width": width}))
            continue
        C = best / rhs
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
    for trial in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        if trial % 3 == 0:
            Q = 1
        v = random_tuple(rng, Q, n)
        w = random_tuple(rng, Q, n)
        lower, upper = embed.zeta_dual_gap(v, w, dictionary_size=64,
                                           seed=int(rng.integers(0, 2**31)))
        ok = lower <= upper + tol
        if Q == 1 and upper > 1e-9:
            ok = ok and abs(lower - upper) <= 1e-12 * (1.0 + upper)
        if upper > 1e-12:
            ratio = lower / upper
            report.worst_ratio = min(report.worst_ratio, ratio)
            if ratio <= 0.0:
                ok = False
        if not ok:
            report.record_failure(json.dumps({"v": v.points.tolist(), "w": w.points.tolist()}))
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
