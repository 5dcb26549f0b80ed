"""Empirical property harness for the provable identities and inequalities.

Every check draws random instances from a seeded generator, counts
violations at configurable tolerances, and reports the extremal observed
ratio along with up to five failing witnesses.  Checks are independent and
reproducible bit for bit under a fixed seed.

No draw depends on a distance, so each check makes all of its draws first,
in one fixed stream order, and then works on stacks of trials of one shape:
a few calls of the assignment kernel and the embedding per shape, the
Lipschitz maps of the grid checks as one stacked matmul per (m, Q, n), and
the Poincare windows' index pairs shifted from one template per (m, width).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import embed
from ._fields import _MAX_ENTRIES, ArgumentError, _int_field, _is_int, _is_number, _short
from .grids import _blocks, empty_grid
from .qspace import MetricKind, dist_many, match_many, split_distance_many, vector_norms

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


# tuple pairs per stacked assignment-kernel call, and embedded coordinates
# per stacked embedding call: both bound the memory a stacked check takes
_KERNEL_ROWS = 2048
_EMBED_ENTRIES = 1 << 15


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
        for name, lowest in (("seed", 0), ("trials", 1)):
            _int_field(vars(self), name, lowest)
        for name in ("Q_range", "n_range", "m_range"):
            rng = getattr(self, name)
            # the draws take int64 bounds; past 2**31 the sizes are out of reach anyway
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2 and all(map(_is_int, rng))
                    and 1 <= rng[0] <= rng[1] < 2**31):
                raise ArgumentError(name, f"field '{name}' must be a list of two integers "
                                          f"lo <= hi in [1, 2**31), got {_short(rng)}")
            setattr(self, name, tuple(rng))
        Q, n, m = self.Q_range[1], self.n_range[1], self.m_range[1]
        nodes = 7 ** min(m, 5)  # from m = 5 on, one trial's window pairs pass the bound
        # the largest arrays: check_poincare's window pairs (trials * 49**m) and grid
        # points (trials * 7**m * Q * n), and a kernel call's point differences
        for entries, what, names in (
            (self.trials * nodes * nodes, "window pairs in check_poincare", "m_range trials"),
            (self.trials * nodes * Q * n, "grid points in check_poincare",
             "Q_range n_range m_range trials"),
            (max(self.trials, _KERNEL_ROWS) * Q * Q * n,
             "point differences in one assignment-kernel call", "Q_range n_range trials"),
        ):
            if entries > _MAX_ENTRIES:
                given = ", ".join(f"{name} {json.dumps(getattr(self, name))}"
                                  for name in names.split())
                raise ArgumentError(names.split()[0], f"{given} ask for over {_MAX_ENTRIES} "
                                                      f"{what}; lower one of them")
        if not (isinstance(self.tolerances, dict)
                and all(map(_is_number, self.tolerances.values()))):
            raise ArgumentError("tolerances", f"field 'tolerances' must map names to numbers, "
                                              f"got {_short(self.tolerances)}")
        for name, value in self.tolerances.items():
            if name not in _DEFAULT_TOLERANCES:
                raise ArgumentError("tolerances", f"tolerances has unknown name {name!r}; expected "
                                                  f"one of {', '.join(_DEFAULT_TOLERANCES)}")
            # every comparison with NaN is false: the check would pass or fail every
            # trial; an int past the largest float would not convert
            if not abs(value) <= sys.float_info.max:
                raise ArgumentError("tolerances", f"tolerances[{name!r}] must be a finite "
                                                  f"number, got {value!r}")
        merged = dict(_DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        self.tolerances = merged

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "CheckConfig":
        """Parse the text that ``to_json`` writes, as ``from_obj`` does."""
        return cls.from_obj(json.loads(text))

    @classmethod
    def from_obj(cls, obj) -> "CheckConfig":
        """Build from the parsed JSON object that ``to_json`` writes, a field left
        out taking its default.  A bad or unknown field raises ``ArgumentError``
        naming it."""
        known = [f.name for f in fields(cls)]
        if not isinstance(obj, dict):
            raise ArgumentError("config", f"expected a JSON object with fields among "
                                          f"{', '.join(known)}, got {_short(obj)}")
        for name in obj:
            if name not in known:
                raise ArgumentError(name, f"unknown field '{name}'; expected one of "
                                          f"{', '.join(known)}")
        return cls(**obj)


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
        out = asdict(self)
        del out["seconds"]
        return out


def _rng_for(cfg: CheckConfig, name: str) -> np.random.Generator:
    return np.random.default_rng(cfg.seed * 1000003 + _CHECK_OFFSETS[name])


def random_points(rng: np.random.Generator, Q: int, n: int) -> np.ndarray:
    """The (Q, n) points of a random tuple: uniform in [-1, 1]^n, sometimes
    clustered to shrink the split gap."""
    if Q > 1 and rng.random() < 0.4:
        k = int(rng.integers(1, Q + 1))
        centers = rng.uniform(-1.0, 1.0, size=(k, n))
        assign = rng.integers(0, k, size=Q)
        return centers[assign] + 0.02 * rng.standard_normal((Q, n))
    return rng.uniform(-1.0, 1.0, size=(Q, n))


def _draw_Qn(rng, cfg):
    Q = int(rng.integers(cfg.Q_range[0], cfg.Q_range[1] + 1))
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    return Q, n


def check_metric_equivalence(cfg: CheckConfig) -> CheckReport:
    """G_inf <= G2 <= G1 <= Q G_inf and G2 <= sqrt(Q) G_inf on random pairs."""
    rng = _rng_for(cfg, "metric_equivalence")
    tol = cfg.tolerances["equivalence"]
    report = CheckReport("metric_equivalence", cfg.trials, 0, 0.0)
    rows = []
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        v = random_points(rng, Q, n)
        w = random_points(rng, Q, n)
        rows.append((v, w))
    ok = np.ones(len(rows), dtype=bool)
    for index, (V, W) in _grouped(rows):
        Q = V.shape[1]
        g1, g2, gi = (_in_blocks(dist_many, V, W, kind) for kind in MetricKind)
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
        # take copies rows about twice as fast as fancy indexing
        out[block] = kernel(A.take(left[block], axis=0), B.take(right[block], axis=0), kind)[0]
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
        v = random_points(rng, Q, n)
        delta = rng.standard_normal((Q, n))
        total = math.sqrt(float((delta * delta).sum()))
        if total == 0.0:
            continue
        # radius * 1.0 is the radius itself: the boundary case
        factor = 1.0 if trial % 4 == 0 else rng.uniform(0.1, 0.999)
        rows.append((v, delta, total, factor))
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


def check_xi(cfg: CheckConfig, frames: dict = None) -> CheckReport:
    """Upper bound, local isometry and norm identity of the frame embedding.

    The reported ratio is the empirical lower Lipschitz constant (the
    smallest observed |xi(v) - xi(w)| / G2(v, w)), which must stay positive.
    Each trial embeds with the seed-7 frame of its (n, Q), taken from and
    added to the cache ``frames`` when given.
    """
    rng = _rng_for(cfg, "xi")
    tol_up = cfg.tolerances["xi_upper"]
    tol_loc = cfg.tolerances["xi_local"]
    tol_norm = cfg.tolerances["xi_norm"]
    report = CheckReport("xi", cfg.trials, 0, math.inf)
    frames = {} if frames is None else frames
    # draw every trial first: the step towards ``near`` needs the isometry
    # radius, but its direction and length factor are drawn regardless
    rows = []
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        v = random_points(rng, Q, n)
        w = random_points(rng, Q, n)
        delta = rng.standard_normal((Q, n))
        total = math.sqrt(float((delta * delta).sum()))
        length = rng.uniform(0.05, 0.95) if total > 0 else 0.0
        rows.append((v, w, delta, total, length))
    ok = np.ones(len(rows), dtype=bool)
    for index, (V, W, D, total, length) in _grouped(rows):
        Q, n = V.shape[1:]
        fr = _frame(frames, n, Q)
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


def _lipschitz_draws(rng, m: int, Q: int, n: int):
    """The frequencies (Q, n, m), phases and amplitudes (Q, n) of the smooth
    branches of one Lipschitz Q-valued map, drawn in that order."""
    return (rng.uniform(0.5, 2.0, size=(Q, n, m)), rng.uniform(0, 2 * math.pi, size=(Q, n)),
            rng.uniform(0.2, 1.0, size=(Q, n)))


def _lipschitz_grids(freq, phase, amp, N: int) -> np.ndarray:
    """The Lipschitz Q-valued maps of a stack of draws on the N^m grid over [-1, 1]^m.

    ``freq`` (T, Q, n, m), ``phase`` and ``amp`` (T, Q, n) stack the draws of
    ``_lipschitz_draws``; map t's branch (i, c) is ``amp * sin(freq . x + phase)``.
    Returns the values at the nodes in C order, shape (T, N**m, Q, n).
    """
    m = freq.shape[3]
    x = (np.indices((N,) * m).reshape(m, -1).T - (N - 1) / 2.0) * (2.0 / (N - 1))  # C order
    # one dot product per (map, node, branch, coordinate): a stacked matmul
    # rounds as freq[t, i, c] @ x does, where einsum or an explicit sum can differ
    arg = (freq[:, None, :, :, None, :] @ x[None, :, None, None, :, None])[..., 0, 0]
    return amp[:, None] * np.sin(arg + phase[:, None])


def _grid_edges(N: int, m: int):
    """``GridFunction.edge_index`` of the full N^m grid that ``_lipschitz_grids`` samples."""
    return empty_grid(m, 1, 1, N).edge_index()


def _window_pairs(N: int, m: int, width: int):
    """The kernel's index pairs for the width^m window at the origin of the N^m grid.

    Returns ``(left, right, inner, apart)``.  ``left`` and ``right`` hold
    first the ``inner`` grid edges with both ends in the window, in
    ``edge_index`` order, then the (k, k) pairs of the k window nodes in C
    order, row r pairing each window node with node r, less the k pairs of a
    node with itself; ``apart`` marks the pairs kept.  Flat indices are
    linear in the node coordinates, so the window at ``lo`` has the same
    pairs, in the same order, shifted by the flat index of ``lo``.
    """
    u, v = _grid_edges(N, m)
    nodes = np.arange(N**m).reshape((N,) * m)[(slice(0, width),) * m].ravel()
    in_window = np.zeros(N**m, dtype=bool)
    in_window[nodes] = True
    inner = in_window[u] & in_window[v]
    k = nodes.size
    apart = ~np.eye(k, dtype=bool).ravel()
    left = np.concatenate([u[inner], np.tile(nodes, k)[apart]])
    right = np.concatenate([v[inner], np.repeat(nodes, k)[apart]])
    return left, right, int(inner.sum()), apart


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
        rows.append(_lipschitz_draws(rng, m, Q, n))
    edges, failed = {}, []
    report.trials = 0
    for index, draws in _grouped(rows):
        X = _lipschitz_grids(*draws, N)
        T, nodes, Q, n = X.shape
        m = draws[0].shape[3]
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
            quot[block] = vector_norms(emb.take(u, axis=1) - emb.take(v, axis=1)) / h
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
    reported ratio and must stay below the configured cap.  The G2 costs of
    every trial's window pairs come from one kernel pass per (Q, n), and the
    sums over them from one stacked reduction per window shape in it.
    """
    rng = _rng_for(cfg, "poincare")
    cap = cfg.tolerances["poincare_c"]
    report = CheckReport("poincare", cfg.trials, 0, 0.0)
    N = 7
    h = 2.0 / (N - 1)
    # draw every trial first (no draw depends on a distance), then work by shape
    draws, windows = [], []
    for _ in range(cfg.trials):
        Q, n = _draw_Qn(rng, cfg)
        m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
        # the one draw rng.choice([1.0, 2.0]) makes, at a quarter of its cost
        q = (1.0, 2.0)[int(rng.integers(0, 2))]
        draws.append(_lipschitz_draws(rng, m, Q, n))
        width = int(rng.integers(2, N + 1))
        lo = [int(rng.integers(0, N - width + 1)) for _ in range(m)]
        windows.append((m, q, width, lo))
    T = len(draws)
    values = [None] * T
    for index, stacked in _grouped(draws):
        for t, x in zip(index, _lipschitz_grids(*stacked, N)):
            values[t] = x
    # one kernel call per (Q, n): each trial's window pairs, at its window's
    # corner and its grid's offset in the stack, whatever its m; then, per
    # window shape, one stacked reduction for its trials in the group
    pairs, by_shape = {}, {}
    for t, x in enumerate(values):
        by_shape.setdefault(x.shape[1:], []).append(t)
    energy_sum, best = np.empty(T), np.empty(T)
    for index in by_shape.values():
        left, right, offset, start, by_window = [], [], 0, 0, {}
        for t in index:
            m, _, width, lo = windows[t]
            if (m, width) not in pairs:
                pairs[m, width] = _window_pairs(N, m, width)
            shift = offset + int(np.ravel_multi_index(lo, (N,) * m))
            left.append(pairs[m, width][0] + shift)
            right.append(pairs[m, width][1] + shift)
            by_window.setdefault((m, width), []).append((t, start))
            offset += len(values[t])
            start += left[-1].size
        X = np.concatenate([values[t] for t in index])
        out = _in_blocks(match_many, X, X, MetricKind.G2, np.concatenate(left),
                         np.concatenate(right))
        for (m, width), rows in by_window.items():
            _, _, inner, apart = pairs[m, width]
            k = width**m
            group = [t for t, _ in rows]
            terms = np.array([out[s:s + inner + k * k - k] for _, s in rows])
            # cost ** (q / 2): the cost itself at q = 2, its square root at q = 1
            # (numpy computes x ** 0.5 as sqrt; an array of exponents would go
            # through pow and can differ in the last bit)
            root = np.array([windows[t][1] == 1.0 for t in group])[:, None]
            np.sqrt(terms, out=terms, where=root)
            # a contiguous row sums as the 1-D array of it does
            energy_sum[group] = np.ascontiguousarray(terms[:, :inner]).sum(axis=1)
            full = np.zeros((len(group), k * k))
            full[:, apart] = terms[:, inner:]
            full *= h**m
            best[group] = full.reshape(-1, k, k).sum(axis=2).min(axis=1)
    for t, (m, q, width, lo) in enumerate(windows):
        energy = h ** (m - q) * float(energy_sum[t])
        rhs = (h * (width - 1) * math.sqrt(m)) ** q * energy
        if rhs == 0.0:
            if best[t] > 1e-12:
                report.record_failure(json.dumps({"window": lo, "width": width}))
            continue
        C = float(best[t] / rhs)
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
        v = random_points(rng, Q, n)
        w = random_points(rng, Q, n)
        rows.append((v, w, int(rng.integers(0, 2**31))))
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
