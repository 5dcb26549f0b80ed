"""Acceptance suite: one test per criterion, at the stated scale and tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s``); a
failed assertion marks the criterion failed.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qvalued.embed import (
    build_frame,
    whitney_count,
    whitney_eta,
    whitney_eta_inverse_1d,
    xi,
    xi_isometry_radius,
    zeta_dual_gap,
)
from qvalued.energy import discrete_energy, solve_dirichlet, truncate_coords
from qvalued.extend import BoundarySample, WhitneyExtension, cone_extend, extend_to_plane
from qvalued.grids import BOUNDARY, INTERIOR, OUTSIDE, disk_mask, empty_grid
from qvalued.qspace import MetricKind, QTuple, dist, split_distance

from oracles import brute_force_dist_batch, scalar_laplace_solve


def report(number, name, ok):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_assignment_oracle():
    rng = np.random.default_rng(20240801)
    perms_by_Q = {Q: np.array(list(itertools.permutations(range(Q))))
                  for Q in range(1, 7)}
    kinds = [(MetricKind.G1, "g1"), (MetricKind.G2, "g2"), (MetricKind.GINF, "ginf")]
    t0 = time.time()
    worst = 0.0
    count = 0
    for Q in range(1, 7):
        for n in range(1, 5):
            for trial in range(200):
                v = rng.uniform(-1, 1, (Q, n))
                w = rng.uniform(-1, 1, (Q, n))
                kind, tag = kinds[count % 3]
                count += 1
                value, _ = dist(QTuple(v), QTuple(w), kind)
                expect = brute_force_dist_batch(v, w, tag, perms_by_Q[Q])
                worst = max(worst, abs(value - expect))
    elapsed = time.time() - t0
    print(f"  oracle: {count} pairs, max gap {worst:.2e}, {elapsed:.1f}s")
    report(1, "assignment-metric oracle", worst <= 1e-9 and elapsed < 10.0)


def test_criterion_2_embedding_identities():
    rng = np.random.default_rng(20240802)
    frames = {(n, Q): build_frame(n, Q, seed=5)
              for n in (1, 2, 3) for Q in (1, 2, 3, 4)}

    # (C) norm identity on 1e4 random tuples
    worst_c = 0.0
    for _ in range(10_000):
        Q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        fr = frames[(n, Q)]
        v = QTuple(rng.uniform(-1, 1, (Q, n)))
        zero = QTuple(np.zeros((Q, n)))
        worst_c = max(
            worst_c,
            abs(float(np.linalg.norm(xi(v, fr).coords)) - dist(v, zero)[0]),
        )

    # (B) local isometry on 1e3 constructed near pairs
    worst_b = 0.0
    done = 0
    while done < 1000:
        Q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        fr = frames[(n, Q)]
        v = QTuple(rng.uniform(-1, 1, (Q, n)))
        r = xi_isometry_radius(v, fr)
        delta = rng.standard_normal((Q, n))
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            continue
        delta *= 0.9 * min(r, 1.0) / norm
        w = QTuple(v.points + delta)
        g2 = dist(v, w)[0]
        dxi = float(np.linalg.norm(xi(v, fr).coords - xi(w, fr).coords))
        worst_b = max(worst_b, abs(dxi - g2))
        done += 1

    # (A) upper bound on 1e4 pairs; empirical alpha reported
    worst_a = 0.0
    alpha = math.inf
    for _ in range(10_000):
        Q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        fr = frames[(n, Q)]
        v = QTuple(rng.uniform(-1, 1, (Q, n)))
        w = QTuple(rng.uniform(-1, 1, (Q, n)))
        g2 = dist(v, w)[0]
        dxi = float(np.linalg.norm(xi(v, fr).coords - xi(w, fr).coords))
        worst_a = max(worst_a, dxi - g2)
        if g2 > 1e-12:
            alpha = min(alpha, dxi / g2)
    print(f"  norm gap {worst_c:.2e}, isometry gap {worst_b:.2e}, "
          f"upper slack {worst_a:.2e}, empirical alpha {alpha:.4f}")
    report(
        2, "frame embedding identities",
        worst_c <= 1e-12 and worst_b <= 1e-9 and worst_a <= 1e-9 and alpha > 0,
    )


def test_criterion_3_splitting_lemma():
    rng = np.random.default_rng(20240803)
    failures = 0
    for trial in range(10_000):
        Q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        if trial % 3 == 0:
            k = int(rng.integers(1, Q + 1))
            centers = rng.uniform(-1, 1, (k, n))
            v = QTuple(centers[rng.integers(0, k, Q)] + 0.01 * rng.standard_normal((Q, n)))
        else:
            v = QTuple(rng.uniform(-1, 1, (Q, n)))
        s = split_distance(v)
        radius = 1.0 if math.isinf(s) else s / 2.0
        delta = rng.standard_normal((Q, n))
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            continue
        scale = radius if trial % 4 == 0 else radius * float(rng.uniform(0.05, 0.999))
        delta *= scale / norm
        w = QTuple(v.points + delta)
        paired = np.linalg.norm(delta, axis=1)
        targets = (
            (MetricKind.G1, float(paired.sum())),
            (MetricKind.G2, math.sqrt(float((paired**2).sum()))),
            (MetricKind.GINF, float(paired.max())),
        )
        for kind, expect in targets:
            value = dist(v, w, kind)[0]
            if abs(value - expect) > 1e-12 * (1.0 + expect):
                failures += 1
    print(f"  splitting lemma: {failures} failures / 10000 instances")
    report(3, "splitting lemma suite", failures == 0)


def test_criterion_4_whitney_round_trip():
    rng = np.random.default_rng(20240804)
    worst = 0.0
    done = 0
    while done < 1000:
        Q = int(rng.integers(2, 5))
        pts = rng.uniform(-1, 1, (Q, 2))
        gaps = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        if gaps[np.triu_indices(Q, 1)].min() < 0.1:
            continue
        done += 1
        v = QTuple(pts)
        eta = whitney_eta(v, complex_mul=True)
        coeffs = [eta[(i,)] for i in range(1, Q + 1)]
        w = whitney_eta_inverse_1d(coeffs, as_complex=True)
        worst = max(worst, dist(v, w)[0])
    counts_ok = all(
        len(whitney_eta(QTuple(rng.uniform(-1, 1, (Q, n)))))
        == whitney_count(n, Q)
        == math.comb(Q + n, n) - 1
        for n in (1, 2, 3)
        for Q in (1, 2, 3, 4)
    )
    print(f"  round-trip worst G2 {worst:.2e}, counts {'ok' if counts_ok else 'BAD'}")
    report(4, "polynomial-coefficient round trip", worst <= 1e-6 and counts_ok)


def test_criterion_5_truncation_monotonicity():
    rng = np.random.default_rng(20240805)
    violations = 0
    for _ in range(1000):
        Q = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        N = 4 if m == 2 else 6
        g = empty_grid(m, n, Q, N)
        inside = g.mask != OUTSIDE
        g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), Q, n))
        reports = [discrete_energy(truncate_coords(g, k), 2.0)
                   for k in range(1, n + 1)]
        for ra, rb in zip(reports, reports[1:]):
            for (_, ca, _), (_, cb, _) in zip(ra.per_edge, rb.per_edge):
                if ca > cb + 1e-12:
                    violations += 1
    print(f"  truncation monotonicity: {violations} per-edge violations / 1000 grids")
    report(5, "energy monotone under coordinate truncation", violations == 0)


def test_criterion_6_dirichlet_q1_affine():
    t0 = time.time()
    N = 64
    grid = empty_grid(2, 1, 1, N)
    a = np.array([0.8, -0.45])
    c = 0.1
    scalar_boundary = {}
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        x = grid.node_coords(idx)
        val = float(a @ x + c)
        grid.values[idx] = [[val]]
        scalar_boundary[idx] = val
    sol, rep, history = solve_dirichlet(grid, grid, 2.0, restarts=1, tol=1e-12)
    interior = set(grid.nodes(kinds=(INTERIOR,)))
    expected = scalar_laplace_solve(interior, scalar_boundary, grid.shape)
    worst = max(
        abs(sol.values[idx][0, 0] - expected[idx]) for idx in interior
    )
    monotone = all(
        e1 <= e0 + 1e-12 * (1 + e0) for e0, e1 in zip(history, history[1:])
    )
    elapsed = time.time() - t0
    print(f"  64x64 affine: max node gap {worst:.2e}, {elapsed:.1f}s, "
          f"history monotone {monotone}")
    report(6, "Q=1 Dirichlet vs scalar Laplacian",
           worst <= 1e-8 and monotone and elapsed < 30.0)


def sqrt_pair(x, y):
    r = math.hypot(x, y)
    t = math.atan2(y, x) / 2.0
    s = math.sqrt(r)
    return np.array([[s * math.cos(t), s * math.sin(t)],
                     [-s * math.cos(t), -s * math.sin(t)]])


def test_criterion_7_dirichlet_q2_disk_sqrt():
    t0 = time.time()
    N = 64
    grid = empty_grid(2, 2, 2, N, disk_mask(N))
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        x = grid.node_coords(idx)
        u = x / np.linalg.norm(x)
        grid.values[idx] = sqrt_pair(u[0], u[1])
    candidate = grid.copy()
    for idx in grid.nodes(kinds=(INTERIOR,)):
        x = grid.node_coords(idx)
        candidate.values[idx] = sqrt_pair(x[0], x[1])
    oracle = discrete_energy(candidate, 2.0).total
    sol, rep, history = solve_dirichlet(grid, grid, 2.0, restarts=3, seed=0)
    elapsed = time.time() - t0
    print(f"  disk sqrt: solver {rep.total:.8f} <= candidate {oracle:.8f} + 1e-6, "
          f"{elapsed:.1f}s, converged {rep.converged}")
    report(7, "Q=2 disk square-root energy", rep.total <= oracle + 1e-6
           and elapsed < 300.0)


def test_criterion_8_zeta_bounds():
    rng = np.random.default_rng(20240808)
    ok = True
    q1_worst = 0.0
    min_ratio = math.inf
    for trial in range(2000):
        Q = 1 if trial % 4 == 0 else int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        v = QTuple(rng.uniform(-1, 1, (Q, n)))
        w = QTuple(rng.uniform(-1, 1, (Q, n)))
        lower, upper = zeta_dual_gap(v, w, dictionary_size=64,
                                     seed=int(rng.integers(0, 2**31)))
        if lower > upper + 1e-12:
            ok = False
        if Q == 1 and upper > 1e-9:
            q1_worst = max(q1_worst, abs(lower / upper - 1.0))
        if upper > 1e-12:
            min_ratio = min(min_ratio, lower / upper)
    print(f"  zeta: Q=1 ratio gap {q1_worst:.2e}, min ratio {min_ratio:.4f}")
    report(8, "dual-functional bounds",
           ok and q1_worst <= 1e-12 and min_ratio > 0)


def test_criterion_9_extensions():
    rng = np.random.default_rng(20240809)

    # cone and dyadic extensions reproduce their data exactly
    locs = [np.array([math.cos(t), math.sin(t)])
            for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    vals = [QTuple(rng.uniform(-1, 1, (2, 2))) for _ in locs]
    sample = BoundarySample(points=list(zip(locs, vals)), R=1.0, m=2)
    cone_exact = all(
        np.array_equal(cone_extend(sample, loc).points, val.points)
        for loc, val in sample.points
    )
    data = [(rng.uniform(0, 1, 2), QTuple(rng.uniform(-1, 1, (2, 1))))
            for _ in range(5)]
    ext = WhitneyExtension(data, [[0, 1], [0, 1]], 6)
    whitney_exact = all(
        np.array_equal(ext.evaluate(loc).points, val.points)
        for loc, val in data
    )

    # plane extension: zero beyond 3/2, homogeneity exact
    N = 33
    g = empty_grid(2, 2, 2, N, disk_mask(N))
    inside = g.mask != OUTSIDE
    g.values[inside] = rng.uniform(-1, 1, (int(inside.sum()), 2, 2))
    E = extend_to_plane(g)
    r = np.linalg.norm(E.all_coords(), axis=-1)
    far_zero = bool(np.all(E.values[r >= 1.5] == 0.0))
    t = 0.3
    scaled = g.copy()
    scaled.values[inside] = t * g.values[inside]
    Et = extend_to_plane(scaled)
    keep = E.mask != OUTSIDE
    homog_plane = float(np.abs(t * E.values[keep] - Et.values[keep]).max())

    # homogeneity of the cone and dyadic extensions
    sample_t = BoundarySample(
        points=[(l, QTuple(t * v.points)) for l, v in sample.points], R=1.0, m=2
    )
    ext_t = WhitneyExtension(
        [(l, QTuple(t * v.points)) for l, v in data], [[0, 1], [0, 1]], 6
    )
    homog_ops = 0.0
    for _ in range(25):
        q = rng.uniform(0, 1, 2)
        a = ext.evaluate(q).canonical().points
        b = ext_t.evaluate(q).canonical().points
        homog_ops = max(homog_ops, float(np.abs(t * a - b).max()))
        angle = rng.uniform(0, 2 * math.pi)
        qc = math.sqrt(rng.uniform(0, 1)) * np.array([math.cos(angle), math.sin(angle)])
        a = cone_extend(sample, qc).canonical().points
        b = cone_extend(sample_t, qc).canonical().points
        homog_ops = max(homog_ops, float(np.abs(t * a - b).max()))

    print(f"  reproduction cone {cone_exact} dyadic {whitney_exact}, far zero "
          f"{far_zero}, homogeneity {max(homog_plane, homog_ops):.2e}")
    report(9, "extension operators",
           cone_exact and whitney_exact and far_zero
           and homog_plane <= 1e-12 and homog_ops <= 1e-12)


def test_criterion_10_sqrt_Q_quotient_bound():
    rng = np.random.default_rng(20240810)
    frames = {}
    worst_excess = 0.0
    for _ in range(40):
        Q = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        N = 7
        g = empty_grid(m, n, Q, N)
        h = g.h
        freq = rng.uniform(0.5, 2.0, size=(Q, n, m))
        phase = rng.uniform(0, 2 * math.pi, size=(Q, n))
        amp = rng.uniform(0.2, 1.0, size=(Q, n))
        for idx in g.nodes():
            x = g.node_coords(idx)
            for i in range(Q):
                for c in range(n):
                    g.values[idx][i, c] = amp[i, c] * math.sin(
                        float(freq[i, c] @ x) + phase[i, c]
                    )
        if (n, Q) not in frames:
            frames[(n, Q)] = build_frame(n, Q, seed=5)
        fr = frames[(n, Q)]
        emb = {idx: xi(QTuple(g.values[idx]), fr).coords for idx in g.nodes()}
        for u, v in g.edges():
            quot = float(np.linalg.norm(emb[u] - emb[v])) / h
            gi = dist(QTuple(g.values[u]), QTuple(g.values[v]), MetricKind.GINF)[0]
            worst_excess = max(worst_excess, quot - math.sqrt(Q) * gi / h)
    print(f"  sqrt(Q) bound: worst excess {worst_excess:.2e}")
    report(10, "sqrt(Q) difference-quotient bound", worst_excess <= 1e-6)
