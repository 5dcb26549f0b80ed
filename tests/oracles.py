"""Independent oracles used by the tests.

Brute force over all pairings deliberately avoids the library's assignment
solvers so that the fast paths are checked against an unrelated
computation.  The per-edge references below are the node-by-node and
edge-by-edge code that the library's array paths replaced; the
differential tests hold the array paths to them.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu


def pairing_cost(v_pts, w_pts, perm, kind):
    d = [
        float(np.linalg.norm(np.asarray(v_pts[i]) - np.asarray(w_pts[perm[i]])))
        for i in range(len(v_pts))
    ]
    if kind == "g1":
        return sum(d)
    if kind == "g2":
        return math.sqrt(sum(x * x for x in d))
    if kind == "ginf":
        return max(d)
    raise ValueError(kind)


def brute_force_dist(v_pts, w_pts, kind):
    """Minimum over all permutations; also returns the first lexicographic argmin."""
    best = math.inf
    arg = None
    for perm in itertools.permutations(range(len(v_pts))):
        val = pairing_cost(v_pts, w_pts, perm, kind)
        if val < best:
            best, arg = val, perm
    return best, arg


def brute_force_dist_batch(v_pts, w_pts, kind, perms):
    """Vectorized brute force given a precomputed permutation array."""
    v = np.asarray(v_pts)
    w = np.asarray(w_pts)
    D = np.linalg.norm(v[:, None, :] - w[None, :, :], axis=2)
    Q = v.shape[0]
    picked = D[np.arange(Q)[None, :], perms]  # (n_perms, Q)
    if kind == "g1":
        vals = picked.sum(axis=1)
    elif kind == "g2":
        vals = np.sqrt((picked * picked).sum(axis=1))
    else:
        vals = picked.max(axis=1)
    return float(vals.min())


def scalar_laplace_solve(mask_interior, boundary_values, shape):
    """Independent 5-point Laplacian solve on a 2-D grid.

    ``boundary_values`` maps node index to a scalar for every non-interior
    node adjacent to the interior; returns a dict interior index -> value.
    """
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve

    order = {idx: i for i, idx in enumerate(sorted(mask_interior))}
    N = len(order)
    A = lil_matrix((N, N))
    b = np.zeros(N)
    for idx, row in order.items():
        deg = 0
        for axis in range(2):
            for step in (-1, 1):
                nb = list(idx)
                nb[axis] += step
                nb = tuple(nb)
                if not (0 <= nb[axis] < shape[axis]):
                    continue
                if nb in order:
                    A[row, order[nb]] = -1.0
                    deg += 1
                elif nb in boundary_values:
                    b[row] += boundary_values[nb]
                    deg += 1
        A[row, row] = deg
    x = spsolve(A.tocsr(), b)
    return {idx: x[row] for idx, row in order.items()}


# -- per-edge references for the array paths of qvalued.energy ---------------


def _g2_value(a: np.ndarray, b: np.ndarray) -> float:
    """Optimal G2 cost between two (Q, n) point arrays (value only)."""
    Q = a.shape[0]
    if Q == 1:
        return float(np.linalg.norm(a[0] - b[0]))
    if Q == 2:
        d00 = np.dot(a[0] - b[0], a[0] - b[0])
        d11 = np.dot(a[1] - b[1], a[1] - b[1])
        d01 = np.dot(a[0] - b[1], a[0] - b[1])
        d10 = np.dot(a[1] - b[0], a[1] - b[0])
        return math.sqrt(min(d00 + d11, d01 + d10))
    diff = a[:, None, :] - b[None, :, :]
    C = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(C)
    return math.sqrt(float(C[rows, cols].sum()))


def _g2_match(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An optimal G2 permutation between two (Q, n) point arrays."""
    Q = a.shape[0]
    if Q == 1:
        return np.zeros(1, dtype=int)
    if Q == 2:
        d00 = np.dot(a[0] - b[0], a[0] - b[0])
        d11 = np.dot(a[1] - b[1], a[1] - b[1])
        d01 = np.dot(a[0] - b[1], a[0] - b[1])
        d10 = np.dot(a[1] - b[0], a[1] - b[0])
        if d00 + d11 <= d01 + d10:
            return np.array([0, 1])
        return np.array([1, 0])
    diff = a[:, None, :] - b[None, :, :]
    C = np.einsum("ijk,ijk->ij", diff, diff)
    _, cols = linear_sum_assignment(C)
    return cols


def edges_reference(grid):
    """Axis-adjacent pairs of non-outside nodes, walked node by node."""
    from qvalued.grids import OUTSIDE

    for idx in np.ndindex(*grid.shape):
        if grid.mask[idx] == OUTSIDE:
            continue
        for axis in range(grid.m):
            if idx[axis] + 1 >= grid.shape[axis]:
                continue
            other = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1 :]
            if grid.mask[other] == OUTSIDE:
                continue
            yield idx, other


def nearest_boundary_init(grid, bvalues):
    """Solver start: each interior node takes its nearest boundary node's value.

    ``bvalues`` maps boundary node index to a (Q, n) array; ties go to the
    first boundary node in C order.
    """
    from qvalued.grids import BOUNDARY, INTERIOR, OUTSIDE

    bnodes = [idx for idx in np.ndindex(*grid.shape) if grid.mask[idx] == BOUNDARY]
    bcoords = np.array([grid.node_coords(idx) for idx in bnodes])
    values = np.zeros(grid.shape + (grid.Q, grid.n))
    values[grid.mask == OUTSIDE] = np.nan
    for idx in bnodes:
        values[idx] = bvalues[idx]
    for idx in np.ndindex(*grid.shape):
        if grid.mask[idx] == INTERIOR:
            x = grid.node_coords(idx)
            j = int(np.argmin(np.linalg.norm(bcoords - x[None, :], axis=1)))
            values[idx] = bvalues[bnodes[j]]
    return values


def unknown_index(grid):
    """The ``{(node, branch): unknown}`` numbering of the interior branch positions."""
    from qvalued.grids import INTERIOR

    unknown = {}
    for idx in np.ndindex(*grid.shape):
        if grid.mask[idx] != INTERIOR:
            continue
        for b in range(grid.Q):
            unknown[(idx, b)] = len(unknown)
    return unknown


def per_edge_reference(f, p):
    """``discrete_energy(f, p).per_edge`` computed one edge at a time with ``dist``."""
    from qvalued.qspace import MetricKind, QTuple, dist

    w = f.h ** (f.m - p)
    out = []
    for u, v in edges_reference(f):
        value, match = dist(QTuple(f.values[u]), QTuple(f.values[v]), MetricKind.G2)
        out.append(((u, v), w * value**p, match))
    return out


def _branch_step_linear(values, grid, edges, matchings, unknown):
    """Exact minimization of the frozen-matching 2-energy: one sparse solve."""
    N = len(unknown)
    if N == 0:
        return
    rows, cols, data = [], [], []
    diag = np.zeros(N)
    rhs = np.zeros((N, grid.n))
    for (u, v), perm in zip(edges, matchings):
        for i in range(grid.Q):
            a = unknown.get((u, i))
            b = unknown.get((v, int(perm[i])))
            if a is None and b is None:
                continue
            if a is not None and b is not None:
                diag[a] += 1.0
                diag[b] += 1.0
                rows.extend((a, b))
                cols.extend((b, a))
                data.extend((-1.0, -1.0))
            elif a is not None:
                diag[a] += 1.0
                rhs[a] += values[v][int(perm[i])]
            else:
                diag[b] += 1.0
                rhs[b] += values[u][i]
    rows.extend(range(N))
    cols.extend(range(N))
    data.extend(diag)
    L = csr_matrix((data, (rows, cols)), shape=(N, N)).tocsc()
    lu = splu(L)
    sol = np.column_stack([lu.solve(rhs[:, c]) for c in range(grid.n)])
    for (idx, b), row in unknown.items():
        values[idx][b] = sol[row]


def _branch_step_gradient(values, grid, edges, matchings, unknown, w, p, tol,
                          max_inner):
    """Armijo-damped gradient descent on the frozen-matching p-energy."""

    def frozen_energy(vals):
        total = 0.0
        for (u, v), perm in zip(edges, matchings):
            delta = vals[u] - vals[v][perm]
            total += float((delta * delta).sum()) ** (p / 2.0)
        return w * total

    def gradient(vals):
        g = {key: np.zeros(grid.n) for key in unknown}
        for (u, v), perm in zip(edges, matchings):
            delta = vals[u] - vals[v][perm]
            S = float((delta * delta).sum())
            if S <= 0.0:
                continue
            factor = w * p * S ** ((p - 2.0) / 2.0)
            for i in range(grid.Q):
                a = (u, i)
                b = (v, int(perm[i]))
                if a in g:
                    g[a] += factor * delta[i]
                if b in g:
                    g[b] -= factor * delta[i]
        return g

    energy = frozen_energy(values)
    for _ in range(max_inner):
        g = gradient(values)
        gnorm2 = sum(float(v @ v) for v in g.values())
        if gnorm2 == 0.0:
            break
        step = 1.0
        improved = False
        while step > 1e-16:
            trial = values.copy()
            for (idx, b), gv in g.items():
                trial[idx][b] -= step * gv
            e_trial = frozen_energy(trial)
            if e_trial <= energy - 0.25 * step * gnorm2:
                values[...] = trial
                improved = True
                break
            step /= 2.0
        if not improved:
            break
        if energy - e_trial < tol * (1.0 + e_trial):
            energy = e_trial
            break
        energy = e_trial


# -- per-pair references for the array paths of qvalued.extend ---------------


def _ginf_value(a: np.ndarray, b: np.ndarray) -> float:
    from qvalued.qspace import MetricKind, QTuple, dist

    value, _ = dist(QTuple(a), QTuple(b), MetricKind.GINF)
    return value


def _split_clusters(points: np.ndarray, threshold: float) -> list:
    """Single-linkage clusters: points closer than the threshold are joined."""
    L = points.shape[0]
    parent = list(range(L))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(L):
        for j in range(i + 1, L):
            if np.linalg.norm(points[i] - points[j]) <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(L):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g) for g in sorted(groups.values(), key=lambda g: g[0])]


def cone_eval_reference(boundary_fn, sample_pts, sample_vals, R, x, norm):
    """``extend._cone_eval`` with one ``dist(..., GINF)`` solve per sample pair."""
    from qvalued.extend import _vec_norm
    from qvalued.qspace import MetricKind, QTuple, dist

    L, Qc, _ = sample_vals.shape
    osc = 0.0
    for i in range(L):
        for j in range(i + 1, L):
            osc = max(osc, _ginf_value(sample_vals[i], sample_vals[j]))

    if Qc >= 2:
        ref_idx = None
        for l in range(L):
            pts = sample_vals[l]
            gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            if gaps.max() > 3.0 * Qc * osc:
                ref_idx = l
                break
        if ref_idx is not None:
            ref = sample_vals[ref_idx]
            clusters = _split_clusters(ref, 3.0 * osc)
            ref_tuple = QTuple(ref)
            cluster_of = np.empty(Qc, dtype=int)
            for c, idx in enumerate(clusters):
                cluster_of[idx] = c

            def grouped(value_pts):
                _, match = dist(QTuple(value_pts), ref_tuple, MetricKind.GINF)
                perm = np.asarray(match.perm)
                return [value_pts[cluster_of[perm] == c] for c in range(len(clusters))]

            part_samples = [grouped(sample_vals[l]) for l in range(L)]
            pieces = []
            for c in range(len(clusters)):
                part_vals = np.array([part_samples[l][c] for l in range(L)])

                def part_fn(b, c=c):
                    return grouped(boundary_fn(b))[c]

                pieces.append(
                    cone_eval_reference(part_fn, sample_pts, part_vals, R, x, norm)
                )
            return np.vstack(pieces)

    r = _vec_norm(x, norm)
    y1 = sample_vals[0][0]
    if r <= 1e-15 * R:
        return np.tile(y1, (Qc, 1))
    proj = x * (R / r)
    bval = boundary_fn(proj)
    return (r / R) * bval + ((R - r) / R) * y1


def whitney_structure_reference(ext):
    """The leaves, corner values and skeleton lines of a ``WhitneyExtension``,
    built cell by cell and corner by corner from its samples, box and depth.
    """

    def dist_inf_to_cell(lo, size):
        hi = lo + size
        below = np.maximum(lo[None, :] - ext.locs, 0.0)
        above = np.maximum(ext.locs - hi[None, :], 0.0)
        return float(np.maximum(below, above).max(axis=1).min())

    def nearest_sample_value(x):
        d = np.abs(ext.locs - x[None, :]).max(axis=1)
        return ext.vals[int(np.argmin(d))]

    leaves = {}
    stack = [(np.zeros(ext.m, dtype=np.int64), 0)]
    while stack:
        k, d = stack.pop()
        size = ext.S / (1 << d)
        lo = ext.root_lo + k * size
        gap = dist_inf_to_cell(lo, size)
        if size < gap:
            leaves[(tuple(k), d)] = "w"
        elif d >= ext.depth:
            leaves[(tuple(k), d)] = "near"
        else:
            for delta in np.ndindex(*(2,) * ext.m):
                stack.append((2 * k + np.array(delta), d + 1))

    corner_values = {}
    unit = 1 << ext.depth
    corner_set = set()
    for (k, d), kind in leaves.items():
        if kind != "w":
            continue
        side = 1 << (ext.depth - d)
        base = np.asarray(k, dtype=np.int64) * side
        for delta in np.ndindex(*(2,) * ext.m):
            corner_set.add(tuple(base + np.array(delta) * side))
    for corner in corner_set:
        x = ext.root_lo + np.array(corner) * (ext.S / unit)
        corner_values[corner] = nearest_sample_value(x)
    columns, rows = {}, {}
    if ext.m == 2:
        for cx, cy in corner_set:
            columns.setdefault(cx, []).append(cy)
            rows.setdefault(cy, []).append(cx)
        for d in (columns, rows):
            for key in d:
                d[key] = np.array(sorted(set(d[key])))
    return leaves, corner_values, columns, rows


def ginf_reference(a: np.ndarray, b: np.ndarray):
    """``dist(..., GINF)`` as it was before the batched kernel: value and perm."""
    from qvalued.qspace import _bottleneck_assignment

    Q = a.shape[0]
    if Q == 1:
        return float(np.linalg.norm(a[0] - b[0])), (0,)
    diff = a[:, None, :] - b[None, :, :]
    D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if Q == 2:
        keep, swap = max(D[0, 0], D[1, 1]), max(D[0, 1], D[1, 0])
        return (float(keep), (0, 1)) if keep <= swap else (float(swap), (1, 0))
    value, perm = _bottleneck_assignment(D)
    return value, tuple(int(j) for j in perm)


def sum_dist_reference(a: np.ndarray, b: np.ndarray, kind: str):
    """``dist(..., G1 or G2)`` as it was before the one kernel: value and perm."""
    from qvalued.qspace import _lexmin_sum_assignment

    Q = a.shape[0]
    if Q == 1:
        return float(np.linalg.norm(a[0] - b[0])), (0,)
    diff = a[:, None, :] - b[None, :, :]
    D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if Q == 2:
        if kind == "g1":
            keep, swap = D[0, 0] + D[1, 1], D[0, 1] + D[1, 0]
        else:
            keep = D[0, 0] ** 2 + D[1, 1] ** 2
            swap = D[0, 1] ** 2 + D[1, 0] ** 2
        value, perm = (keep, (0, 1)) if keep <= swap else (swap, (1, 0))
        return float(value if kind == "g1" else math.sqrt(value)), perm
    C = D if kind == "g1" else D * D
    perm = _lexmin_sum_assignment(C)
    value = float(C[np.arange(Q), perm].sum())
    return (value if kind == "g1" else math.sqrt(value)), tuple(int(j) for j in perm)
