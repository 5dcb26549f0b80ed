"""Independent oracles used by the tests.

Brute force over all pairings deliberately avoids the library's assignment
solvers so that the fast paths are checked against an unrelated
computation.  The per-edge references below are the node-by-node and
edge-by-edge code that the library's array paths replaced; the
differential tests hold the array paths to them.
"""

import itertools
import json
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


def all_pairing_costs(v_pts, w_pts, kind):
    """The cost of every pairing, with the permutations in lexicographic order.

    G1 sums the paired distances, G2 sums their squares (exactly, on
    integer points) and GINF takes their maximum.  Up to Q = 6 each pairing
    is priced in Python; above that, where Q! reaches 40,320, the pairings
    are priced at once over the kernel's permutation table.

    Returns
    -------
    costs : ndarray, shape (Q!,)
    perms : ndarray of int, shape (Q!, Q)
    """
    v = np.asarray(v_pts, dtype=float)
    w = np.asarray(w_pts, dtype=float)
    Q = v.shape[0]
    if Q <= 6:
        perms = np.array(list(itertools.permutations(range(Q))), dtype=int)
        if kind == "g2":
            costs = [sum(((v[i] - w[p[i]]) ** 2).sum() for i in range(Q)) for p in perms]
        else:
            costs = [pairing_cost(v, w, p, kind) for p in perms]
        return np.array(costs), perms
    from qvalued.qspace import _perm_table

    perms = _perm_table(Q)
    S = ((v[:, None, :] - w[None, :, :]) ** 2).sum(axis=2)
    picked = (S if kind == "g2" else np.sqrt(S))[np.arange(Q), perms]
    return (picked.max(axis=1) if kind == "ginf" else picked.sum(axis=1)), perms


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


def weighted_laplacian_reference(Y, ga, gb, slot, free, weight):
    """The weighted Laplacian and right-hand side of a frozen matching,
    assembled afresh from COO triplets: the per-call assembly the solver ran
    before it built each matching's pattern once.  Takes the arguments of
    ``qvalued.energy._FrozenLaplacian`` and the edge weights."""
    N = free.size
    a, b = slot[ga].ravel(), slot[gb].ravel()
    wt = np.repeat(weight, ga.shape[1])
    ka, kb = a >= 0, b >= 0
    both = ka & kb
    diag = np.bincount(np.concatenate([a[ka], b[kb]]), np.concatenate([wt[ka], wt[kb]]), N)
    rows = np.concatenate([a[both], b[both], np.arange(N)])
    cols = np.concatenate([b[both], a[both], np.arange(N)])
    data = np.concatenate([-wt[both], -wt[both], diag])
    one = ka != kb
    rhs = np.zeros((N, Y.shape[1]))
    np.add.at(rhs, np.where(ka, a, b)[one],
              wt[one, None] * Y[np.where(ka, gb.ravel(), ga.ravel())[one]])
    return csr_matrix((data, (rows, cols)), shape=(N, N)).tocsc(), rhs


def frozen_solve_reference(Y, ga, gb, slot, free, weight):
    """The unknowns at the minimizer of a frozen matching's weighted 2-energy,
    from a fresh ``splu`` (COLAMD column order) of the matrix that
    ``weighted_laplacian_reference`` assembles: the solve
    ``qvalued.energy._FrozenLaplacian.solve`` ran on every call before it kept
    a matching's column order."""
    L, rhs = weighted_laplacian_reference(Y, ga, gb, slot, free, weight)
    return splu(L).solve(rhs)


def grid_to_json_reference(f):
    """``GridFunction.to_json`` as it was written before it dumped the values
    as one flat list: ``json.dumps`` of the nested ``(nodes, Q, n)`` lists."""
    from qvalued.grids import OUTSIDE

    inside = f.mask != OUTSIDE
    vals = np.where(inside[..., None, None], f.values, 0.0)
    return json.dumps(
        {
            "m": f.m,
            "n": f.n,
            "Q": f.Q,
            "shape": list(f.shape),
            "h": f.h,
            "mask": f.mask.ravel().tolist(),
            "values": vals.reshape(-1, f.Q, f.n).tolist(),
        }
    )


def _branch_step_gradient(Y, ga, gb, slot, free, w, p, tol, max_inner):
    """Armijo-damped gradient descent on the frozen-matching p-energy.

    The inner step the solver ran at p != 2 before it moved to iteratively
    reweighted least squares; it takes the arguments of
    ``qvalued.energy._minimize_frozen`` and works in place on ``Y`` the same way.
    """
    n = Y.shape[1]
    # each pair pushes +part onto its first end and -part onto its second
    targets = np.stack([slot[ga], slot[gb]], axis=-1).ravel()
    free_end = targets >= 0
    targets = targets[free_end]

    def frozen_energy():
        delta = Y[ga] - Y[gb]
        S = (delta * delta).reshape(len(delta), -1).sum(axis=1)
        return w * float((S ** (p / 2.0)).sum()), delta, S

    def gradient(delta, S):
        factor = np.zeros_like(S)
        pos = S > 0.0
        factor[pos] = w * p * S[pos] ** ((p - 2.0) / 2.0)
        part = factor[:, None, None] * delta
        pushes = np.stack([part, -part], axis=2).reshape(-1, n)
        g = np.zeros((free.size, n))
        np.add.at(g, targets, pushes[free_end])
        return g

    energy, delta, S = frozen_energy()
    for _ in range(max_inner):
        g = gradient(delta, S)
        gnorm2 = float(np.einsum("ij,ij->", g, g))
        if gnorm2 == 0.0:
            break
        x0 = Y[free]
        step = 1.0
        improved = False
        while step > 1e-16:
            Y[free] = x0 - step * g
            e_trial, delta, S = frozen_energy()
            if e_trial <= energy - 0.25 * step * gnorm2:
                improved = True
                break
            step /= 2.0
        if not improved:
            Y[free] = x0
            break
        if energy - e_trial < tol * (1.0 + e_trial):
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


def _vec_norm(x: np.ndarray, kind: str) -> float:
    if kind == "linf":
        return float(np.abs(x).max())
    return float(np.linalg.norm(x))


def cone_eval_reference(boundary_fn, sample_pts, sample_vals, R, x, norm):
    """The recursive cone extension at one point ``x``, as the library ran it
    before it split the construction into a plan and an apply step: one
    ``dist(..., GINF)`` solve per sample pair, and the oscillation, split
    test and grouping redone on every call."""
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


def cone_extend_reference(samples, query):
    """``cone_extend`` as it was before the cone plan: every query reruns
    the whole construction through ``cone_eval_reference``."""
    from qvalued.qspace import QTuple

    query = np.asarray(query, dtype=float).reshape(-1)
    R = float(samples.R)
    if query.size != samples.m:
        raise ValueError(f"query has dimension {query.size}, expected m={samples.m}")
    locs = samples.locations
    radii = np.linalg.norm(locs, axis=1)
    if np.abs(radii - R).max() > 1e-9 * R:
        raise ValueError("sample locations must lie on the sphere of radius R to 1e-9 R")
    if np.linalg.norm(query) > R * (1 + 1e-9):
        raise ValueError("query must lie in the closed ball of radius R")
    gaps = np.linalg.norm(locs - query, axis=1)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] <= 1e-12 * max(1.0, R):
        return samples.points[nearest][1]
    vals = samples.value_array

    def boundary_fn(b):
        return vals[int(np.argmin(np.linalg.norm(locs - b, axis=1)))]

    return QTuple(cone_eval_reference(boundary_fn, locs, vals, R, query, "l2"))


def _edge_reference(c0, c1, v0, v1, x):
    center = (c0 + c1) / 2.0
    R = float(np.linalg.norm(c1 - c0)) / 2.0
    pts = np.array([c0 - center, c1 - center])

    def fn(b):
        return v0 if np.dot(b, pts[0]) > 0 else v1

    return cone_eval_reference(fn, pts, np.array([v0, v1]), R, x - center, "l2")


def _nearest_sample_index(ext, x):
    d = np.abs(ext.locs - x[None, :]).max(axis=1)
    return int(np.argmin(d))


def _nearest_sample_value(ext, x):
    return ext.vals[_nearest_sample_index(ext, x)]


def _corner_value(ext, structure, key, scale):
    val = structure[1].get(key)
    if val is None:
        val = _nearest_sample_value(ext, ext.root_lo + np.array(key) * scale)
    return val


def whitney_locate_reference(ext, leaves, x):
    """``WhitneyExtension._locate`` for one query as it was on the dict tree:
    descend from the root until ``leaves`` holds the cell.  Returns
    ``(k, d, kind)`` with ``kind`` "w" or "near"."""
    k = np.zeros(ext.m, dtype=np.int64)
    d = 0
    while (tuple(k), d) not in leaves:
        lo = ext.root_lo + k * (ext.S / (1 << d))
        d += 1
        k = 2 * k + (x >= lo + ext.S / (1 << d)).astype(np.int64)
    return k, d, leaves[(tuple(k), d)]


def whitney_breaks_reference(structure, fixed_axis, fixed_int, lo_int, hi_int):
    """The skeleton positions subdividing one side of a cell, endpoints
    included, as ``WhitneyExtension._subedge_breaks`` found them in the dict
    skeleton lines of ``structure``: the side lies on the line where
    coordinate ``fixed_axis`` equals ``fixed_int`` and runs from ``lo_int``
    to ``hi_int`` along the other axis."""
    lines = structure[2] if fixed_axis == 0 else structure[3]
    pos = lines.get(fixed_int)
    breaks = {lo_int, hi_int}
    if pos is not None:
        inner = pos[(pos >= lo_int) & (pos <= hi_int)]
        breaks.update(int(t) for t in inner)
    return np.array(sorted(breaks))


def whitney_perimeter_edge_reference(ext, structure, base, side, b_rel):
    """The corner keys ``(k0, k1)`` of the minimal edge holding the point
    ``center + b_rel`` on the boundary of the face with integer base corner
    ``base`` and side ``side``, by bisection in the side's breaks."""
    scale = ext.S / (1 << ext.depth)
    center = ext.root_lo + (np.asarray(base) + side / 2.0) * scale
    p = center + b_rel
    fixed_axis = int(np.argmax(np.abs(b_rel)))
    varying = 1 - fixed_axis
    fixed_int = int(round((p[fixed_axis] - ext.root_lo[fixed_axis]) / scale))
    breaks = whitney_breaks_reference(
        structure, fixed_axis, fixed_int, int(base[varying]), int(base[varying] + side)
    )
    t_int = (p[varying] - ext.root_lo[varying]) / scale
    j = int(np.searchsorted(breaks, t_int, side="right") - 1)
    j = max(0, min(j, breaks.size - 2))

    def key_at(var_int):
        key = [0, 0]
        key[fixed_axis] = fixed_int
        key[varying] = int(var_int)
        return tuple(key)

    return key_at(breaks[j]), key_at(breaks[j + 1])


def whitney_stations_reference(ext, structure, base, side):
    """The perimeter stations of a face, relative to its center, in the order
    of its cone samples: each side in turn, the corners with the sides
    x = low and x = high, every break and every minimal-edge midpoint."""
    scale = ext.S / (1 << ext.depth)
    center = ext.root_lo + (np.asarray(base) + side / 2.0) * scale
    out = []
    seen = set()
    for fixed_axis in range(2):
        varying = 1 - fixed_axis
        for fixed_int in (int(base[fixed_axis]), int(base[fixed_axis]) + side):
            breaks = whitney_breaks_reference(
                structure, fixed_axis, fixed_int, int(base[varying]), int(base[varying] + side)
            )
            stations = sorted(
                set(float(t) for t in breaks)
                | set((float(breaks[j]) + float(breaks[j + 1])) / 2.0
                      for j in range(breaks.size - 1))
            )
            for t in stations:
                p = np.empty(2)
                p[fixed_axis] = ext.root_lo[fixed_axis] + fixed_int * scale
                p[varying] = ext.root_lo[varying] + t * scale
                rel = p - center
                key = (round(rel[0] / scale, 9), round(rel[1] / scale, 9))
                if key in seen:
                    continue
                seen.add(key)
                out.append(rel)
    return np.array(out)


def _face_reference(ext, structure, k, d, x):
    scale = ext.S / (1 << ext.depth)
    side = 1 << (ext.depth - d)
    base = np.asarray(k, dtype=np.int64) * side
    center = ext.root_lo + (base + side / 2.0) * scale
    R = side * scale / 2.0

    def perimeter(b_rel):
        k0, k1 = whitney_perimeter_edge_reference(ext, structure, base, side, b_rel)
        c0 = ext.root_lo + np.array(k0) * scale
        c1 = ext.root_lo + np.array(k1) * scale
        return _edge_reference(c0, c1, _corner_value(ext, structure, k0, scale),
                               _corner_value(ext, structure, k1, scale), center + b_rel)

    pts_rel = whitney_stations_reference(ext, structure, base, side)
    vals_list = [perimeter(rel) for rel in pts_rel]
    return cone_eval_reference(
        perimeter, pts_rel, np.array(vals_list), R, x - center, "linf"
    )


def whitney_evaluate_reference(ext, x, structure=None):
    """``WhitneyExtension.evaluate`` as it was before the cached cone plans:
    each query rebuilds the cone construction of every minimal edge it
    reaches, through ``cone_eval_reference``.  Uses only the samples, box and
    depth of ``ext`` and the dict tree ``structure`` (leaves, corner values,
    skeleton lines), by default ``whitney_structure_reference(ext)``."""
    from qvalued.qspace import QTuple

    if structure is None:
        structure = whitney_structure_reference(ext)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != ext.m:
        raise ValueError(f"query has dimension {x.size}, expected m={ext.m}")
    if not np.all((ext.root_lo <= x) & (x <= ext.box_hi)):
        raise ValueError(f"query {x.tolist()} lies outside the domain box")
    d_samples = np.abs(ext.locs - x[None, :]).max(axis=1)
    hit = int(np.argmin(d_samples))
    if d_samples[hit] <= 1e-12 * max(1.0, ext.S):
        return QTuple(ext.vals[hit])
    k, d, kind = whitney_locate_reference(ext, structure[0], x)
    if kind == "near":
        return QTuple(_nearest_sample_value(ext, x))
    if ext.m == 1:
        scale = ext.S / (1 << ext.depth)
        side = 1 << (ext.depth - d)
        lo_int = int(k[0]) * side
        c0 = np.array([ext.root_lo[0] + lo_int * scale])
        c1 = np.array([ext.root_lo[0] + (lo_int + side) * scale])
        v0 = _corner_value(ext, structure, (lo_int,), scale)
        v1 = _corner_value(ext, structure, (lo_int + side,), scale)
        return QTuple(_edge_reference(c0, c1, v0, v1, x))
    return QTuple(_face_reference(ext, structure, k, d, x))


def whitney_values_reference(ext, queries):
    """``whitney_evaluate_reference`` at each row of ``queries``, as arrays,
    on one reference tree."""
    structure = whitney_structure_reference(ext)
    return [whitney_evaluate_reference(ext, q, structure).points for q in queries]


def whitney_tree_as_dicts(ext):
    """The array tree of a ``WhitneyExtension`` in the dict form of
    ``whitney_structure_reference``: ``(leaves, corner_values, columns,
    rows)``.  Checks on the way that every key array is strictly increasing
    and that the corner coordinates and skeleton entries agree with their keys."""
    m, depth = ext.m, ext.depth
    leaves = {}
    for d in range(depth + 1):
        lo, hi = ext._level_start[d], ext._level_start[d + 1]
        keys = ext._leaf_keys[lo:hi]
        assert np.all(np.diff(keys) > 0)
        for flat, whitney in zip(keys.tolist(), ext._leaf_whitney[lo:hi].tolist()):
            k = tuple(int(c) for c in np.unravel_index(flat, (1 << d,) * m))
            leaves[(k, d)] = "w" if whitney else "near"
    L = (1 << depth) + 1
    # the corner keys lead the skeleton line keys
    corner_keys = ext._lines[:len(ext._corners)]
    assert np.all(np.diff(corner_keys) > 0)
    corners = np.array(np.unravel_index(corner_keys, (L,) * m)).T.reshape(-1, m)
    assert np.array_equal(corners, ext._corners)
    corner_values = {tuple(c): ext.vals[i]
                     for c, i in zip(corners.tolist(), ext._corner_nearest.tolist())}
    columns, rows = {}, {}
    if m == 2:
        assert np.all(np.diff(ext._lines) > 0)
        for key, corner in zip(ext._lines.tolist(), ext._line_corner.tolist()):
            axis, rest = divmod(key, L * L)
            line, pos = divmod(rest, L)
            assert corners[corner].tolist() == ([line, pos] if axis == 0 else [pos, line])
            (columns if axis == 0 else rows).setdefault(line, []).append(pos)
        for lines in (columns, rows):
            for key in lines:
                lines[key] = np.array(lines[key])
    else:
        assert len(ext._lines) == len(corners)
        assert np.array_equal(ext._line_corner, np.arange(len(corners)))
    return leaves, corner_values, columns, rows


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


def cone_plan_reference(sample_vals: np.ndarray):
    """The cone plan of one set of witnessed tuples (L, Q, n), planned on its
    own and recursing cluster by cluster, as the cone extension did before
    plans were built for whole stacks.  Returns ``(Y, sorter, samples)``."""
    from qvalued.qspace import MetricKind, match_many, vector_norms

    def oscillation(vals):
        first, second = np.triu_indices(vals.shape[0], 1)
        osc = 0.0
        for lo in range(0, first.size, 1 << 16):
            g, _ = match_many(vals[first[lo:lo + (1 << 16)]], vals[second[lo:lo + (1 << 16)]],
                              MetricKind.GINF)
            osc = max(osc, float(g.max()))
        return osc

    def split_clusters(points, threshold):
        close = vector_norms(points[:, None, :] - points[None, :, :]) <= threshold
        lowest = np.arange(points.shape[0])
        while True:
            step = np.where(close, lowest, lowest.size).min(axis=1)
            if np.array_equal(step, lowest):
                break
            lowest = step
        first, cluster_of = np.unique(lowest, return_inverse=True)
        return first.size, cluster_of

    L, Qc, _ = sample_vals.shape
    osc = oscillation(sample_vals)
    if Qc >= 2:
        gaps = np.linalg.norm(sample_vals[:, :, None, :] - sample_vals[:, None, :, :], axis=3)
        above = np.flatnonzero(gaps.reshape(L, -1).max(axis=1) > 3.0 * Qc * osc)
        if above.size:
            ref = sample_vals[above[0]]
            count, cluster_of = split_clusters(ref, 3.0 * osc)
            ends = np.cumsum(np.bincount(cluster_of, minlength=count)).tolist()
            _, perm = match_many(sample_vals, ref[None], MetricKind.GINF)
            order = np.argsort(cluster_of[perm], axis=1, kind="stable")
            grouped = sample_vals[np.arange(L)[:, None], order]
            parts = [cone_plan_reference(grouped[:, lo:hi]) for lo, hi in zip([0] + ends, ends)]
            return (np.vstack([part[0] for part in parts]),
                    (ref, cluster_of, ends, [part[1] for part in parts]),
                    np.concatenate([part[2] for part in parts], axis=1))
    return np.tile(sample_vals[0][0], (Qc, 1)), None, sample_vals


def _group(vals: np.ndarray, ref: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
    """``extend._group``, the one G-inf grouping step that ``_sorted`` calls."""
    from qvalued.extend import _group as group

    return group(vals, ref, cluster_of)


# the per-query sorter of ``extend``, as it was before ``_sorted_many``
# applied the sorters of a whole batch one split level at a time
def _sorted(sorter, value: np.ndarray) -> np.ndarray:
    """The points of the tuple ``value`` in the output-row order of a plan:
    one G-inf match per split node, as ``extend._plan_rows`` grouped the samples."""
    if sorter is None:
        return value
    ref, cluster_of, ends, children = sorter
    value = _group(value[None, None], ref[None], cluster_of[None])[0, 0]
    return np.concatenate([_sorted(child, value[lo:hi])
                           for child, lo, hi in zip(children, [0] + ends, ends)])


def extend_to_plane_reference(f):
    """``extend.extend_to_plane`` node by node, as it was before it ran on
    arrays: one nearest-node search per output node off the input domain."""
    from qvalued.grids import BOUNDARY, GridFunction, INTERIOR, OUTSIDE

    N = f.shape[0]
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
            continue
        if r < 1.0:
            j = int(np.argmin(np.linalg.norm(in_coords - x[None, :], axis=1)))
            values[idx] = in_vals[j]
            continue
        y = (2.0 / r - 1.0) * x
        factor = 2.0 * float(np.linalg.norm(y)) - 1.0
        j = int(np.argmin(np.linalg.norm(in_coords - y[None, :], axis=1)))
        values[idx] = factor * in_vals[j]
    return GridFunction(f.m, f.n, f.Q, shape_out, f.h, mask, values)


def lipschitz_truncation_reference(f, t, p=2.0):
    """``energy.lipschitz_truncation`` with its node-by-node loops: the kept
    set walked with ``np.ndindex`` and one ``evaluate`` per refilled node."""
    from qvalued.energy import _match_edges
    from qvalued.extend import WhitneyExtension
    from qvalued.grids import OUTSIDE
    from qvalued.qspace import QTuple

    inside = f.mask != OUTSIDE
    normf = np.zeros(f.shape)
    normf[inside] = np.sqrt(np.einsum("...qn,...qn->...", f.values[inside], f.values[inside]))
    u, v, sq, _ = _match_edges(f)
    q = np.sqrt(sq) / f.h
    quot = np.zeros(f.mask.size)
    np.maximum.at(quot, u, q)
    np.maximum.at(quot, v, q)
    quot = quot.reshape(f.shape)
    keep = inside & (normf**p + quot**p <= t**p)
    kept = {idx for idx in np.ndindex(*f.shape) if keep[idx]}
    out = f.copy()
    if not kept:
        out.values[inside] = 0.0
        return out, kept
    if len(kept) == int(inside.sum()):
        return out, kept
    data = [(f.node_coords(idx), QTuple(f.values[idx])) for idx in sorted(kept)]
    coords = f.all_coords()
    lo = coords.reshape(-1, f.m).min(axis=0) - f.h / 2
    hi = coords.reshape(-1, f.m).max(axis=0) + f.h / 2
    depth = min(12, max(3, int(math.ceil(math.log2(max(f.shape)))) + 1))
    ext = WhitneyExtension(data, np.column_stack([lo, hi]), depth)
    for idx in np.ndindex(*f.shape):
        if inside[idx] and idx not in kept:
            out.values[idx] = ext.evaluate(coords[idx]).points
    return out, kept


# -- the Q > 5 solvers that qspace.match_many ran before its Hungarian-only path


def _lexmin_sum_assignment(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment; ties broken by lexicographically smallest perm.

    Costs within 1e-12 relative of the minimum count as tied.

    Runs the Hungarian solver once for the optimum, then greedily pins each
    row to the smallest feasible column, re-solving the remaining block to
    confirm optimality is preserved.
    """
    Q = cost.shape[0]
    rows, cols = linear_sum_assignment(cost)
    # relative, so that the rule does not depend on the scale of the data
    limit = float(cost[rows, cols].sum()) * (1.0 + 1e-12)
    free = list(range(Q))
    perm = np.empty(Q, dtype=int)
    prefix = 0.0
    for i in range(Q):
        for j in free:
            rest_rows = np.arange(i + 1, Q)
            rest_cols = np.array([c for c in free if c != j], dtype=int)
            if rest_rows.size == 0:
                rest = 0.0
            else:
                sub = cost[np.ix_(rest_rows, rest_cols)]
                rr, cc = linear_sum_assignment(sub)
                rest = float(sub[rr, cc].sum())
            if prefix + cost[i, j] + rest <= limit:
                perm[i] = j
                prefix += cost[i, j]
                free.remove(j)
                break
        else:  # pragma: no cover - the optimal column always qualifies
            raise AssertionError("assignment refinement failed")
    return perm


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Kuhn's augmenting-path test for a perfect matching in a boolean matrix."""
    rows, cols = allowed.shape
    if rows > cols:
        return False
    match_col = [-1] * cols

    def augment(r, seen):
        for c in range(cols):
            if allowed[r, c] and not seen[c]:
                seen[c] = True
                if match_col[c] < 0 or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(rows):
        if not augment(r, [False] * cols):
            return False
    return True


def _bottleneck_assignment(D: np.ndarray):
    """Exact bottleneck assignment by bisection over the pairwise distance set."""
    Q = D.shape[0]
    levels = np.unique(D)
    lo, hi = 0, levels.size - 1
    # every row and column needs at least its own minimum
    forced = max(D.min(axis=1).max(), D.min(axis=0).max())
    lo = int(np.searchsorted(levels, forced))
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(D <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    t = float(levels[lo])
    allowed = D <= t
    # lexicographically smallest perfect matching at the optimal threshold
    perm = np.empty(Q, dtype=int)
    free = list(range(Q))
    for i in range(Q):
        for j in free:
            if not allowed[i, j]:
                continue
            rest_cols = [c for c in free if c != j]
            if i + 1 == Q:
                perm[i] = j
                free.remove(j)
                break
            sub = allowed[np.ix_(np.arange(i + 1, Q), rest_cols)]
            if _has_perfect_matching(sub):
                perm[i] = j
                free.remove(j)
                break
        else:  # pragma: no cover
            raise AssertionError("bottleneck refinement failed")
    return t, perm


def ginf_reference(a: np.ndarray, b: np.ndarray):
    """``dist(..., GINF)`` as it was before the batched kernel: value and perm."""
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


def xi_reference(v, frame) -> np.ndarray:
    """``embed.xi(v, frame).coords`` as it was before the stacked embedding."""
    proj = np.sort(frame._dirmat @ v.points.T, axis=1)  # (K*n, Q)
    return proj.reshape(-1) / math.sqrt(frame.K)


def xi_isometry_radius_reference(v, frame) -> float:
    """``embed.xi_isometry_radius`` as it was: one ``np.unique`` per projection row."""
    proj = frame._dirmat @ v.points.T
    best = math.inf
    for row in proj:
        vals = np.unique(row)
        if vals.size > 1:
            best = min(best, float(np.diff(vals).min()))
    return best / 2.0


def measured_separation_reference(directions, Q: int, draws: int = 500,
                                  seed: int = 171717) -> float:
    """``embed.measured_separation`` as it was: one (L, n) validation draw at a time."""
    directions = np.asarray(directions, dtype=float)
    n = directions.shape[1]
    L = max(1, Q * Q)
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(draws):
        V = rng.standard_normal((L, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        scores = np.abs(directions @ V.T)  # (K, L)
        worst = min(worst, scores.min(axis=1).max())
    return float(worst)


def lipschitz_grid_values_reference(rng, m: int, Q: int, n: int, N: int) -> np.ndarray:
    """The values of ``verify._lipschitz_grid`` as they were: node by node."""
    shape = (N,) * m
    h = 2.0 / (N - 1)
    freq = rng.uniform(0.5, 2.0, size=(Q, n, m))
    phase = rng.uniform(0, 2 * math.pi, size=(Q, n))
    amp = rng.uniform(0.2, 1.0, size=(Q, n))
    values = np.zeros(shape + (Q, n))
    for idx in np.ndindex(*shape):
        x = (np.asarray(idx, dtype=float) - (N - 1) / 2.0) * h
        for i in range(Q):
            for c in range(n):
                values[idx][i, c] = amp[i, c] * math.sin(float(freq[i, c] @ x) + phase[i, c])
    return values


def dist_inf_to_cells_reference(locs: np.ndarray, lo: np.ndarray, size: float) -> np.ndarray:
    """``WhitneyExtension._dist_inf_to_cells`` as it was: one reduction over a
    trailing coordinate axis, all cells at once."""
    below = np.maximum(lo[:, None, :] - locs, 0.0)
    above = np.maximum(locs - (lo[:, None, :] + size), 0.0)
    return np.maximum(below, above).max(axis=2).min(axis=1)


def nearest_samples_reference(locs: np.ndarray, x: np.ndarray):
    """``WhitneyExtension._nearest_samples`` as it was: the first sup-norm-nearest
    sample to each row of ``x`` and the distance to it."""
    d = np.abs(locs[None, :, :] - x[:, None, :]).max(axis=2)
    index = np.argmin(d, axis=1)
    return index, d[np.arange(len(x)), index]


def nearest_reference(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """``grids._nearest`` as it was: ``np.linalg.norm`` over the coordinate axis."""
    d = np.linalg.norm(sites[None, :, :] - points[:, None, :], axis=2)
    return np.argmin(d, axis=1)


def split_distance_reference(points: np.ndarray) -> float:
    """``qspace.split_distance`` as it was: one tuple, a loop over the pairs of
    its ``np.unique`` support."""
    support = np.unique(points, axis=0)
    k = support.shape[0]
    if k == 1:
        return math.inf
    best = math.inf
    for i in range(k):
        for j in range(i + 1, k):
            d = support[i] - support[j]
            m = float(np.abs(d).max())
            best = min(best, m * float(np.linalg.norm(d / m)))
    return best


def zeta_dual_gap_reference(v_pts, w_pts, dictionary_size: int = 64, seed: int = 0):
    """``embed.zeta_dual_gap`` as it was: one pair, one (anchors, Q) norm matrix
    per tuple.  The upper bound is the library's G1 distance, as it was."""
    from qvalued.qspace import MetricKind, QTuple, dist

    v_pts, w_pts = np.asarray(v_pts, dtype=float), np.asarray(w_pts, dtype=float)
    upper, _ = dist(QTuple(v_pts), QTuple(w_pts), MetricKind.G1)
    pts = np.vstack([v_pts, w_pts])
    rng = np.random.default_rng(seed)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    extra = rng.uniform(lo - 0.5 * span - 0.1, hi + 0.5 * span + 0.1,
                        size=(dictionary_size, pts.shape[1]))
    anchors = np.vstack([pts, extra])
    dv = np.linalg.norm(v_pts[None, :, :] - anchors[:, None, :], axis=2).sum(axis=1)
    dw = np.linalg.norm(w_pts[None, :, :] - anchors[:, None, :], axis=2).sum(axis=1)
    return float(np.abs(dv - dw).max()), upper


# -- the assignment kernel's cost matrix and enumeration as they were


def cost_matrix_reference(A: np.ndarray, B: np.ndarray, squared: bool) -> np.ndarray:
    """The (E, Q, Q) pairing costs ``qspace.match_many`` built for any n: one
    einsum over the (E, Q, Q, n) point differences, rooted unless ``squared``.
    Either stack may have one row."""
    diff = A[:, :, None, :] - B[:, None, :, :]
    C = np.einsum("eijk,eijk->eij", diff, diff)
    return C if squared else np.sqrt(C)


def match_many_reference(A: np.ndarray, B: np.ndarray, kind: str):
    """``qspace.match_many`` at Q >= 2 as it was, on ``cost_matrix_reference``:
    every permutation scored a row at a time for Q <= 5, this module's solvers
    past that.  ``kind`` is "g1", "g2" or "ginf"."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    Q = A.shape[1]
    C = cost_matrix_reference(A, B, kind == "g2")
    E = C.shape[0]
    cost, perm = np.empty(E), np.empty((E, Q), dtype=np.intp)
    if Q > 5:
        for e in range(E):
            if kind == "ginf":
                cost[e], perm[e] = _bottleneck_assignment(C[e])
            else:
                perm[e] = _lexmin_sum_assignment(C[e])
                cost[e] = C[e, np.arange(Q), perm[e]].sum()
        return cost, perm
    P = np.array(list(itertools.permutations(range(Q))))
    for e in range(E):
        picked = C[e, np.arange(Q), P]  # (permutations, Q)
        if kind == "ginf":
            worst = picked.max(axis=1)
            first = int(worst.argmin())
        else:
            total = picked.sum(axis=1)
            first = int((total <= total.min() * (1.0 + 1e-12)).argmax())
        cost[e] = worst[first] if kind == "ginf" else total[first]
        perm[e] = P[first]
    return cost, perm


# -- the Poincare check and the frame builder as they were, one trial or one
# -- direction count at a time


def lipschitz_grid_reference(rng, m: int, Q: int, n: int, N: int) -> np.ndarray:
    """One Lipschitz Q-valued map on the N^m grid over [-1, 1]^m, as
    ``verify`` drew and evaluated it per trial: values (N**m, Q, n) in C order."""
    h = 2.0 / (N - 1)
    freq = rng.uniform(0.5, 2.0, size=(Q, n, m))
    phase = rng.uniform(0, 2 * math.pi, size=(Q, n))
    amp = rng.uniform(0.2, 1.0, size=(Q, n))
    x = (np.indices((N,) * m).reshape(m, -1).T - (N - 1) / 2.0) * h
    arg = (freq[None, :, :, None, :] @ x[:, None, None, :, None])[..., 0, 0]
    return amp * np.sin(arg + phase)


def check_poincare_reference(cfg):
    """``verify.check_poincare`` as it was: per trial a Lipschitz grid, window
    masks and an identity mask, one kernel call per grid shape."""
    from qvalued import verify
    from qvalued.qspace import MetricKind, match_many

    rng = verify._rng_for(cfg, "poincare")
    cap = cfg.tolerances["poincare_c"]
    report = verify.CheckReport("poincare", cfg.trials, 0, 0.0)
    N = 7
    h = 2.0 / (N - 1)
    trials = []
    for _ in range(cfg.trials):
        Q, n = verify._draw_Qn(rng, cfg)
        m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
        q = float(rng.choice([1.0, 2.0]))
        values = lipschitz_grid_reference(rng, m, Q, n, N=N)
        width = int(rng.integers(2, N + 1))
        lo = [int(rng.integers(0, N - width + 1)) for _ in range(m)]
        trials.append((values, m, q, width, lo))
    groups = {}
    for t, (values, *_) in enumerate(trials):
        groups.setdefault(values.shape[1:], []).append(t)
    best, rhs = np.empty(len(trials)), np.empty(len(trials))
    for index in groups.values():
        left, right, counts, offset = [], [], [], 0
        for t in index:
            values, m, _, width, lo = trials[t]
            u, v = verify._grid_edges(N, m)
            window = tuple(slice(a, a + width) for a in lo)
            nodes = np.arange(len(values)).reshape((N,) * m)[window].ravel()
            in_window = np.zeros(len(values), dtype=bool)
            in_window[nodes] = True
            inner = in_window[u] & in_window[v]
            k = nodes.size
            apart = ~np.eye(k, dtype=bool).ravel()
            left += [u[inner] + offset, np.tile(nodes, k)[apart] + offset]
            right += [v[inner] + offset, np.repeat(nodes, k)[apart] + offset]
            counts.append((int(inner.sum()), k, apart))
            offset += len(values)
        X = np.concatenate([trials[t][0] for t in index])
        sq, _ = match_many(X[np.concatenate(left)], X[np.concatenate(right)], MetricKind.G2)
        start = 0
        for t, (n_inner, k, apart) in zip(index, counts):
            _, m, q, width, _ = trials[t]
            terms = sq[start:start + n_inner + k * k - k] ** (q / 2.0)
            start += n_inner + k * k - k
            energy = h ** (m - q) * float(terms[:n_inner].sum())
            pairs = np.zeros(k * k)
            pairs[apart] = terms[n_inner:]
            best[t] = float((pairs.reshape(k, k) * h**m).sum(axis=1).min())
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


def build_frame_reference(n: int, Q: int, K="auto", seed: int = 0, eps_floor: float = 0.05,
                          max_K: int = 512):
    """``embed.build_frame`` for n >= 2 as it was: every direction count of the
    schedule packed and measured afresh, each basis completed and factored on
    its own.  Returns ``(bases, epsilon)``, or None where no count reaches the floor."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((4096, n))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    schedule = [int(K)] if K != "auto" else [
        2 * n * 2**i for i in range(max_K.bit_length()) if 2 * n * 2**i <= max_K]
    for k in schedule:
        chosen = [pool[0]]
        sims = np.abs(pool @ pool[0])
        while len(chosen) < k:
            i = int(np.argmin(sims))
            chosen.append(pool[i])
            sims = np.maximum(sims, np.abs(pool @ pool[i]))
        eps = measured_separation_reference(np.array(chosen), Q)
        if eps >= eps_floor or K != "auto":
            bases = []
            for d in chosen:
                M = np.empty((n, n))
                M[:, 0] = d
                M[:, 1:] = rng.standard_normal((n, n - 1))
                Qmat, _ = np.linalg.qr(M)
                if np.dot(Qmat[:, 0], d) < 0:
                    Qmat = -Qmat
                bases.append(Qmat.T)
            return np.array(bases), eps
    return None
