"""Discrete Sobolev machinery for grid-sampled Q-valued maps.

The p-energy of a grid function sums, over axis-adjacent node pairs, the
p-th power of the matched G2 difference quotient.  Minimizing it subject
to boundary data alternates between two exact steps: recompute the optimal
per-edge matchings, then, with matchings frozen, minimize the resulting
vector p-Dirichlet energy on the branch-lifted graph (iteratively
reweighted least squares: one weighted-Laplacian solve per iteration).

All of it runs on flat arrays: the edges are the index arrays of
``GridFunction.edge_index``, one G2 call of ``qspace.match_many`` matches
every edge, and the solver addresses each (node, branch) position as a row
of the values reshaped to ``(nodes * Q, n)``.

Grid functions are treated as immutable snapshots: the solver works on
its own copy and the public API is safe for concurrent read-only use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from .extend import BoundarySample, WhitneyExtension
from .grids import BOUNDARY, GridFunction, INTERIOR, OUTSIDE, _nearest, index_tuples
from .qspace import Matching, MetricKind, QTuple, match_many

P_CAP = 8.0


@dataclass(eq=False)
class EnergyReport:
    """Total discrete p-energy with its per-edge breakdown.

    Edge ``e`` joins the flat node indices ``edge_u[e]`` and ``edge_v[e]``
    of a grid of shape ``shape``, contributes ``contributions[e]`` to the
    total and is matched by ``perms[e]``.  ``per_edge`` lists the same as
    ``(edge, contribution, Matching)`` with an edge a pair of node
    multi-indices; it is built when first read.
    """

    total: float
    p: float
    shape: tuple
    edge_u: np.ndarray
    edge_v: np.ndarray
    contributions: np.ndarray
    perms: np.ndarray
    iterations: int = 0
    converged: bool = True

    @cached_property
    def per_edge(self) -> list:
        edges = zip(index_tuples(self.edge_u, self.shape),
                    index_tuples(self.edge_v, self.shape))
        return [(edge, c, Matching(perm)) for edge, c, perm in
                zip(edges, self.contributions.tolist(), self.perms.tolist())]


def _check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.shape != g.shape or f.Q != g.Q or f.n != g.n or f.h != g.h:
        raise ValueError("grid functions must share shape, spacing, Q and n")
    if not np.array_equal(f.mask, g.mask):
        raise ValueError("grid functions must share the same mask")


def _tuples(f: GridFunction) -> np.ndarray:
    """The values as one (Q, n) tuple per flat node index (a view)."""
    return f.values.reshape(-1, f.Q, f.n)


def _match_edges(f: GridFunction):
    """Edge index arrays with each edge's squared G2 length and matching."""
    u, v = f.edge_index()
    X = _tuples(f)
    return (u, v) + match_many(X[u], X[v], MetricKind.G2)


def dp_distance(f: GridFunction, g: GridFunction, p: float) -> float:
    """The L_p semimetric: node-wise G2 distances integrated at grid scale."""
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_same_grid(f, g)
    inside = f.node_index()
    sq, _ = match_many(_tuples(f)[inside], _tuples(g)[inside], MetricKind.G2)
    return float((sq ** (p / 2.0)).sum() * f.h**f.m) ** (1.0 / p)


def discrete_energy(f: GridFunction, p: float) -> EnergyReport:
    """Discrete p-energy with per-edge optimal matchings.

    Each axis edge contributes ``h^m * (G2(f(u), f(v)) / h)^p``.  Matchings
    come from ``qspace.match_many``.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    u, v, sq, perms = _match_edges(f)
    contributions = f.h ** (f.m - p) * sq ** (p / 2.0)
    return EnergyReport(float(contributions.sum()), p, f.shape, u, v,
                        contributions, perms)


def truncate_coords(f: GridFunction, n_keep: int) -> GridFunction:
    """Keep the first n_keep coordinates of every point of every tuple."""
    if not 1 <= n_keep <= f.n:
        raise ValueError(f"n_keep must lie in [1, {f.n}], got {n_keep}")
    return GridFunction(
        f.m, n_keep, f.Q, f.shape, f.h, f.mask.copy(), f.values[..., :n_keep].copy()
    )


def trace(f: GridFunction) -> BoundarySample:
    """Restriction of the values to the boundary-flagged nodes.

    Locations are the boundary nodes' physical coordinates; for disk masks
    they sit within one grid cell of the circle, for square masks on the
    frame.  R is the largest location norm.
    """
    points = []
    R = 0.0
    for idx in f.nodes(kinds=(BOUNDARY,)):
        x = f.node_coords(idx)
        R = max(R, float(np.linalg.norm(x)))
        points.append((x, QTuple(f.values[idx])))
    if not points:
        raise ValueError("grid has no boundary nodes")
    return BoundarySample(points=points, R=R, m=f.m)


def max_difference_quotient(f: GridFunction) -> float:
    """Largest per-edge G2 difference quotient; the grid Lipschitz constant."""
    _, _, sq, _ = _match_edges(f)
    return float(np.sqrt(sq).max(initial=0.0)) / f.h


def _boundary_values(boundary, grid: GridFunction) -> dict:
    if isinstance(boundary, GridFunction):
        _check_same_grid(boundary, grid)
        return {idx: boundary.values[idx] for idx in grid.nodes(kinds=(BOUNDARY,))}
    out = {}
    for idx, value in boundary.items():
        idx = tuple(int(i) for i in idx)
        arr = value.points if isinstance(value, QTuple) else np.asarray(value, dtype=float)
        if arr.shape != (grid.Q, grid.n):
            raise ValueError(
                f"boundary value at {idx} has shape {arr.shape}, expected {(grid.Q, grid.n)}"
            )
        out[idx] = arr
    return out


def _stranded(size: int, u: np.ndarray, v: np.ndarray, bnodes: np.ndarray,
              interior: np.ndarray) -> np.ndarray:
    """Interior nodes whose component of the edge graph holds no boundary node."""
    # local import: csgraph adds ~1 MB and ~5 ms to every `qv` start-up otherwise
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix((np.ones(u.size), (u, v)), shape=(size, size))
    _, component = connected_components(graph, directed=False)
    anchored = np.zeros(component.max() + 1, dtype=bool)
    anchored[component[bnodes]] = True
    return interior[~anchored[component[interior]]]


def solve_dirichlet(boundary, grid: GridFunction, p: float = 2.0, *,
                    tol: float = 1e-8, max_outer: int = 60,
                    restarts: int = 3, seed: int = 0, max_inner: int = 200,
                    p_cap: float = P_CAP):
    """Minimize the discrete p-energy subject to boundary values.

    Alternating minimization: recompute optimal per-edge matchings, then
    minimize the frozen-matching energy over the interior branch positions
    by iteratively reweighted least squares, one sparse weighted-Laplacian
    solve per inner iteration (a single exact solve at p = 2).  The first
    pass starts from nearest-boundary values; the other ``restarts - 1``
    start from randomized boundary assignments and the best energy wins.

    Parameters
    ----------
    boundary : dict or GridFunction
        Map from boundary node index to a (Q, n) value, or a grid function
        whose boundary values are used.
    grid : GridFunction
        Supplies mask, shape, spacing, Q and n; its values are ignored.
    p : float
        Energy exponent, in (1, p_cap].
    tol : float
        An outer or inner loop ends when a pass lowers the energy E by less
        than ``tol * (1 + E)``; finite and positive.

    Returns
    -------
    solution : GridFunction
    report : EnergyReport
    history : list of float
        Total energy after initialization and after each outer iteration
        of the winning restart; nonincreasing.
    """
    if not 1.0 < p <= p_cap:
        raise ValueError(f"p must lie in (1, {p_cap}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    bvals = _boundary_values(boundary, grid)
    bnodes = grid.node_index((BOUNDARY,))
    if not bnodes.size:
        raise ValueError("grid has no boundary nodes")
    boundary_nodes = list(index_tuples(bnodes, grid.shape))
    missing = [idx for idx in boundary_nodes if idx not in bvals]
    if missing:
        raise ValueError(f"boundary value missing at node {missing[0]}")
    bvalue_arr = np.array([bvals[idx] for idx in boundary_nodes])
    if not np.all(np.isfinite(bvalue_arr)):
        raise ValueError("boundary values must be finite")
    interior = grid.node_index((INTERIOR,))
    u, v = grid.edge_index()
    stranded = _stranded(grid.mask.size, u, v, bnodes, interior)
    if stranded.size:
        raise ValueError(f"interior node {next(index_tuples(stranded[:1], grid.shape))} "
                         "has no path of inside edges to a boundary node")
    coords = grid.all_coords().reshape(-1, grid.m)
    nearest = _nearest(coords[interior], coords[bnodes])

    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(restarts):
        values = np.zeros(grid.shape + (grid.Q, grid.n))
        values[grid.mask == OUTSIDE] = np.nan
        X = values.reshape(-1, grid.Q, grid.n)
        X[bnodes] = bvalue_arr
        if attempt == 0:
            X[interior] = bvalue_arr[nearest]
        else:
            X[interior] = bvalue_arr[rng.integers(0, len(bnodes), size=len(interior))]
        result = _alternate(values, grid, interior, u, v, p,
                            tol=tol, max_outer=max_outer, max_inner=max_inner)
        if best is None or result[1][-1] < best[1][-1]:
            best = result
    values, history, iterations, converged = best
    solution = GridFunction(grid.m, grid.n, grid.Q, grid.shape, grid.h,
                            grid.mask.copy(), values)
    report = discrete_energy(solution, p)
    report.iterations = iterations
    report.converged = converged
    return solution, report, history


def _alternate(values, grid, interior, u, v, p, *, tol, max_outer, max_inner):
    """Alternate matching passes and frozen-matching steps, in place on ``values``.

    Branch position ``node * Q + branch`` is a row of ``Y``; ``slot`` maps
    it to its unknown's index, or -1 on the boundary.
    """
    Q = grid.Q
    w = grid.h ** (grid.m - p)
    X = values.reshape(-1, Q, grid.n)
    Y = values.reshape(-1, grid.n)
    free = (interior[:, None] * Q + np.arange(Q)).ravel()
    slot = np.full(len(Y), -1, dtype=np.intp)
    slot[free] = np.arange(free.size)
    ga = u[:, None] * Q + np.arange(Q)

    sq, perms = match_many(X[u], X[v], MetricKind.G2)
    energy = w * float((sq ** (p / 2.0)).sum())
    if not math.isfinite(energy):
        raise ArithmeticError("initial energy is not finite")
    history = [energy]
    converged = False
    iterations = 0
    solved = None
    for outer in range(1, max_outer + 1):
        iterations = outer
        if p == 2.0 and solved is not None and np.array_equal(perms, solved):
            # the p = 2 solve depends on nothing but the matching, so it would
            # return the values it gave last time, at the same energy
            history.append(energy)
            converged = True
            break
        solved = perms
        gb = v[:, None] * Q + perms
        _minimize_frozen(Y, ga, gb, slot, free, w, p, tol, max_inner)
        sq, perms = match_many(X[u], X[v], MetricKind.G2)
        energy_new = w * float((sq ** (p / 2.0)).sum())
        if energy_new > energy + 1e-12 * (1.0 + energy):
            raise ArithmeticError("energy increased during alternating minimization")
        history.append(energy_new)
        if energy - energy_new < tol * (1.0 + energy_new):
            converged = True
            energy = energy_new
            break
        energy = energy_new
    return values, history, iterations, converged


def _minimize_frozen(Y, ga, gb, slot, free, w, p, tol, max_inner):
    """Lower the frozen-matching p-energy by iteratively reweighted least squares.

    Edge ``e`` pairs positions ``ga[e]`` with ``gb[e]`` and contributes
    ``w * S_e^(p/2)``, ``S_e`` its squared matched length.  Each iteration
    weights it by ``S_e^((p-2)/2)``, solves the weighted Laplacian and moves
    to the energy's minimum on the line through the solution.
    """
    if free.size == 0:
        return
    if p == 2.0:
        # the weights are all 1 and one solve is the exact minimizer
        Y[free] = _branch_step_linear(Y, ga, gb, slot, free, np.ones(len(ga)))
        return
    delta = Y[ga] - Y[gb]
    S = np.einsum("eqn,eqn->e", delta, delta)
    energy = w * float((S ** (p / 2.0)).sum())
    for _ in range(max_inner):
        # the floors, on S relative to 1 + max S and on the weight relative to the
        # largest, keep every weight positive and the system's conditioning bounded
        weight = np.maximum(S, 1e-12 * (1.0 + S.max())) ** ((p - 2.0) / 2.0)
        weight = np.maximum(weight, 1e-8 * weight.max())
        x0 = Y[free]
        Y[free] = _branch_step_linear(Y, ga, gb, slot, free, weight)
        step = Y[free] - x0
        D = Y[ga] - Y[gb] - delta
        b, c = np.einsum("eqn,eqn->e", delta, D), np.einsum("eqn,eqn->e", D, D)
        Y[free] = x0 + _line_minimum(S, b, c, p) * step
        delta = Y[ga] - Y[gb]
        S = np.einsum("eqn,eqn->e", delta, delta)
        e_new = w * float((S ** (p / 2.0)).sum())
        if not e_new <= energy:
            Y[free] = x0
            return
        if energy - e_new < tol * (1.0 + e_new):
            return
        energy = e_new


def _line_minimum(S, b, c, p):
    """The t in [0, 64] minimizing the convex ``sum((S + 2bt + ct^2)^(p/2))``."""
    def slope(t):
        s = np.maximum(S + t * (2.0 * b + t * c), 0.0)
        pos = s > 0.0
        return float((s[pos] ** (p / 2.0 - 1.0) * (b[pos] + t * c[pos])).sum())

    if not slope(0.0) < 0.0:
        return 0.0
    return 64.0 if slope(64.0) < 0.0 else brentq(slope, 0.0, 64.0, xtol=1e-14, disp=False)


def _branch_step_linear(Y, ga, gb, slot, free, weight):
    """Minimizer of the frozen-matching weighted 2-energy: one sparse solve.

    Position ``ga[e, i]`` is paired with ``gb[e, i]`` with weight
    ``weight[e]``; the unknowns are the rows ``free`` of ``Y``.  Returns
    their values at the minimizer, one row per unknown.
    """
    N = free.size
    a, b = slot[ga].ravel(), slot[gb].ravel()
    wt = np.repeat(weight, ga.shape[1])
    ka, kb = a >= 0, b >= 0
    both = ka & kb
    diag = np.bincount(np.concatenate([a[ka], b[kb]]), np.concatenate([wt[ka], wt[kb]]), N)
    rows = np.concatenate([a[both], b[both], np.arange(N)])
    cols = np.concatenate([b[both], a[both], np.arange(N)])
    data = np.concatenate([-wt[both], -wt[both], diag])
    # a pair with one known end adds weight * that end's value to the other's right-hand side
    one = ka != kb
    rhs = np.zeros((N, Y.shape[1]))
    np.add.at(rhs, np.where(ka, a, b)[one],
              wt[one, None] * Y[np.where(ka, gb.ravel(), ga.ravel())[one]])
    L = csr_matrix((data, (rows, cols)), shape=(N, N)).tocsc()
    return splu(L).solve(rhs)


def lipschitz_truncation(f: GridFunction, t: float, p: float = 2.0):
    """Keep the nodes where value size and local slope stay below t; refill the rest.

    A node survives when ``|f(x)|^p + q(x)^p <= t^p`` with ``q`` the largest
    incident difference quotient.  The surviving values are untouched; the
    complement is filled by the dyadic-cube extension from the survivors,
    so the result has a controlled Lipschitz constant.  With no survivors
    the zero function is returned.

    Returns
    -------
    (h, kept) : GridFunction and the set of surviving node indices
    """
    if t <= 0:
        raise ValueError("t must be positive")
    inside = f.mask != OUTSIDE
    normf = np.zeros(f.shape)
    normf[inside] = np.sqrt(
        np.einsum("...qn,...qn->...", f.values[inside], f.values[inside])
    )
    u, v, sq, _ = _match_edges(f)
    q = np.sqrt(sq) / f.h
    quot = np.zeros(f.mask.size)
    np.maximum.at(quot, u, q)
    np.maximum.at(quot, v, q)
    quot = quot.reshape(f.shape)
    keep = inside & (normf**p + quot**p <= t**p)
    kept = set(map(tuple, np.argwhere(keep).tolist()))

    out = f.copy()
    if not kept:
        out.values[inside] = 0.0
        return out, kept
    if len(kept) == int(inside.sum()):
        return out, kept

    if f.m not in (1, 2):
        raise ValueError("refilling requires m in {1, 2}")
    coords = f.all_coords()
    data = list(zip(coords[keep], f.values[keep]))
    lo = coords.reshape(-1, f.m).min(axis=0) - f.h / 2
    hi = coords.reshape(-1, f.m).max(axis=0) + f.h / 2
    box = np.column_stack([lo, hi])
    depth = min(12, max(3, int(math.ceil(math.log2(max(f.shape)))) + 1))
    ext = WhitneyExtension(data, box, depth)
    dropped = inside & ~keep
    out.values[dropped] = ext.evaluate_many(coords[dropped])
    return out, kept
