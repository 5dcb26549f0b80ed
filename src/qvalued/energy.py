"""Discrete Sobolev machinery for grid-sampled Q-valued maps.

The p-energy of a grid function sums, over axis-adjacent node pairs, the
p-th power of the matched G2 difference quotient.  Minimizing it subject
to boundary data alternates between two exact steps: recompute the optimal
per-edge matchings, then, with matchings frozen, minimize the resulting
vector p-Dirichlet energy on the branch-lifted graph (iteratively
reweighted least squares: one weighted-Laplacian solve per iteration).
The Laplacian's sparsity pattern depends only on the matching, so it is
built once per matching and an iteration only writes its weights into it.
So is SuperLU's column order: the matching's first factorization finds it,
and later ones factor the matrix with its columns stored in that order.
A check that each of their pivots fell on the diagonal, as a fresh
factorization's do, guards the equality; where one did not, that system is
factored afresh in natural order.
Each iteration then steps to the energy's minimum along its direction, the
root of the slope found by ``_brent``, a port of scipy's ``brentq`` that
keeps ``scipy.optimize`` out of ``qv solve``.

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

from ._fields import ArgumentError
from .extend import BoundarySample, WhitneyExtension
from .grids import BOUNDARY, GridFunction, INTERIOR, OUTSIDE, _nearest, index_tuples
from .qspace import Matching, MetricKind, QTuple, match_many, vector_norms

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
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    _check_same_grid(f, g)
    inside = f.node_index()
    sq, _ = match_many(_tuples(f)[inside], _tuples(g)[inside], MetricKind.G2)
    return float((sq ** (p / 2.0)).sum() * f.h**f.m) ** (1.0 / p)


def discrete_energy(f: GridFunction, p: float) -> EnergyReport:
    """Discrete p-energy with per-edge optimal matchings.

    Each axis edge contributes ``h^m * (G2(f(u), f(v)) / h)^p``.  Matchings
    come from ``qspace.match_many``.
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"p must be a finite number > 1, got {p}")
    with np.errstate(over="ignore"):  # an energy past float64 is named below
        report = _energy_report(f, p, *_match_edges(f))
    _finite_energy(report.total)
    return report


def _energy_report(grid: GridFunction, p: float, u, v, sq, perms) -> EnergyReport:
    """The report of the edges ``(u, v)`` of ``grid``, their squared G2 lengths and matchings."""
    contributions = grid.h ** (grid.m - p) * sq ** (p / 2.0)
    return EnergyReport(float(contributions.sum()), p, grid.shape, u, v,
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
    bnodes = f.node_index((BOUNDARY,))
    if not bnodes.size:
        raise ArgumentError("mask", "field 'mask' of the grid marks no boundary node")
    locs = f.all_coords().reshape(-1, f.m)[bnodes]
    points = [(x, QTuple(value)) for x, value in zip(locs, _tuples(f)[bnodes])]
    return BoundarySample(points=points, R=float(vector_norms(locs).max()), m=f.m)


def max_difference_quotient(f: GridFunction) -> float:
    """Largest per-edge G2 difference quotient; the grid Lipschitz constant."""
    _, _, sq, _ = _match_edges(f)
    return float(np.sqrt(sq).max(initial=0.0)) / f.h


def _boundary_values(boundary, grid: GridFunction, bnodes: np.ndarray) -> np.ndarray:
    """The (B, Q, n) Dirichlet data at the B flat node indices ``bnodes``: read off a
    grid function on ``grid``'s grid, or gathered from a dict of (Q, n) values by node."""
    if isinstance(boundary, GridFunction):
        _check_same_grid(boundary, grid)
        values = _tuples(boundary)[bnodes]
    else:
        given = {}
        for idx, value in boundary.items():
            idx = tuple(int(i) for i in idx)
            arr = value.points if isinstance(value, QTuple) else np.asarray(value, dtype=float)
            if arr.shape != (grid.Q, grid.n):
                raise ValueError(f"boundary value at {idx} has shape {arr.shape}, "
                                 f"expected {(grid.Q, grid.n)}")
            given[idx] = arr
        values = np.empty((bnodes.size, grid.Q, grid.n))
        for row, idx in enumerate(index_tuples(bnodes, grid.shape)):
            if idx not in given:
                raise ValueError(f"boundary value missing at node {idx}")
            values[row] = given[idx]
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary values must be finite")
    return values


def _stranded(size: int, u: np.ndarray, v: np.ndarray, bnodes: np.ndarray,
              interior: np.ndarray) -> np.ndarray:
    """Interior nodes whose component of the edge graph holds no boundary node."""
    # local import: scipy.sparse and csgraph add ~0.35 s to every `qv` start-up otherwise
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix((np.ones(u.size), (u, v)), shape=(size, size))
    _, component = connected_components(graph, directed=False)
    anchored = np.zeros(component.max() + 1, dtype=bool)
    anchored[component[bnodes]] = True
    return interior[~anchored[component[interior]]]


def solve_dirichlet(boundary, grid: GridFunction, p: float = 2.0, *,
                    tol: float = 1e-8, max_outer: int = 60,
                    restarts: int = 3, seed: int = 0, max_inner: int = 200):
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
        Energy exponent, in (1, P_CAP].
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
    if not 1.0 < p <= P_CAP:
        raise ValueError(f"p must lie in (1, {P_CAP}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    bnodes = grid.node_index((BOUNDARY,))
    bvalue_arr = _boundary_values(boundary, grid, bnodes)
    if not bnodes.size:
        raise ArgumentError("mask", "field 'mask' of the grid marks no boundary node")
    interior = grid.node_index((INTERIOR,))
    u, v = grid.edge_index()
    stranded = _stranded(grid.mask.size, u, v, bnodes, interior)
    if stranded.size:
        node = next(index_tuples(stranded[:1], grid.shape))
        raise ArgumentError("mask", f"field 'mask' of the grid leaves interior node {node} "
                                    "with no path of inside edges to a boundary node")
    coords = grid.all_coords().reshape(-1, grid.m)
    nearest, _ = _nearest(coords[interior], coords[bnodes])

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
    values, history, iterations, converged, sq, perms = best
    solution = GridFunction(grid.m, grid.n, grid.Q, grid.shape, grid.h,
                            grid.mask.copy(), values)
    # the last matching pass of the winning restart matched these very values
    report = _energy_report(solution, p, u, v, sq, perms)
    report.iterations = iterations
    report.converged = converged
    return solution, report, history


def _alternate(values, grid, interior, u, v, p, *, tol, max_outer, max_inner):
    """Alternate matching passes and frozen-matching steps, in place on ``values``.

    Returns the values, the energy history, the outer iteration count, whether
    the run converged, and the last pass's squared edge lengths and matchings,
    which are those of the returned values.  Branch position
    ``node * Q + branch`` is a row of ``Y``; ``slot`` maps it to its unknown's
    index, or -1 on the boundary.
    """
    Q = grid.Q
    w = grid.h ** (grid.m - p)
    X = values.reshape(-1, Q, grid.n)
    Y = values.reshape(-1, grid.n)
    free = (interior[:, None] * Q + np.arange(Q)).ravel()
    slot = np.full(len(Y), -1, dtype=np.intp)
    slot[free] = np.arange(free.size)
    ga = u[:, None] * Q + np.arange(Q)

    sq, perms, energy = _matching_pass(X, u, v, w, p)
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
        sq, perms, energy_new = _matching_pass(X, u, v, w, p)
        if energy_new > energy + 1e-12 * (1.0 + energy):
            raise ArithmeticError("energy increased during alternating minimization")
        history.append(energy_new)
        if energy - energy_new < tol * (1.0 + energy_new):
            converged = True
            energy = energy_new
            break
        energy = energy_new
    return values, history, iterations, converged, sq, perms


def _matching_pass(X, u, v, w, p):
    """Match the tuples ``X`` across the edges ``(u, v)``: each edge's squared
    G2 length and matching, and the p-energy ``w * sum(sq**(p/2))``.  Finite
    values far enough apart take the energy past the float64 range; that is
    named, not warned of."""
    with np.errstate(over="ignore"):
        sq, perms = match_many(X[u], X[v], MetricKind.G2)
        energy = w * float((sq ** (p / 2.0)).sum())
    return sq, perms, _finite_energy(energy)


def _finite_energy(energy: float) -> float:
    """``energy``, which must be finite: else the values are at fault."""
    if not math.isfinite(energy):
        raise ArgumentError("values", "field 'values' holds branches so far apart that "
                                      "their p-energy overflows float64; scale them down")
    return energy


def _minimize_frozen(Y, ga, gb, slot, free, w, p, tol, max_inner):
    """Lower the frozen-matching p-energy by iteratively reweighted least squares.

    Edge ``e`` pairs positions ``ga[e]`` with ``gb[e]`` and contributes
    ``w * S_e^(p/2)``, ``S_e`` its squared matched length.  Each iteration
    weights it by ``S_e^((p-2)/2)``, solves the weighted Laplacian and moves
    to the energy's minimum on the line through the solution.  The
    Laplacian's pattern is built once for the matching; an iteration writes
    its weights into it and factorizes.
    """
    if free.size == 0:
        return
    laplacian = _FrozenLaplacian(Y, ga, gb, slot, free)
    if p == 2.0:
        # the weights are all 1 and one solve is the exact minimizer
        Y[free] = laplacian.solve(np.ones(len(ga)))
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
        Y[free] = laplacian.solve(weight)
        step = Y[free] - x0
        D = Y[ga] - Y[gb] - delta
        # a step too long to square is the values' fault, named as the energy's overflow is
        with np.errstate(over="ignore"):
            b, c = np.einsum("eqn,eqn->e", delta, D), np.einsum("eqn,eqn->e", D, D)
            _finite_energy(float(c.sum()))
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
    """The t in [0, 64] minimizing the convex ``sum((S + 2bt + ct^2)^(p/2))``:
    the root of its slope, found by ``_brent`` to within 1e-14."""
    b2, power = 2.0 * b, p / 2.0 - 1.0

    def slope(t):
        s = np.maximum(S + t * (b2 + t * c), 0.0)
        pos = s > 0.0
        if pos.all():
            return float((s ** power * (b + t * c)).sum())
        return float((s[pos] ** power * (b[pos] + t * c[pos])).sum())

    f0 = slope(0.0)
    if not f0 < 0.0:
        return 0.0
    f64 = slope(64.0)
    return 64.0 if f64 < 0.0 else _brent(slope, 0.0, 64.0, f0, f64, 1e-14)


# brentq's least and default relative tolerance
_RTOL = 4 * float(np.finfo(float).eps)


def _brent(f, xpre, xcur, fpre, fcur, xtol, maxiter=100):
    """A root of ``f`` between ``xpre`` and ``xcur``, where it takes the values
    ``fpre`` and ``fcur`` of opposite signs, by Brent's method.

    Step for step the ``brentq`` of scipy (``scipy/optimize/Zeros/brentq.c``),
    so it returns the same float.  Like ``brentq(..., disp=False)`` it returns
    the last iterate when ``maxiter`` iterations do not converge, and it raises
    ``ValueError`` on a NaN value of ``f``.
    """
    for fx in (fpre, fcur):
        if math.isnan(fx):
            raise ValueError("the function value is NaN; Brent's method cannot continue")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an infinity or a NaN, which fails the test below
                stry = math.inf
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN; "
                             "Brent's method cannot continue")
    return xcur


class _FrozenLaplacian:
    """The weighted Laplacian of one frozen matching, solved for any edge weights.

    Position ``ga[e, i]`` is paired with ``gb[e, i]`` with weight
    ``weight[e]``; the unknowns are the rows ``free`` of ``Y``.  The sparsity
    pattern, the order that puts the entries into CSC order, and the pairs
    with one known end are found once; ``system`` only writes the weights
    into them.

    SuperLU's column order (COLAMD, then a postorder of the column
    elimination tree) depends on the pattern alone, so it too is found once:
    the first ``solve`` factors the matrix as it is, and the second folds
    that order, ``perm_c``, into the pattern, so unknown ``i`` is stored in
    column ``perm_c[i]``.  (A p = 2 matching is solved once, and never folds
    it.)  Later solves factor the stored matrix in its own order and put the
    solution back in unknown order.  That factor is the one a fresh ``splu``
    of the natural-order matrix makes when both pivot on the diagonal in
    every column, so a solve checks that it did, and where it did not,
    factors the natural-order matrix as the first solve does.
    """

    def __init__(self, Y, ga, gb, slot, free):
        # local import: scipy.sparse costs ~0.35 s at start-up, and only `qv solve` needs it
        from scipy.sparse import csc_matrix

        N, E = free.size, len(ga)
        a, b = slot[ga].ravel(), slot[gb].ravel()
        edge = np.repeat(np.arange(E), ga.shape[1])
        ka, kb = a >= 0, b >= 0
        both = ka & kb
        self.diag_at = np.concatenate([a[ka], b[kb]])
        self.diag_edge = np.concatenate([edge[ka], edge[kb]])
        rows = np.concatenate([a[both], b[both], np.arange(N)])
        cols = np.concatenate([b[both], a[both], np.arange(N)])
        key = cols * N + rows
        order = np.argsort(key)
        key = key[order]
        # grid edges join distinct node pairs, so no entry of the matrix repeats
        assert (key[1:] > key[:-1]).all(), "repeated Laplacian entry"
        # entry k of the matrix holds -weight[pick[k]], or a diagonal sum for pick[k] >= E
        self.pick = np.concatenate([edge[both], edge[both], E + np.arange(N)])[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=N))])
        self.L = csc_matrix((np.empty(key.size), key % N, indptr), shape=(N, N))
        # SuperLU's column order, found by the first solve and stored by the second
        self._first_order = self.perm_c = None
        # a pair with one known end adds weight * that end's value to the other's right-hand side
        one = ka != kb
        self.rhs_at = np.where(ka, a, b)[one]
        self.rhs_edge = edge[one]
        self.known = Y[np.where(ka, gb.ravel(), ga.ravel())[one]]

    def system(self, weight):
        """The matrix and right-hand side for ``weight``; the matrix is shared
        between calls and overwritten by the next one.  From the second solve
        on, its columns are stored in the order ``argsort(perm_c)``."""
        N = self.L.shape[0]
        diag = np.bincount(self.diag_at, weight[self.diag_edge], N)
        np.take(np.concatenate([-weight, diag]), self.pick, out=self.L.data)
        rhs = np.zeros((N, self.known.shape[1]))
        np.add.at(rhs, self.rhs_at, weight[self.rhs_edge, None] * self.known)
        return self.L, rhs

    def solve(self, weight):
        """The unknowns at the minimizer of the weighted 2-energy, one row each."""
        # local import: scipy.sparse.linalg costs ~0.35 s at start-up, and only `qv solve` needs it
        from scipy.sparse.linalg import splu

        if self._first_order is not None:
            self._store_columns(self._first_order)
            self._first_order = None
        L, rhs = self.system(weight)
        if self.perm_c is None:
            lu = splu(L)
            # folded in by a second solve: a p = 2 matching never has one
            self._first_order = lu.perm_c
            return lu.solve(rhs)
        lu = splu(L, permc_spec="NATURAL")
        # the stored order kept, and each pivot on the diagonal: unknown i's row
        # at step perm_c[i], where its column stands
        if (np.array_equal(lu.perm_c, np.arange(L.shape[0]))
                and np.array_equal(lu.perm_r, self.perm_c)):
            return lu.solve(rhs)[self.perm_c]
        return splu(L[:, self.perm_c]).solve(rhs)

    def _store_columns(self, perm_c):
        """Store unknown ``i``'s column at ``perm_c[i]``."""
        # local import: as in __init__
        from scipy.sparse import csc_matrix

        N, L = perm_c.size, self.L
        self.perm_c = perm_c
        order = np.argsort(perm_c)
        counts = np.diff(L.indptr)[order]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        take = np.repeat(L.indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        self.pick = self.pick[take]
        self.L = csc_matrix((L.data[take], L.indices[take], indptr), shape=(N, N))


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
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite number >= 1, got {p}")
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
