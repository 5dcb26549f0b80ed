"""Minimizing the discrete p-energy of a two-valued map on the disk.

The boundary carries the two branches of the complex square root, which
admit no continuous single-valued selection around the circle; the
minimizer is genuinely multi-valued.

Run: python demos/04_dirichlet_solver.py
"""

import math

import numpy as np

from qvalued import (
    discrete_energy,
    disk_mask,
    dp_distance,
    empty_grid,
    solve_dirichlet,
    trace,
    truncate_coords,
)
from qvalued.grids import BOUNDARY


def sqrt_pair(x, y):
    r, t = math.hypot(x, y), math.atan2(y, x) / 2.0
    s = math.sqrt(r)
    return [[s * math.cos(t), s * math.sin(t)],
            [-s * math.cos(t), -s * math.sin(t)]]


N = 33
grid = empty_grid(2, 2, 2, N, disk_mask(N))
boundary = {}
for idx in grid.nodes(kinds=(BOUNDARY,)):
    x = grid.node_coords(idx)
    u = x / np.linalg.norm(x)
    boundary[idx] = sqrt_pair(u[0], u[1])

# --- Solve: alternate optimal matchings with exact branch-wise solves ---
solution, report, history = solve_dirichlet(boundary, grid, p=2.0, restarts=3)
print(f"converged: {report.converged} after {report.iterations} outer iterations")
print("energy history:", [round(e, 6) for e in history])

# --- The explicitly sampled square-root pair is an upper bound ---
candidate = grid.copy()
for idx in grid.nodes():
    if grid.mask[idx] == BOUNDARY:
        candidate.values[idx] = boundary[idx]
    else:
        x = grid.node_coords(idx)
        candidate.values[idx] = sqrt_pair(x[0], x[1])
print(f"solver energy    {report.total:.6f}")
print(f"candidate energy {discrete_energy(candidate, 2.0).total:.6f}")
print(f"continuum value  {2 * math.pi:.6f}  (Dirichlet energy of the sqrt pair)")

# --- p = 3: the same alternation, with iteratively reweighted solves inside ---
_, report3, history3 = solve_dirichlet(boundary, grid, p=3.0, restarts=1)
print(f"p = 3 converged: {report3.converged} after {report3.iterations} outer iterations")
print("p = 3 energy history:", [round(e, 6) for e in history3])
print(f"p = 3 solver energy    {report3.total:.6f}")
print(f"p = 3 candidate energy {discrete_energy(candidate, 3.0).total:.6f}")

# --- The trace is exactly the boundary data ---
tr = trace(solution)
exact = all(
    np.array_equal(val.points, np.asarray(boundary[idx]))
    for (loc, val), idx in zip(tr.points, grid.nodes(kinds=(BOUNDARY,)))
)
print("trace(solution) == boundary data:", exact)

# --- Coordinate truncation only lowers the energy ---
for k in (1, 2):
    e = discrete_energy(truncate_coords(solution, k), 2.0).total
    print(f"energy with first {k} coordinate(s): {e:.6f}")

# --- d_p distance between solver output and the sampled candidate ---
print("d_2(solution, candidate) =", round(dp_distance(solution, candidate, 2.0), 6))
