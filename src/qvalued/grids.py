"""Regular-grid sampling of Q-valued maps.

A GridFunction stores one Q-tuple per node of a regular grid over a box
centered at the origin.  Node ``idx`` sits at ``(idx - (shape-1)/2) * h``.
The mask classifies nodes as interior (free in Dirichlet problems),
boundary (data held fixed) or outside (not part of the domain).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

INTERIOR = 0
BOUNDARY = 1
OUTSIDE = 2


def index_tuples(flat, shape):
    """Iterate over the multi-indices (tuples of int) of flat C-order indices."""
    return zip(*(c.tolist() for c in np.unravel_index(flat, shape)))


def _blocks(rows: int, width: int, budget: int) -> list:
    """Slices of ``range(rows)`` of about ``budget // width`` rows each, so a
    block of rows against ``width`` columns holds about ``budget`` entries."""
    step = max(1, budget // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _nearest(points: np.ndarray, sites: np.ndarray, budget: int = 1 << 16) -> np.ndarray:
    """Index of the first nearest site to each point, about ``budget`` distances at a time.

    Squared distances are summed one coordinate at a time, in coordinate
    order, which is the order ``np.linalg.norm`` sums fewer than 8 squares
    in, so the distances, and the first minimum, are the ones it gives.
    """
    out = np.empty(len(points), dtype=np.intp)
    for block in _blocks(len(points), len(sites), budget):
        rows = points[block]
        d = np.zeros((len(rows), len(sites)))
        for p, s in zip(rows.T, sites.T):
            diff = s - p[:, None]
            d += diff * diff
        out[block] = np.argmin(np.sqrt(d), axis=1)
    return out


@dataclass(eq=False)
class GridFunction:
    """A Q-valued map sampled on a regular grid.

    Equality is identity: the array fields have no single truth value.

    Attributes
    ----------
    m : int
        Domain dimension (number of grid axes).
    n : int
        Ambient dimension of the points.
    Q : int
        Multiplicity of the tuples.
    shape : tuple of int
        Grid extents, one per axis.
    h : float
        Grid spacing.
    mask : ndarray of int8, shape ``shape``
        INTERIOR, BOUNDARY or OUTSIDE per node.
    values : ndarray, shape ``(*shape, Q, n)``
        One tuple per node; NaN at outside nodes.
    """

    m: int
    n: int
    Q: int
    shape: tuple
    h: float
    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        self.mask = np.asarray(self.mask, dtype=np.int8).reshape(self.shape)
        self.values = np.asarray(self.values, dtype=float).reshape(
            self.shape + (self.Q, self.n)
        )
        if self.m != len(self.shape):
            raise ValueError(f"m={self.m} does not match shape of length {len(self.shape)}")
        if self.h <= 0:
            raise ValueError("grid spacing h must be positive")
        if not ((self.mask >= INTERIOR) & (self.mask <= OUTSIDE)).all():
            raise ValueError("mask entries must be INTERIOR, BOUNDARY or OUTSIDE")
        inside = self.mask != OUTSIDE
        if not np.all(np.isfinite(self.values[inside])):
            raise ValueError("values must be finite on interior and boundary nodes")

    def copy(self) -> "GridFunction":
        return GridFunction(
            self.m, self.n, self.Q, self.shape, self.h, self.mask.copy(), self.values.copy()
        )

    def node_coords(self, idx) -> np.ndarray:
        """Physical coordinates of a node (grid centered at the origin)."""
        c = (np.asarray(self.shape, dtype=float) - 1.0) / 2.0
        return (np.asarray(idx, dtype=float) - c) * self.h

    def all_coords(self) -> np.ndarray:
        """Coordinates of every node, shape ``(*shape, m)``."""
        axes = [
            (np.arange(s, dtype=float) - (s - 1) / 2.0) * self.h for s in self.shape
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def node_index(self, kinds=(INTERIOR, BOUNDARY)) -> np.ndarray:
        """Flat (C-order) indices of the nodes whose mask is in ``kinds``."""
        # a lookup table indexed by the mask, which holds only the three kinds
        kinds = tuple(kinds)
        wanted = np.array([kind in kinds for kind in (INTERIOR, BOUNDARY, OUTSIDE)])
        return np.flatnonzero(wanted[self.mask])

    def edge_index(self):
        """Flat node indices ``(u, v)`` of every axis edge between non-outside nodes.

        Edges are ordered by ``u`` in C order, then by axis, with ``v`` the
        neighbour one step up that axis.  Computed afresh on every call,
        since ``mask`` may be changed in place.
        """
        inside = self.mask != OUTSIDE
        ok = np.zeros(self.shape + (self.m,), dtype=bool)
        for axis in range(self.m):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            ok[lo + (Ellipsis, axis)] = inside[lo] & inside[hi]
        node, axis = np.nonzero(ok.reshape(-1, self.m))
        step = np.array([int(np.prod(self.shape[a + 1 :])) for a in range(self.m)],
                        dtype=np.intp)
        return node, node + step[axis]

    def nodes(self, kinds=(INTERIOR, BOUNDARY)):
        """Iterate over node indices whose mask is in ``kinds``."""
        yield from index_tuples(self.node_index(kinds), self.shape)

    def edges(self):
        """Iterate over axis-adjacent pairs of non-outside nodes."""
        u, v = self.edge_index()
        yield from zip(index_tuples(u, self.shape), index_tuples(v, self.shape))

    def to_json(self) -> str:
        """Serialize; floats use Python repr, which round-trips exactly."""
        inside = self.mask != OUTSIDE
        vals = np.where(inside[..., None, None], self.values, 0.0)
        return json.dumps(
            {
                "m": self.m,
                "n": self.n,
                "Q": self.Q,
                "shape": list(self.shape),
                "h": self.h,
                "mask": self.mask.ravel().tolist(),
                "values": vals.reshape(-1, self.Q, self.n).tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        return cls.from_obj(json.loads(text))

    @classmethod
    def from_obj(cls, obj: dict) -> "GridFunction":
        """Build from the parsed JSON object that ``to_json`` writes."""
        shape = tuple(obj["shape"])
        mask = np.array(obj["mask"], dtype=np.int8).reshape(shape)
        values = np.array(obj["values"], dtype=float).reshape(
            shape + (obj["Q"], obj["n"])
        )
        values[mask == OUTSIDE] = np.nan
        return cls(obj["m"], obj["n"], obj["Q"], shape, obj["h"], mask, values)


def square_mask(resolution: int, m: int = 2) -> np.ndarray:
    """Full box domain: frame nodes are boundary, the rest interior."""
    shape = (resolution,) * m
    mask = np.full(shape, INTERIOR, dtype=np.int8)
    for axis in range(m):
        sl = [slice(None)] * m
        sl[axis] = 0
        mask[tuple(sl)] = BOUNDARY
        sl[axis] = resolution - 1
        mask[tuple(sl)] = BOUNDARY
    return mask


def disk_mask(resolution: int) -> np.ndarray:
    """Unit disk on a square grid over [-1, 1]^2.

    Interior nodes lie strictly inside the unit circle; boundary nodes are
    the outside nodes axis-adjacent to an interior one.
    """
    h = 2.0 / (resolution - 1)
    c = (resolution - 1) / 2.0
    idx = np.indices((resolution, resolution)).astype(float)
    x = (idx[0] - c) * h
    y = (idx[1] - c) * h
    r = np.sqrt(x * x + y * y)
    inside = r < 1.0
    mask = np.full((resolution, resolution), OUTSIDE, dtype=np.int8)
    mask[inside] = INTERIOR
    for axis, step in ((0, 1), (0, -1), (1, 1), (1, -1)):
        shifted = np.roll(inside, step, axis=axis)
        if step == 1:
            if axis == 0:
                shifted[0, :] = False
            else:
                shifted[:, 0] = False
        else:
            if axis == 0:
                shifted[-1, :] = False
            else:
                shifted[:, -1] = False
        mask[(mask == OUTSIDE) & shifted] = BOUNDARY
    return mask


def empty_grid(m: int, n: int, Q: int, resolution: int, mask: np.ndarray = None, *,
               extent: float = 2.0) -> GridFunction:
    """A grid over the centered box of side ``extent`` with zero tuples.

    ``mask`` defaults to the full square domain.
    """
    if mask is None:
        mask = square_mask(resolution, m)
    shape = mask.shape
    h = extent / (resolution - 1)
    values = np.zeros(shape + (Q, n))
    values[np.asarray(mask) == OUTSIDE] = np.nan
    return GridFunction(m, n, Q, shape, h, mask, values)
