"""Regular-grid sampling of Q-valued maps.

A GridFunction stores one Q-tuple per node of a regular grid over a box
centered at the origin.  Node ``idx`` sits at ``(idx - (shape-1)/2) * h``.
The mask classifies nodes as interior (free in Dirichlet problems),
boundary (data held fixed) or outside (not part of the domain).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._fields import (ArgumentError, _field, _int_field, _is_int, _number_array,
                      _positive_field, _short)

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


def _nearest(points: np.ndarray, sites: np.ndarray, budget: int = 1 << 16) -> tuple:
    """Index of the first nearest site to each point and the distance to it,
    about ``budget`` distances at a time.

    Squared distances are summed one coordinate at a time, in coordinate
    order, which is the order ``np.linalg.norm`` sums fewer than 8 squares
    in, so below 8 coordinates the distances, and the first minimum, are
    the ones it gives.
    """
    index = np.empty(len(points), dtype=np.intp)
    gap = np.empty(len(points))
    for block in _blocks(len(points), len(sites), budget):
        rows = points[block]
        d = np.zeros((len(rows), len(sites)))
        for p, s in zip(rows.T, sites.T):
            diff = s - p[:, None]
            d += diff * diff
        d = np.sqrt(d)
        index[block] = np.argmin(d, axis=1)
        gap[block] = d[np.arange(len(d)), index[block]]
    return index, gap


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
        if self.m != len(self.shape):
            raise ArgumentError("shape", f"field 'shape' {list(self.shape)} must have m={self.m} "
                                         "extents")
        if not 0 < self.h < math.inf:
            raise ArgumentError("h", f"field 'h' must be a positive finite number, got {self.h!r}")
        nodes = math.prod(self.shape)
        mask, values = np.asarray(self.mask), np.asarray(self.values, dtype=float)
        if mask.size != nodes:
            raise ArgumentError("mask", f"field 'mask' must hold {nodes} entries, one per node, "
                                        f"got {mask.size}")
        if not ((mask == INTERIOR) | (mask == BOUNDARY) | (mask == OUTSIDE)).all():
            raise ArgumentError("mask", f"bad field 'mask': mask entries must be INTERIOR, BOUNDARY"
                                        f" or OUTSIDE ({INTERIOR}, {BOUNDARY} or {OUTSIDE})")
        if values.size != nodes * self.Q * self.n:
            raise ArgumentError("values", f"field 'values' must hold {nodes * self.Q * self.n} "
                                          f"numbers, a (Q, n) tuple per node, got {values.size}")
        self.mask = np.asarray(mask, dtype=np.int8).reshape(self.shape)
        self.values = values.reshape(self.shape + (self.Q, self.n))
        if not np.all(np.isfinite(self.values[self.mask != OUTSIDE])):
            raise ArgumentError("values", "field 'values' must be finite on interior and "
                                          "boundary nodes")

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
        """Serialize; floats use Python repr, which round-trips exactly.

        The values are dumped as one flat list, whose items a fixed per-node
        ``(Q, n)`` template puts back into the nested lists: no float repr
        holds the ``", "`` that splits them.
        """
        inside = self.mask != OUTSIDE
        vals = np.where(inside[..., None, None], self.values, 0.0)
        head = json.dumps(
            {
                "m": self.m,
                "n": self.n,
                "Q": self.Q,
                "shape": list(self.shape),
                "h": self.h,
                "mask": self.mask.ravel().tolist(),
            }
        )
        numbers = json.dumps(vals.ravel().tolist())[1:-1].split(", ")
        point = "[" + ", ".join(["%s"] * self.n) + "]"
        node = "[" + ", ".join([point] * self.Q) + "]"
        template = "[" + ", ".join([node] * self.mask.size) + "]"
        return head[:-1] + ', "values": ' + template % tuple(numbers) + "}"

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        """Parse the text that ``to_json`` writes, as ``from_obj`` does."""
        return cls.from_obj(json.loads(text))

    @classmethod
    def from_obj(cls, obj) -> "GridFunction":
        """Build from the parsed JSON object that ``to_json`` writes, reading any
        number at an outside node as NaN.  A bad field raises ``ArgumentError``
        naming it."""
        m, n, Q = (_int_field(obj, name) for name in ("m", "n", "Q"))
        shape = _field(obj, "shape")
        if not (isinstance(shape, list) and all(_is_int(s) and s >= 1 for s in shape)):
            raise ArgumentError("shape", f"field 'shape' must list positive integers, "
                                         f"got {_short(shape)}")
        grid = cls(m, n, Q, shape, _positive_field(obj, "h"),
                   _number_array(_field(obj, "mask"), "mask"),
                   _number_array(_field(obj, "values"), "values"))
        grid.values[grid.mask == OUTSIDE] = np.nan
        return grid


def square_mask(resolution: int, m: int = 2) -> np.ndarray:
    """Full box domain: frame nodes are boundary, the rest interior."""
    mask = np.full((resolution,) * m, BOUNDARY, dtype=np.int8)
    mask[(slice(1, -1),) * m] = INTERIOR
    return mask


def disk_mask(resolution: int) -> np.ndarray:
    """Unit disk on a square grid over [-1, 1]^2.

    Interior nodes lie strictly inside the unit circle; boundary nodes are
    the outside nodes axis-adjacent to an interior one.
    """
    h = 2.0 / (resolution - 1)
    c = (resolution - 1) / 2.0
    x, y = (np.indices((resolution, resolution)).astype(float) - c) * h
    inside = np.sqrt(x * x + y * y) < 1.0
    # a node is next to the disk when one of its four axis neighbours is inside it
    padded = np.pad(inside, 1)
    near = padded[:-2, 1:-1] | padded[2:, 1:-1] | padded[1:-1, :-2] | padded[1:-1, 2:]
    return np.where(inside, INTERIOR, np.where(near, BOUNDARY, OUTSIDE)).astype(np.int8)


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
