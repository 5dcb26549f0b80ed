"""Command-line surface: JSON/CSV I/O around the library modules.

Exit codes: 0 success, 1 domain or data errors (malformed JSON names the
offending field), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import embed, energy, extend, verify
from ._fields import (_MAX_ENTRIES, ArgumentError, _field, _int_field, _numbers,
                      _positive_field, _short)
from .grids import BOUNDARY, GridFunction, _nearest, disk_mask, empty_grid, square_mask
from .qspace import MetricKind, QTuple, dist


class DataError(Exception):
    """Input file is malformed or inconsistent; maps to exit code 1."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"cannot open {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}")


def _checked(path: str, what: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with the ``ArgumentError`` it raises for a bad
    field of the ``what`` read from ``path`` reported as a DataError naming the file."""
    try:
        return call(*args, **kwargs)
    except ArgumentError as exc:
        raise DataError(f"bad {what} in {path}: {exc}")


def _load_tuple(path: str) -> QTuple:
    obj = _load_json(path)
    try:
        return QTuple(obj)
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad tuple in {path}: {exc}")


def _load_grid(path: str) -> GridFunction:
    return _checked(path, "grid function", GridFunction.from_obj, _load_json(path))


def _load_query_csv(path: str) -> np.ndarray:
    """The rows of a CSV file of numbers; blank and comment lines hold no row,
    and a bad row is named by its number among the rows."""
    try:
        with open(path) as fh:
            lines = [line for line in fh
                     if line.strip() and not line.lstrip().startswith("#")]
    except OSError:
        raise DataError(f"cannot open {path}")
    except ValueError as exc:
        raise DataError(f"malformed CSV in {path}: {exc}")
    if not lines:
        raise DataError(f"no rows in {path}")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        pass
    width = None
    for row, line in enumerate(lines, start=1):
        try:
            cols = np.loadtxt([line], delimiter=",", ndmin=2).shape[1]
        except ValueError:
            raise DataError(f"row {row} of {path}: {line.strip()!r} is not a "
                            f"comma-separated list of numbers")
        if width is not None and cols != width:
            raise DataError(f"row {row} of {path} has {cols} columns, row 1 has {width}")
        width = cols
    raise DataError(f"malformed CSV in {path}")


def _write(path: str, text: str):
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_dist(args) -> int:
    v = _load_tuple(args.a)
    w = _load_tuple(args.b)
    kind = MetricKind.parse(args.kind)
    value, match = dist(v, w, kind)
    _write(args.out, json.dumps({"value": value, "match": list(match.perm)}))
    return 0


def _cmd_frame(args) -> int:
    K = "auto" if args.k is None else args.k
    try:
        frame = embed.build_frame(args.n, args.q, K, seed=args.seed)
    except ArgumentError as exc:  # n, Q or K below 1
        raise DataError(f"--{exc.name.lower()}: {exc}")
    except embed.FrameConstructionError as exc:
        raise DataError(f"--q {args.q}, --k {K}: {exc}")
    _write(args.out, frame.to_json())
    return 0


def _load_frame(path: str) -> embed.DirectionFrame:
    return _checked(path, "frame", embed.DirectionFrame.from_obj, _load_json(path))


def _cmd_embed(args) -> int:
    frame = _load_frame(args.frame)
    v = _load_tuple(args.tuple)
    vec = embed.xi(v, frame)
    _write(args.out, ",".join(repr(float(c)) for c in vec.coords))
    return 0


def _cmd_decode(args) -> int:
    frame = _load_frame(args.frame)
    coords = _load_query_csv(args.infile).reshape(-1)
    hint = _load_tuple(args.hint) if args.hint else None
    try:
        v = embed.decode(coords, frame, hint)
    except embed.DecodeFailure as exc:
        raise DataError(f"cannot decode the vector in {args.infile}: {exc}")
    _write(args.out, v.to_text())
    return 0


def _sample_entries(obj, name: str) -> list:
    """The ``(x, value)`` pairs of the list field ``name``, one per object in
    it; each ``x`` is a flat list of numbers."""
    entries = _field(obj, name)
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ArgumentError(name, f"field '{name}' must be a list of objects with fields "
                                  f"'x' and 'value'")
    pairs = []
    for entry in entries:
        x = _field(entry, "x")
        if not (isinstance(x, list) and x and not any(isinstance(c, list) for c in x)):
            raise ArgumentError("x", f"field 'x' must be a nonempty flat list of numbers, "
                                     f"got {_short(x)}")
        x = _numbers(x, "x")
        try:
            value = QTuple(_field(entry, "value"))
        except (TypeError, ValueError) as exc:
            raise ArgumentError("value", f"field 'value' must be a (Q, n) array of finite "
                                         f"numbers: {exc}")
        pairs.append((x, value))
    return pairs


def _cone_from_obj(obj) -> extend.ConeExtension:
    """The cone extension of a boundary sample ``{"m", "R", "points": [{"x", "value"}]}``."""
    m, R = _int_field(obj, "m"), _positive_field(obj, "R")
    return extend.ConeExtension(extend.BoundarySample(_sample_entries(obj, "points"), R, m))


def _whitney_from_obj(obj) -> extend.WhitneyExtension:
    """The Whitney extension of ``{"box", "depth" (default 6), "data": [{"x", "value"}]}``."""
    box = _numbers(_field(obj, "box"), "box")
    depth = _int_field(obj, "depth", lowest=0) if "depth" in obj else 6
    return extend.WhitneyExtension(_sample_entries(obj, "data"), box, depth)


def _boundary_sample_json(sample: extend.BoundarySample) -> str:
    points = [{"x": loc, "value": value} for loc, value in
              zip(sample.locations.tolist(), sample.value_array.tolist())]
    return json.dumps({"m": sample.m, "R": sample.R, "points": points})


def _cmd_extend(args) -> int:
    if args.mode == "plane":
        out = _checked(args.infile, "grid function", extend.extend_to_plane,
                       _load_grid(args.infile))
        _write(args.out, out.to_json())
        return 0
    if args.query is None:
        raise DataError(f"extend {args.mode} needs --query")
    queries = _load_query_csv(args.query)
    what, parse = {"cone": ("cone sample", _cone_from_obj),
                   "whitney": ("Whitney data", _whitney_from_obj)}[args.mode]
    ext = _checked(args.infile, what, parse, _load_json(args.infile))
    try:
        values = ext.evaluate_many(queries)
    except extend.QueryError as exc:
        raise DataError(f"row {exc.index + 1} of {args.query}: {exc.problem}")
    _write(args.out, json.dumps(values.tolist()))
    return 0


def _curve_grid(obj, resolution: int) -> GridFunction:
    """The grid of ``resolution`` nodes a side over a boundary-curve spec's
    domain, each boundary node holding the value of the first curve sample
    nearest to it.  A grid of over ``_MAX_ENTRIES`` values is refused
    before it is built."""
    domain = _field(obj, "domain")
    Q = _int_field(obj, "Q")
    n = _int_field(obj, "n")
    curve = _sample_entries(obj, "curve")
    if resolution is None:
        raise DataError("--grid is required with a boundary-curve spec")
    if domain == "disk":  # disk_mask(2) has no node inside the disk
        m, lowest = 2, 3
    elif domain == "square":
        m, lowest = _int_field(obj, "m") if "m" in obj else 2, 2
    else:
        raise ArgumentError("domain", f"field 'domain' must be \"disk\" or \"square\", "
                                      f"got {_short(domain)}")
    locs, values = extend._samples(curve, "curve", m)
    vals = np.array([value.points for value in values])
    if vals.shape[1:] != (Q, n):
        raise ArgumentError("curve", f"each 'value' in field 'curve' must have shape {(Q, n)}")
    if resolution < lowest:
        raise DataError(f"--grid must be an integer >= {lowest} on a {domain}, got {resolution}")
    # the values hold resolution**m * Q * n floats; past m = 24 that is over the
    # bound at any resolution, and the power is not formed
    if m > 24 or resolution**m * Q * n > _MAX_ENTRIES:
        raise DataError(f"m {m} and --grid {resolution} (with Q {Q}, n {n}) ask for over "
                        f"{_MAX_ENTRIES} grid values; lower one of them")
    mask = disk_mask(resolution) if domain == "disk" else square_mask(resolution, m)
    grid = empty_grid(m, n, Q, resolution, mask)
    bnodes = grid.node_index((BOUNDARY,))
    coords = grid.all_coords().reshape(-1, m)
    grid.values.reshape(-1, Q, n)[bnodes] = vals[_nearest(coords[bnodes], locs)[0]]
    return grid


def _load_solver_inputs(path: str, resolution: int) -> GridFunction:
    """The grid to solve on, its boundary nodes holding the Dirichlet data.

    Accepts either a full grid-function JSON (told by its ``mask`` field),
    returned as it is when ``resolution`` is None or its shape has
    ``resolution`` nodes a side, or a boundary-curve spec
    ``{"domain": "disk"|"square", "Q", "n", "curve": [{"x", "value"}]}``
    sampled onto the empty grid of the requested resolution by ``_curve_grid``.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict) or "mask" in obj:
        grid = _checked(path, "grid function", GridFunction.from_obj, obj)
        if resolution is not None and grid.shape != (resolution,) * grid.m:
            raise DataError(f"--grid {resolution} does not match the shape "
                            f"{list(grid.shape)} of the grid function in {path}")
        return grid
    if "domain" not in obj:
        raise DataError(f"missing field 'mask' of a grid function or 'domain' of a "
                        f"boundary-curve spec in {path}")
    return _checked(path, "boundary-curve spec", _curve_grid, obj, resolution)


def _cmd_solve(args) -> int:
    grid = _load_solver_inputs(args.boundary, args.grid)
    solution, report, history = _checked(
        args.boundary, "boundary data", energy.solve_dirichlet, grid, grid, args.p,
        tol=args.tol, seed=args.seed, restarts=args.restarts,
    )
    _write(args.out, solution.to_json())
    if args.history:
        lines = ["iteration,total_energy"]
        lines += [f"{i},{e!r}" for i, e in enumerate(history)]
        _write(args.history, "\n".join(lines) + "\n")
    sys.stdout.write(
        json.dumps({"energy": report.total, "iterations": report.iterations,
                    "converged": report.converged}) + "\n"
    )
    if not report.converged:
        sys.stderr.write(f"warning: solver stopped after {report.iterations} "
                         "outer iterations without converging\n")
    return 0


def _cmd_energy(args) -> int:
    f = _load_grid(args.infile)
    report = _checked(args.infile, "grid function", energy.discrete_energy, f, args.p)
    _write(args.out, json.dumps({"total": report.total, "p": report.p,
                                 "edges": int(report.edge_u.size)}))
    return 0


def _cmd_trace(args) -> int:
    f = _load_grid(args.infile)
    sample = _checked(args.infile, "grid function", energy.trace, f)
    _write(args.out, _boundary_sample_json(sample))
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        cfg = _checked(args.config, "check config", verify.CheckConfig.from_obj,
                       _load_json(args.config))
    else:
        cfg = verify.CheckConfig()
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError as exc:
            raise DataError(f"--seed: {exc}")
    try:
        reports = verify.run_all(cfg)
    except embed.FrameConstructionError as exc:
        raise DataError(f"Q_range {list(cfg.Q_range)} and n_range {list(cfg.n_range)} "
                        f"reach a shape with no seed-7 frame: {exc}")
    payload = json.dumps([r.to_dict() for r in reports], indent=2)
    if args.report:
        _write(args.report, payload)
    failures = 0
    for r in reports:
        status = "pass" if r.failures == 0 else "FAIL"
        sys.stdout.write(
            f"{r.name}: {status} ({r.trials} trials, {r.failures} failures, "
            f"ratio {r.worst_ratio:.6g})\n"
        )
        sys.stderr.write(f"{r.name}: {r.seconds:.2f} s\n")
        failures += r.failures
    return 0 if failures == 0 else 1


# built on the first `main` call, not at import, and kept: parsing keeps no state in it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="assignment distance between two tuples")
    p.add_argument("--kind", default="g2", help="g1, g2 or ginf")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("frame", help="build a direction frame")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_frame)

    p = sub.add_parser("embed", help="embed a tuple through a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("decode", help="approximately invert an embedded vector")
    p.add_argument("--frame", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--hint", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("extend", help="evaluate an extension operator")
    p.add_argument("mode", choices=["cone", "whitney", "plane"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--query", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("solve", help="minimize the discrete p-energy")
    p.add_argument("--boundary", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--history", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("energy", help="discrete p-energy of a grid function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("trace", help="boundary restriction of a grid function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="run the property harness")
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
