"""Command-line surface: JSON/CSV I/O around the library modules.

Exit codes: 0 success, 1 domain or data errors (malformed JSON names the
offending field), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import embed, energy, extend, verify
from .grids import (BOUNDARY, INTERIOR, OUTSIDE, GridFunction, _nearest, disk_mask, empty_grid,
                    square_mask)
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


def _short(value) -> str:
    """The repr of ``value``, cut to 80 characters for a message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _field(obj: dict, name: str, path: str):
    if not isinstance(obj, dict):
        raise DataError(f"expected a JSON object with field '{name}' in {path}")
    if name not in obj:
        raise DataError(f"missing field '{name}' in {path}")
    return obj[name]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(obj: dict, name: str, path: str, lowest: int = 1) -> int:
    value = _field(obj, name, path)
    if not _is_int(value) or value < lowest:
        raise DataError(f"field '{name}' in {path} must be an integer >= {lowest}, "
                        f"got {_short(value)}")
    return value


def _positive_field(obj: dict, name: str, path: str) -> float:
    """A positive JSON number that a float can hold, as it was written."""
    value = _field(obj, name, path)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= sys.float_info.max):
        raise DataError(f"field '{name}' in {path} must be a positive number, "
                        f"got {_short(value)}")
    return value


def _load_tuple(path: str) -> QTuple:
    obj = _load_json(path)
    try:
        return QTuple(obj)
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad tuple in {path}: {exc}")


def _load_grid(path: str) -> GridFunction:
    return _grid_from_obj(_load_json(path), path)


def _grid_from_obj(obj, path: str) -> GridFunction:
    """The grid function of the parsed JSON object that ``GridFunction.to_json``
    writes, as ``GridFunction.from_obj`` builds it; a bad field is named."""
    try:
        m, n, Q = (_int_field(obj, name, path) for name in ("m", "n", "Q"))
        shape = _field(obj, "shape", path)
        if not (isinstance(shape, list) and len(shape) == m
                and all(_is_int(s) and s >= 1 for s in shape)):
            raise DataError(f"field 'shape' in {path} must list m={m} positive integers, "
                            f"got {_short(shape)}")
        h = _positive_field(obj, "h", path)
        nodes = math.prod(shape)
        mask = _number_array(_field(obj, "mask", path), "mask", path).reshape(-1)
        if mask.size != nodes or not np.isin(mask, (INTERIOR, BOUNDARY, OUTSIDE)).all():
            raise DataError(f"field 'mask' in {path} must hold {nodes} entries, one per node, "
                            f"each {INTERIOR} (interior), {BOUNDARY} (boundary) or "
                            f"{OUTSIDE} (outside)")
        values = _number_array(_field(obj, "values", path), "values", path)
        if values.size != nodes * Q * n:
            raise DataError(f"field 'values' in {path} must hold a (Q, n) = {(Q, n)} tuple "
                            f"per node, {nodes * Q * n} numbers in all, got {values.size}")
        values = values.reshape(nodes, Q, n)
        # outside nodes hold no value: any number there is replaced by NaN
        inside = mask != OUTSIDE
        if not np.isfinite(values[inside]).all():
            raise DataError(f"field 'values' in {path} must be finite on interior and "
                            f"boundary nodes")
    except DataError as exc:
        raise DataError(f"bad grid function: {exc}")
    values[~inside] = np.nan
    shape = tuple(shape)
    return GridFunction(m, n, Q, shape, h, mask.astype(np.int8).reshape(shape),
                        values.reshape(shape + (Q, n)))


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
    except embed.FrameConstructionError as exc:
        raise DataError(f"--q {args.q}, --k {K}: {exc}")
    _write(args.out, frame.to_json())
    return 0


def _load_frame(path: str) -> embed.DirectionFrame:
    obj = _load_json(path)
    n, Q, K = (_int_field(obj, name, path) for name in ("n", "Q", "K"))
    epsilon = _positive_field(obj, "epsilon", path)
    bases = _numbers(_field(obj, "bases", path), "bases", path)
    if bases.shape != (K, n, n):
        raise DataError(f"field 'bases' in {path} must have shape (K, n, n) = {(K, n, n)}, "
                        f"got {bases.shape}")
    try:
        return embed.DirectionFrame(n, Q, bases, epsilon)
    except embed.FrameConstructionError as exc:
        raise DataError(f"fields 'bases' and 'epsilon' in {path} do not form a frame: {exc}")


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


def _is_numeric(value) -> bool:
    """Whether ``value`` is a JSON number or nested lists of them."""
    if isinstance(value, list):
        return all(map(_is_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, name: str, path: str) -> np.ndarray:
    """``value`` as a float array, which must hold only finite JSON numbers."""
    arr = None
    if _is_numeric(value):
        try:
            arr = np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged lists, or an int past float range
            pass
    if arr is None or not np.all(np.isfinite(arr)):
        raise DataError(f"field '{name}' in {path} must hold finite numbers, got {_short(value)}")
    return arr


def _number_array(value, name: str, path: str) -> np.ndarray:
    """``value``, nested lists of JSON numbers of equal length, as a float
    array.  Numbers are told by the dtype numpy gives the lists, which is a
    few times faster than ``_is_numeric`` on a large grid; true and false
    among numbers pass as 1 and 0."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged lists
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DataError(f"field '{name}' in {path} must hold numbers in nested lists of "
                        f"equal length, got {_short(value)}")
    return arr.astype(float, copy=False)


def _sample_entries(obj: dict, name: str, path: str) -> list:
    """The ``(x, value)`` pairs of the list field ``name``, one per object in
    it; each ``x`` is a flat list of numbers."""
    entries = _field(obj, name, path)
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise DataError(f"field '{name}' in {path} must be a list of objects with fields "
                        f"'x' and 'value'")
    pairs = []
    for entry in entries:
        x = _field(entry, "x", path)
        if not (isinstance(x, list) and x and not any(isinstance(c, list) for c in x)):
            raise DataError(f"field 'x' in {path} must be a nonempty flat list of numbers, "
                            f"got {x!r}")
        x = _numbers(x, "x", path)
        try:
            value = QTuple(_field(entry, "value", path))
        except (TypeError, ValueError) as exc:
            raise DataError(f"field 'value' in {path} must be a (Q, n) array of finite "
                            f"numbers: {exc}")
        pairs.append((x, value))
    return pairs


def _load_boundary_sample(path: str) -> extend.BoundarySample:
    obj = _load_json(path)
    m = _int_field(obj, "m", path)
    R = _positive_field(obj, "R", path)
    points = _sample_entries(obj, "points", path)
    if any(x.size != m for x, _ in points):
        raise DataError(f"each 'x' in field 'points' of {path} must hold m={m} numbers")
    try:
        return extend.BoundarySample(points=points, R=R, m=m)
    except ValueError as exc:  # no points, or values of different Q or n
        raise DataError(f"bad field 'points' in {path}: {exc}")


def _boundary_sample_json(sample: extend.BoundarySample) -> str:
    return json.dumps(
        {
            "m": sample.m,
            "R": sample.R,
            "points": [
                {"x": loc.tolist(), "value": val.points.tolist()}
                for loc, val in sample.points
            ],
        }
    )


def _cmd_extend(args) -> int:
    if args.mode == "plane":
        f = _load_grid(args.infile)
        try:
            out = extend.extend_to_plane(f)
        except ValueError as exc:  # the grid's extents differ
            raise DataError(f"field 'shape' in {args.infile}: {exc}")
        _write(args.out, out.to_json())
        return 0
    if args.query is None:
        raise DataError(f"extend {args.mode} needs --query")
    queries = _load_query_csv(args.query)
    if args.mode == "cone":
        sample = _load_boundary_sample(args.infile)
        try:
            ext = extend.ConeExtension(sample)
        except ValueError as exc:  # a location off the sphere
            raise DataError(f"fields 'x' and 'R' in {args.infile}: {exc}")
    else:
        obj = _load_json(args.infile)
        box = _numbers(_field(obj, "box", args.infile), "box", args.infile)
        depth = _int_field(obj, "depth", args.infile, lowest=0) if "depth" in obj else 6
        data = _sample_entries(obj, "data", args.infile)
        try:
            ext = extend.WhitneyExtension(data, box, depth)
        except extend.ArgumentError as exc:
            field = "box" if exc.name == "domain_box" else exc.name
            raise DataError(f"bad field '{field}' in {args.infile}: {exc}")
        try:
            values = ext.evaluate_many(queries)
        except extend.QueryError as exc:
            raise DataError(f"row {exc.index + 1} of {args.query}: {exc.problem}")
        _write(args.out, json.dumps(values.tolist()))
        return 0
    values = []
    for row, q in enumerate(queries, start=1):
        try:
            values.append(ext.evaluate(q).points.tolist())
        except ValueError as exc:
            raise DataError(f"row {row} of {args.query}: {exc}")
    _write(args.out, json.dumps(values))
    return 0


def _load_solver_inputs(path: str, resolution: int) -> GridFunction:
    """The grid to solve on, its boundary nodes holding the Dirichlet data.

    Accepts either a full grid-function JSON (detected by a ``mask`` field),
    returned as it is, or a boundary-curve spec
    ``{"domain": "disk"|"square", "Q", "n", "curve": [{"x", "value"}]}``
    sampled onto the empty grid of the requested resolution: each boundary
    node takes the value of the first curve sample nearest to it.  A grid
    of over ``verify._MAX_ENTRIES`` values is refused before it is built.
    """
    obj = _load_json(path)
    if isinstance(obj, dict) and "mask" in obj:
        return _grid_from_obj(obj, path)
    domain = _field(obj, "domain", path)
    Q = _int_field(obj, "Q", path)
    n = _int_field(obj, "n", path)
    curve = _sample_entries(obj, "curve", path)
    if not curve:
        raise DataError(f"field 'curve' in {path} must be a nonempty list of objects")
    if resolution is None:
        raise DataError("--grid is required with a boundary-curve spec")
    if resolution < 2:
        raise DataError(f"--grid must be an integer >= 2, got {resolution}")
    if domain == "disk":
        m = 2
    elif domain == "square":
        m = _int_field(obj, "m", path) if "m" in obj else 2
    else:
        raise DataError(f"unknown domain {domain!r} in {path}")
    # the values hold resolution**m * Q * n floats; past m = 24 that is over the
    # bound at any resolution, and the power is not formed
    if m > 24 or resolution**m * Q * n > verify._MAX_ENTRIES:
        raise DataError(f"m {m} and --grid {resolution} (with Q {Q}, n {n}) ask for over "
                        f"{verify._MAX_ENTRIES} grid values; lower one of them")
    mask = disk_mask(resolution) if domain == "disk" else square_mask(resolution, m)
    grid = empty_grid(m, n, Q, resolution, mask)
    if any(x.size != m for x, _ in curve):
        raise DataError(f"each 'x' in field 'curve' of {path} must hold {m} numbers")
    if any(value.points.shape != (Q, n) for _, value in curve):
        raise DataError(f"each 'value' in field 'curve' of {path} must have shape {(Q, n)}")
    locs = np.array([x for x, _ in curve])
    vals = np.array([value.points for _, value in curve])
    bnodes = grid.node_index((BOUNDARY,))
    coords = grid.all_coords().reshape(-1, m)
    grid.values.reshape(-1, Q, n)[bnodes] = vals[_nearest(coords[bnodes], locs)]
    return grid


def _cmd_solve(args) -> int:
    grid = _load_solver_inputs(args.boundary, args.grid)
    solution, report, history = energy.solve_dirichlet(
        grid, grid, args.p, tol=args.tol, seed=args.seed,
        restarts=args.restarts,
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
    report = energy.discrete_energy(f, args.p)
    _write(args.out, json.dumps({"total": report.total, "p": report.p,
                                 "edges": int(report.edge_u.size)}))
    return 0


def _cmd_trace(args) -> int:
    f = _load_grid(args.infile)
    try:
        sample = energy.trace(f)
    except ValueError as exc:  # no boundary node
        raise DataError(f"field 'mask' in {args.infile}: {exc}")
    _write(args.out, _boundary_sample_json(sample))
    return 0


def _load_check_config(path: str) -> verify.CheckConfig:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"expected a JSON object in {path}")
    known = [f.name for f in dataclasses.fields(verify.CheckConfig)]
    for name in obj:
        if name not in known:
            raise DataError(f"unknown field '{name}' in {path}; expected one of "
                            f"{', '.join(known)}")
    if "seed" in obj:
        _int_field(obj, "seed", path, lowest=0)
    if "trials" in obj:
        _int_field(obj, "trials", path)
    for name in ("Q_range", "n_range", "m_range"):
        value = obj.get(name)
        if name in obj and not (isinstance(value, list) and len(value) == 2
                                and all(map(_is_int, value))):
            raise DataError(f"field '{name}' in {path} must be a list of two integers, "
                            f"got {value!r}")
    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in tolerances.values()
    ):
        raise DataError(f"field 'tolerances' in {path} must map names to numbers")
    try:
        return verify.CheckConfig.from_json(json.dumps(obj))
    except ValueError as exc:
        raise DataError(f"bad check config in {path}: {exc}")


def _cmd_verify(args) -> int:
    if args.config:
        cfg = _load_check_config(args.config)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
