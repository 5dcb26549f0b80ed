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
from .grids import BOUNDARY, GridFunction, disk_mask, empty_grid, square_mask
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
                        f"got {value!r}")
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
    for name in ("m", "n", "Q", "shape", "h", "mask", "values"):
        _field(obj, name, path)
    try:
        return GridFunction.from_obj(obj)
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad grid function in {path}: {exc}")


def _load_query_csv(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            # blank and comment lines hold no row; loadtxt skips them too
            lines = [line for line in fh
                     if line.strip() and not line.lstrip().startswith("#")]
        if not lines:
            raise DataError(f"no rows in {path}")
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except OSError:
        raise DataError(f"cannot open {path}")
    except ValueError as exc:
        raise DataError(f"malformed CSV in {path}: {exc}")


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
    frame = embed.build_frame(args.n, args.q, K, seed=args.seed)
    _write(args.out, frame.to_json())
    return 0


def _load_frame(path: str) -> embed.DirectionFrame:
    obj = _load_json(path)
    for name in ("n", "Q", "K", "epsilon", "bases"):
        _field(obj, name, path)
    try:
        return embed.DirectionFrame(obj["n"], obj["Q"], obj["bases"], obj["epsilon"])
    except embed.FrameConstructionError as exc:
        raise DataError(f"bad frame in {path}: {exc}")


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
    v = embed.decode(coords, frame, hint)
    _write(args.out, v.to_text())
    return 0


def _numbers(value, name: str, path: str) -> np.ndarray:
    """``value`` as a float array, which must hold only finite numbers."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise DataError(f"field '{name}' in {path} must hold finite numbers, got {value!r}")
    return arr


def _sample_entries(obj: dict, name: str, path: str) -> list:
    """The ``(x, value)`` pairs of the list field ``name``, one per object in it."""
    entries = _field(obj, name, path)
    if not isinstance(entries, list):
        raise DataError(f"field '{name}' in {path} must be a list of objects")
    pairs = []
    for entry in entries:
        x = _numbers(_field(entry, "x", path), "x", path)
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
    R = _field(obj, "R", path)
    if isinstance(R, bool) or not isinstance(R, (int, float)) or not 0 < R < math.inf:
        raise DataError(f"field 'R' in {path} must be a positive number, got {R!r}")
    points = _sample_entries(obj, "points", path)
    try:
        return extend.BoundarySample(points=points, R=R, m=m)
    except ValueError as exc:
        raise DataError(f"bad boundary sample in {path}: {exc}")


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
        out = extend.extend_to_plane(f)
        _write(args.out, out.to_json())
        return 0
    if args.query is None:
        raise DataError(f"extend {args.mode} needs --query")
    queries = _load_query_csv(args.query)
    if args.mode == "cone":
        ext = extend.ConeExtension(_load_boundary_sample(args.infile))
    else:
        obj = _load_json(args.infile)
        box = _numbers(_field(obj, "box", args.infile), "box", args.infile)
        depth = _int_field(obj, "depth", args.infile, lowest=0) if "depth" in obj else 6
        data = _sample_entries(obj, "data", args.infile)
        if data and box.size != 2 * data[0][0].size:
            raise DataError(f"field 'box' in {args.infile} must hold a [low, high] pair "
                            f"per axis of 'x'")
        ext = extend.WhitneyExtension(data, box, depth)
    values = []
    for row, q in enumerate(queries, start=1):
        try:
            values.append(ext.evaluate(q).points.tolist())
        except ValueError as exc:
            raise DataError(f"row {row} of {args.query}: {exc}")
    _write(args.out, json.dumps(values))
    return 0


def _load_solver_inputs(path: str, resolution: int):
    """Boundary data plus a grid template.

    Accepts either a full grid-function JSON (detected by a ``mask`` field,
    boundary values read off the boundary nodes) or a boundary-curve spec
    ``{"domain": "disk"|"square", "Q", "n", "curve": [{"x", "value"}]}``
    sampled onto a grid of the requested resolution, each boundary node
    taking the nearest curve sample's value.
    """
    obj = _load_json(path)
    if isinstance(obj, dict) and "mask" in obj:
        f = _grid_from_obj(obj, path)
        boundary = {idx: f.values[idx] for idx in f.nodes(kinds=(BOUNDARY,))}
        return boundary, f
    domain = _field(obj, "domain", path)
    Q = _int_field(obj, "Q", path)
    n = _int_field(obj, "n", path)
    curve = _field(obj, "curve", path)
    if not isinstance(curve, list) or not curve or not all(isinstance(e, dict) for e in curve):
        raise DataError(f"field 'curve' in {path} must be a nonempty list of objects")
    if resolution is None:
        raise DataError("--grid is required with a boundary-curve spec")
    if domain == "disk":
        mask = disk_mask(resolution)
        m = 2
    elif domain == "square":
        m = _int_field(obj, "m", path) if "m" in obj else 2
        mask = square_mask(resolution, m)
    else:
        raise DataError(f"unknown domain {domain!r} in {path}")
    grid = empty_grid(m, n, Q, resolution, mask)
    try:
        locs = np.array([np.asarray(_field(e, "x", path), dtype=float) for e in curve])
        vals = [np.asarray(_field(e, "value", path), dtype=float) for e in curve]
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad entry in field 'curve' of {path}: {exc}")
    if locs.shape != (len(curve), m):
        raise DataError(f"each 'x' in field 'curve' of {path} must hold {m} numbers")
    if any(val.shape != (Q, n) for val in vals):
        raise DataError(f"each 'value' in field 'curve' of {path} must have shape {(Q, n)}")
    boundary = {}
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        x = grid.node_coords(idx)
        j = int(np.argmin(np.linalg.norm(locs - x[None, :], axis=1)))
        boundary[idx] = vals[j]
    return boundary, grid


def _cmd_solve(args) -> int:
    boundary, grid = _load_solver_inputs(args.boundary, args.grid)
    solution, report, history = energy.solve_dirichlet(
        boundary, grid, args.p, tol=args.tol, seed=args.seed,
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
    sample = energy.trace(f)
    _write(args.out, _boundary_sample_json(sample))
    return 0


def _load_check_config(path: str) -> verify.CheckConfig:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"expected a JSON object in {path}")
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
    reports = verify.run_all(cfg)
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
