"""Fuzz tests of the ``qv extend whitney``, ``qv extend cone``, ``qv verify
--config``, frame (``qv embed --frame``), grid-function (``qv energy``,
``qv trace``, ``qv extend plane``, ``qv solve``) and boundary-curve spec
(``qv solve``) loaders.
Hypothesis writes valid input files and then breaks them in up to three
ways.  Every run must end in exit code 0, 1 or 2 and never in a traceback;
a run with a fault must exit 1 with a message that names a faulty field (or
CSV row), and a run without one must exit 0."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from qvalued.cli import main
from qvalued.embed import build_frame
from qvalued.verify import _DEFAULT_TOLERANCES as TOLERANCES

# each fault breaks one thing in a valid pair of files, and names what a
# message about it must mention
FIELD_FAULTS = {
    "empty data": "data", "missing data": "data", "data not a list": "data",
    "duplicate x": "data", "mixed Q": "data", "mixed n": "data", "m = 3": "data",
    "x lengths differ": "data", "nested x": "x", "x not numbers": "x", "empty x": "x",
    "x not finite": "x", "entry not an object": "x", "missing x": "x",
    "missing value": "value", "value not numbers": "value", "ragged value": "value",
    "missing box": "box", "reversed box": "box", "zero box": "box", "box shape": "box",
    "box not numbers": "box", "box not finite": "box", "depth over cap": "depth",
    "negative depth": "depth", "fractional depth": "depth", "depth not a number": "depth",
    "not an object": "box",
}
# applied after the others, in this order, since each replaces what they change
LAST = ("entry not an object", "empty data", "missing data", "data not a list",
        "not an object")
ROW_FAULTS = ("row width", "row not finite", "row outside the box", "row not numbers",
              "no rows")

NAMES = {field: re.compile(f"'{field}'") for field in set(FIELD_FAULTS.values())}
NAMES["row"] = re.compile(r"row \d+ of ")
NAMES["no rows"] = re.compile("no rows in ")


@st.composite
def cases(draw):
    """``(samples object, CSV lines, faults)`` for a random valid case broken
    by the faults drawn."""
    m = draw(st.sampled_from([1, 2]))
    Q, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lo = [draw(st.floats(-1.0, 1.0)) for _ in range(m)]
    hi = [a + draw(st.floats(0.1, 3.0)) for a in lo]

    def point():
        return [min(b, a + draw(st.floats(0.0, 1.0)) * (b - a)) for a, b in zip(lo, hi)]

    def value(rows=Q, cols=n):
        return [[draw(st.floats(-1.0, 1.0)) for _ in range(cols)] for _ in range(rows)]

    locs = {tuple(point()) for _ in range(draw(st.integers(1, 5)))}
    data = [{"x": list(x), "value": value()} for x in sorted(locs)]
    obj = {"box": [[a, b] for a, b in zip(lo, hi)], "data": data}
    if draw(st.booleans()):
        obj["depth"] = draw(st.integers(0, 10))
    rows = [point() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rows.append(list(data[0]["x"]))
    lines = [",".join(map(repr, row)) for row in rows]
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  "])))

    faults = draw(st.lists(st.sampled_from(sorted(FIELD_FAULTS) + list(ROW_FAULTS)),
                           max_size=3, unique=True))
    faults.sort(key=lambda fault: LAST.index(fault) if fault in LAST else -1)
    far = [b + 1.0 for b in hi]  # a location no sample has
    first = list(data[0]["x"])
    for fault in faults:
        entry = draw(st.sampled_from(data))
        if fault == "empty data":
            obj["data"] = []
        elif fault == "missing data":
            obj.pop("data", None)
        elif fault == "data not a list":
            obj["data"] = draw(st.sampled_from([{}, "data", 3]))
        elif fault == "duplicate x":
            data.append({"x": first, "value": value()})
        elif fault == "mixed Q":
            data.append({"x": far, "value": value(rows=Q + 1)})
        elif fault == "mixed n":
            data.append({"x": far, "value": value(cols=n + 1)})
        elif fault == "m = 3":
            for e in data:
                if isinstance(e.get("x"), list):
                    e["x"] = e["x"] + [0.5] * (3 - m)
            obj["box"] = [[0.0, 1.0]] * 3
        elif fault == "x lengths differ":
            data.append({"x": far + [0.5] if m == 1 else far[:1], "value": value()})
        elif fault == "nested x":
            entry["x"] = [[c] for c in first]
        elif fault == "x not numbers":
            entry["x"] = draw(st.sampled_from(["0.5", None, True, 0.5, [None], [True] * m,
                                               list(map(str, first))]))
        elif fault == "empty x":
            entry["x"] = []
        elif fault == "x not finite":
            entry["x"] = [draw(st.sampled_from([math.nan, math.inf]))] * m
        elif fault == "entry not an object":
            data[data.index(entry)] = draw(st.sampled_from([1, "e", []]))
        elif fault == "missing x":
            entry.pop("x", None)
        elif fault == "missing value":
            entry.pop("value", None)
        elif fault == "value not numbers":
            entry["value"] = draw(st.sampled_from(["v", None, [["a"]], [[math.nan]], []]))
        elif fault == "ragged value":
            entry["value"] = [[0.5] * n, [0.5] * (n + 1)]
        elif fault == "missing box":
            obj.pop("box", None)
        elif fault == "reversed box":
            obj["box"] = [[b, a] for a, b in zip(lo, hi)]
        elif fault == "zero box":
            obj["box"] = [[a, a] for a in lo]
        elif fault == "box shape":
            obj["box"] = [[0.0, 1.0]] * (3 - m)
        elif fault == "box not numbers":
            obj["box"] = draw(st.sampled_from(["unit", None, [[a, str(b)] for a, b in zip(lo, hi)],
                                               [[a, [b]] for a, b in zip(lo, hi)]]))
        elif fault == "box not finite":
            obj["box"] = [[a, math.inf] for a in lo]
        elif fault == "depth over cap":
            obj["depth"] = draw(st.integers(25, 40))
        elif fault == "negative depth":
            obj["depth"] = draw(st.integers(-3, -1))
        elif fault == "fractional depth":
            obj["depth"] = 4.5
        elif fault == "depth not a number":
            obj["depth"] = draw(st.sampled_from(["6", None, True, [6]]))
        elif fault == "not an object":
            obj = draw(st.sampled_from([[], "samples", 7]))
        elif fault == "row width":
            lines.append(",".join(["0.5"] * (m + 1)))
        elif fault == "row not finite":
            lines.append(",".join(["nan"] * m))
        elif fault == "row outside the box":
            lines.append(",".join(map(repr, far)))
        elif fault == "row not numbers":
            lines.append(draw(st.sampled_from(["a,b", "0.5;0.5", "0.5,,0.5", "0x1"])))
        elif fault == "no rows":
            lines = ["# nothing"]
    return obj, lines, faults


@settings(max_examples=300, deadline=None)
@given(cases())
def test_whitney_loader_exits_cleanly_and_names_the_fault(case):
    obj, lines, faults = case
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "samples.json")
        query = os.path.join(tmp, "queries.csv")
        out = os.path.join(tmp, "values.json")
        with open(data, "w") as fh:
            json.dump(obj, fh)
        with open(query, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["extend", "whitney", "--in", data, "--query", query,
                             "--out", out])
            except SystemExit as exc:
                code = exc.code
        message = err.getvalue()
        assert code in (0, 1, 2), message
        assert "Traceback" not in message
        if not faults:
            assert code == 0, message
            with open(out) as fh:
                values = json.load(fh)
            assert len(values) == sum(1 for line in lines
                                      if line.strip() and not line.lstrip().startswith("#"))
            return
        assert code == 1, (faults, message)
        named = {FIELD_FAULTS.get(fault, "no rows" if fault == "no rows" else "row")
                 for fault in faults}
        assert any(NAMES[name].search(message) for name in named), (faults, message)


# each fault of a check config sets one field to a value that breaks it
RANGE_FAULTS = {
    "not a list": [3, "1-3", None, {"lo": 1}],
    "length": [[], [1], [1, 2, 3]],
    "not integers": [[1.0, 2], [True, 2], ["1", 2], [1, None]],
    "reversed": [[3, 1], [2, 1]],
    "not positive": [[0, 2], [-1, 1]],
    "too large": [[1, 2**31], [2**70, 2**70]],
}
CONFIG_FAULTS = {
    "negative seed": ("seed", [-1, -7]),
    "seed not an integer": ("seed", [1.5, "3", None, True, [3]]),
    "zero trials": ("trials", [0, -2]),
    "trials not an integer": ("trials", [2.0, "5", None, False, {}]),
    **{f"{field} {fault}": (field, values)
       for field in ("Q_range", "n_range", "m_range")
       for fault, values in RANGE_FAULTS.items()},
    "tolerances not an object": ("tolerances", [[], 1, None, "tight"]),
    "tolerance not a number": ("tolerances", [{"zeta": "1e-9"}, {"xi_norm": None},
                                              {"sqrt_q": True}, {"poincare_c": [64]}]),
    "unknown tolerance": ("tolerances", [{"triangle": 1e-9}, {"sqrtq": 1}]),
    "tolerance not finite": ("tolerances", [{"zeta": math.nan}, {"sqrt_q": math.inf},
                                            {"poincare_c": -math.inf}, {"splitting": 10**400}]),
}
# whole-file faults, applied after the others; each names what its message says
FILE_FAULTS = {"not an object": "JSON object", "malformed JSON": "malformed JSON"}
UNKNOWN_FIELDS = ("trails", "Q", "tolerance", "seeds")


@st.composite
def configs(draw):
    """``(config text, names the error message may give)`` for a random small
    valid config broken by the faults drawn; no names when there is none."""
    obj = {"trials": draw(st.integers(1, 3))}  # the default 200 would be slow
    if draw(st.booleans()):
        obj["seed"] = draw(st.integers(0, 2**64))
    for field, top in (("Q_range", 3), ("n_range", 2), ("m_range", 2)):
        if draw(st.booleans()):
            lo = draw(st.integers(1, top))
            obj[field] = [lo, draw(st.integers(lo, top))]
    if draw(st.booleans()):
        # larger tolerances only loosen a check, so a valid config passes
        names = draw(st.lists(st.sampled_from(sorted(TOLERANCES)), unique=True))
        obj["tolerances"] = {name: TOLERANCES[name] * draw(st.floats(1.0, 100.0))
                             for name in names}

    faults = draw(st.lists(st.sampled_from(sorted(CONFIG_FAULTS) + ["unknown field"]
                                           + list(FILE_FAULTS)), max_size=3, unique=True))
    faults.sort(key=lambda fault: fault in FILE_FAULTS)
    named = set()
    for fault in faults:
        if fault == "unknown field":
            field = draw(st.sampled_from(UNKNOWN_FIELDS))
            obj[field] = draw(st.sampled_from([5, None, [1, 2]]))
        elif fault in CONFIG_FAULTS:
            field, values = CONFIG_FAULTS[fault]
            obj[field] = draw(st.sampled_from(values))
        elif fault == "not an object":
            obj, field = draw(st.sampled_from([[], "cfg", 7, None])), FILE_FAULTS[fault]
        else:
            field = FILE_FAULTS[fault]
        named.add(field)
    text = json.dumps(obj)
    if "malformed JSON" in faults:
        text = draw(st.sampled_from([text[:-1], text + "}", "", "{'trials': 2}"]))
    return text, named


@settings(max_examples=200, deadline=None)
@given(configs())
def test_check_config_loader_exits_cleanly_and_names_the_fault(case):
    text, named = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["verify", "--config", path])
            except SystemExit as exc:
                code = exc.code
        message = err.getvalue().replace(path, "")
    assert code in (0, 1, 2), message
    assert "Traceback" not in message
    if not named:
        assert code == 0, (text, message)
        return
    assert code == 1, (text, message)
    assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) for name in named), \
        (text, message)


# each fault of a frame file breaks one field, and names the field its message must give
FRAME_FAULTS = {
    "missing n": "n", "n not an integer": "n", "n not positive": "n", "n mismatch": "bases",
    "missing Q": "Q", "Q not an integer": "Q", "Q not positive": "Q",
    "missing K": "K", "K not an integer": "K", "K not positive": "K", "K mismatch": "bases",
    "missing epsilon": "epsilon", "epsilon not a number": "epsilon",
    "epsilon not positive": "epsilon", "epsilon not finite": "epsilon",
    "epsilon above separation": "epsilon",
    "missing bases": "bases", "bases not numbers": "bases", "bases not finite": "bases",
    "row too long": "bases", "basis dropped": "bases", "not orthonormal": "bases",
    "not an object": "n",
}
NOT_INTEGERS = [2.0, "2", None, True, [2]]
# applied after the others, in this order, since each replaces what they change
FRAME_LAST = ("missing bases", "bases not numbers", "not an object")


@lru_cache(maxsize=None)
def frame_object(n, Q):
    return json.loads(build_frame(n, Q, seed=7).to_json())


@st.composite
def frames(draw):
    """``(frame object, tuple, faults)`` for a valid seed-7 frame and a tuple
    it embeds, with the frame broken by the faults drawn."""
    n, Q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    obj = dict(frame_object(n, Q))
    # a smaller epsilon than the frame certifies is still a valid frame
    obj["epsilon"] *= draw(st.sampled_from([1.0, 0.5]))
    points = [[draw(st.floats(-2.0, 2.0)) for _ in range(n)] for _ in range(Q)]
    faults = draw(st.lists(st.sampled_from(sorted(FRAME_FAULTS)), max_size=3, unique=True))
    faults.sort(key=lambda fault: FRAME_LAST.index(fault) if fault in FRAME_LAST else -1)
    bases = frame_object(n, Q)["bases"]
    for fault in faults:
        field = FRAME_FAULTS[fault]
        if fault.startswith("missing "):
            obj.pop(field, None)
        elif fault.endswith("not an integer"):
            obj[field] = draw(st.sampled_from(NOT_INTEGERS))
        elif fault.endswith("not positive"):
            obj[field] = draw(st.sampled_from([0, -1] if field != "epsilon" else [0, 0.0, -0.1]))
        elif fault == "n mismatch":
            obj["n"] = n + 1
        elif fault == "K mismatch":
            obj["K"] = len(bases) + 1
        elif fault == "epsilon not a number":
            obj["epsilon"] = draw(st.sampled_from([[0.1], None, "0.1", True, {}]))
        elif fault == "epsilon not finite":
            obj["epsilon"] = draw(st.sampled_from([math.nan, math.inf]))
        elif fault == "epsilon above separation":
            obj["epsilon"] = frame_object(n, Q)["epsilon"] + 0.01
        elif fault == "bases not numbers":
            obj["bases"] = draw(st.sampled_from(["b", None, 1.0, [[["x"] * n] * n]]))
        elif fault == "bases not finite":
            obj["bases"] = [[[math.nan] * n] * n] + bases[1:]
        elif fault == "row too long":
            obj["bases"] = [[bases[0][0] + [0.0]] + bases[0][1:]] + bases[1:]
        elif fault == "basis dropped":
            obj["bases"] = bases[:-1]
        elif fault == "not orthonormal":
            obj["bases"] = [[[2.0 * c for c in row] for row in basis] for basis in bases]
        elif fault == "not an object":
            obj = draw(st.sampled_from([[], "frame", 7, None]))
    return obj, points, faults


@settings(max_examples=200, deadline=None)
@given(frames())
def test_frame_loader_exits_cleanly_and_names_the_fault(case):
    obj, points, faults = case
    with tempfile.TemporaryDirectory() as tmp:
        frame, tup = os.path.join(tmp, "frame.json"), os.path.join(tmp, "tuple.json")
        with open(frame, "w") as fh:
            json.dump(obj, fh)
        with open(tup, "w") as fh:
            json.dump(points, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["embed", "--frame", frame, "--tuple", tup])
            except SystemExit as exc:
                code = exc.code
        message = err.getvalue().replace(tmp, "")
    assert code in (0, 1, 2), message
    assert "Traceback" not in message
    if not faults:
        assert code == 0, message
        assert len(out.getvalue().split(",")) == len(points) * len(points[0]) * obj["K"]
        return
    assert code == 1, (faults, message)
    assert any(f"'{FRAME_FAULTS[fault]}'" in message for fault in faults), (faults, message)


def run_cli(argv):
    """``(exit code, stdout, stderr)`` of one in-process ``qv`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# each fault of a cone sample file, and the fields a message about it may name
CONE_FAULTS = {
    "missing m": {"m"}, "m not an integer": {"m"}, "m not positive": {"m"},
    "m mismatch": {"x"}, "missing R": {"R"}, "R not a number": {"R"},
    "R not positive": {"R"}, "R not finite": {"R"}, "R past float range": {"R"},
    "R off the sphere": {"x", "R"}, "missing points": {"points"},
    "points not a list": {"points"}, "empty points": {"points"},
    "entry not an object": {"points"}, "missing x": {"x"}, "x not numbers": {"x"},
    "nested x": {"x"}, "empty x": {"x"}, "x not finite": {"x"}, "x past float range": {"x"},
    "missing value": {"value"}, "value not numbers": {"value"}, "ragged value": {"value"},
    "mixed Q": {"points"}, "mixed n": {"points"}, "not an object": {"m"},
}
# applied after the others, in this order, since each replaces what they change
CONE_LAST = ("entry not an object", "empty points", "missing points", "points not a list",
             "not an object")
CONE_ROW_FAULTS = ("row width", "row not finite", "row outside the ball", "row not numbers",
                   "no rows")


@st.composite
def cone_cases(draw):
    """``(sample object, CSV lines, names)`` for a random valid cone sample
    broken by the faults drawn; ``names`` are the fields and rows a message
    may name, none when there is no fault."""
    m = draw(st.integers(1, 3))
    Q, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    R = draw(st.floats(0.1, 10.0))

    def direction():
        u = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(m)])
        norm = np.linalg.norm(u)
        return u / norm if norm > 0.1 else np.eye(m)[0]

    def value(rows=Q, cols=n):
        return [[draw(st.floats(-1.0, 1.0)) for _ in range(cols)] for _ in range(rows)]

    points = [{"x": (R * direction()).tolist(), "value": value()}
              for _ in range(draw(st.integers(1, 6)))]
    obj = {"m": m, "R": R, "points": points}
    rows = [(R * draw(st.floats(0.0, 1.0)) * direction()).tolist()
            for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rows.append(list(points[0]["x"]))
    lines = [",".join(map(repr, row)) for row in rows]
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note"])))

    faults = draw(st.lists(st.sampled_from(sorted(CONE_FAULTS) + list(CONE_ROW_FAULTS)),
                           max_size=3, unique=True))
    faults.sort(key=lambda fault: CONE_LAST.index(fault) if fault in CONE_LAST else -1)
    names = set()
    for fault in faults:
        names |= CONE_FAULTS.get(fault, {"no rows" if fault == "no rows" else "row"})
        entry = draw(st.sampled_from(points))
        if fault == "missing m":
            obj.pop("m")
        elif fault == "m not an integer":
            obj["m"] = draw(st.sampled_from([2.0, "2", None, True, [2]]))
        elif fault == "m not positive":
            obj["m"] = draw(st.sampled_from([0, -1]))
        elif fault == "m mismatch":
            obj["m"] = m + 1
        elif fault == "missing R":
            obj.pop("R")
        elif fault == "R not a number":
            obj["R"] = draw(st.sampled_from(["1", None, True, [1.0]]))
        elif fault == "R not positive":
            obj["R"] = draw(st.sampled_from([0, 0.0, -1.5]))
        elif fault == "R not finite":
            obj["R"] = draw(st.sampled_from([math.inf, math.nan]))
        elif fault == "R past float range":
            obj["R"] = 10**400
        elif fault == "R off the sphere":
            obj["R"] = 2.0 * R
        elif fault == "missing points":
            obj.pop("points")
        elif fault == "points not a list":
            obj["points"] = draw(st.sampled_from([{}, "points", 3]))
        elif fault == "empty points":
            obj["points"] = []
        elif fault == "entry not an object":
            points[points.index(entry)] = draw(st.sampled_from([1, "e", []]))
        elif fault == "missing x":
            entry.pop("x", None)
        elif fault == "x not numbers":
            entry["x"] = draw(st.sampled_from(["0.5", None, True, [None] * m, [True] * m]))
        elif fault == "nested x":
            entry["x"] = [[c] for c in (R * direction()).tolist()]
        elif fault == "empty x":
            entry["x"] = []
        elif fault == "x not finite":
            entry["x"] = [draw(st.sampled_from([math.nan, math.inf]))] * m
        elif fault == "x past float range":
            entry["x"] = [10**400] * m
        elif fault == "missing value":
            entry.pop("value", None)
        elif fault == "value not numbers":
            entry["value"] = draw(st.sampled_from(["v", None, [["a"]], [[math.nan]], []]))
        elif fault == "ragged value":
            entry["value"] = [[0.5] * n, [0.5] * (n + 1)]
        elif fault == "mixed Q":
            points.append({"x": (R * direction()).tolist(), "value": value(rows=Q + 1)})
        elif fault == "mixed n":
            points.append({"x": (R * direction()).tolist(), "value": value(cols=n + 1)})
        elif fault == "not an object":
            obj = draw(st.sampled_from([[], "sample", 7]))
        elif fault == "row width":
            lines.append(",".join(["0.0"] * (m + 1)))
        elif fault == "row not finite":
            lines.append(",".join(["nan"] * m))
        elif fault == "row outside the ball":
            lines.append(",".join([repr(2.0 * R + 1.0)] * m))
        elif fault == "row not numbers":
            lines.append(draw(st.sampled_from(["a,b", "0.5;0.5", "0.5,,0.5", "0x1"])))
        elif fault == "no rows":
            lines = ["# nothing"]
    return obj, lines, names


NAMES["points"] = re.compile("'points'")
NAMES["m"] = re.compile("'m'")
NAMES["R"] = re.compile("'R'")


@settings(max_examples=300, deadline=None)
@given(cone_cases())
def test_cone_loader_exits_cleanly_and_names_the_fault(case):
    obj, lines, names = case
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "sample.json")
        query = os.path.join(tmp, "queries.csv")
        out = os.path.join(tmp, "values.json")
        with open(data, "w") as fh:
            json.dump(obj, fh)
        with open(query, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        code, _, message = run_cli(["extend", "cone", "--in", data, "--query", query,
                                    "--out", out])
        assert code in (0, 1, 2), message
        assert "Traceback" not in message
        if not names:
            assert code == 0, message
            with open(out) as fh:
                values = json.load(fh)
            assert len(values) == sum(1 for line in lines
                                      if line.strip() and not line.lstrip().startswith("#"))
            return
    assert code == 1, (names, message)
    assert any(NAMES[name].search(message) for name in names), (names, message)


# each fault of a grid-function file, and the field a message about it names
GRID_FAULTS = {
    **{f"missing {field}": field for field in ("m", "n", "Q", "shape", "h", "mask", "values")},
    **{f"{field} not an integer": field for field in ("m", "n", "Q")},
    **{f"{field} not positive": field for field in ("m", "n", "Q")},
    "m mismatch": "shape", "Q mismatch": "values", "n mismatch": "values",
    "shape not a list": "shape", "bad extent": "shape", "h not a number": "h",
    "h not positive": "h", "h not finite": "h", "h past float range": "h",
    "mask size": "mask", "bad mask entry": "mask", "mask not a list": "mask",
    "values size": "values", "values not numbers": "values", "ragged values": "values",
    "values not finite inside": "values", "values past float range": "values",
    "not an object": "m",
}
# faults that break only one command, with the field its message names
COMMAND_FAULTS = {"extents differ": ("plane", "shape"), "no boundary node": ("trace", "mask")}
# faults that break ``qv solve``, which needs a path from every interior node
# to a boundary node, with the field its message names
SOLVE_FAULTS = {"no boundary node": "mask", "interior cut off": "mask"}
# "extents differ" goes first and "not an object" last, since each replaces
# what the faults before it change; "interior cut off" rewrites the whole mask
GRID_ORDER = {"extents differ": -1, "not an object": 1, "interior cut off": -0.5}
# each command's arguments up to its input file
COMMANDS = {"energy": ["energy", "--in"], "trace": ["trace", "--in"],
            "plane": ["extend", "plane", "--in"],
            "solve": ["solve", "--restarts", "1", "--boundary"]}
for _field in ("n", "Q", "shape", "h", "mask", "values"):
    NAMES.setdefault(_field, re.compile(f"'{_field}'"))


def anchored(mask, shape):
    """``mask`` with each interior node that has no boundary node among its
    axis neighbours made a boundary node, so every interior node has a path
    to the boundary."""
    kinds = np.array(mask).reshape(shape)
    near = np.zeros(kinds.shape, dtype=bool)
    for axis in range(kinds.ndim):
        edge = np.moveaxis(kinds == 1, axis, 0)
        side = np.moveaxis(near, axis, 0)  # a view: writing to it writes to near
        side[1:] |= edge[:-1]
        side[:-1] |= edge[1:]
    kinds[(kinds == 0) & ~near] = 1
    return kinds.ravel().tolist()


@st.composite
def grid_cases(draw):
    """``(command, grid object, names)`` for a random valid grid function
    broken by the faults drawn; ``names`` are the fields a message may name,
    none when the command should succeed."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    m, Q, n = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    N = draw(st.integers(2, 5))
    shape = [N] * m
    nodes = N**m
    mask = [draw(st.integers(0, 2)) for _ in range(nodes)]
    mask[draw(st.integers(0, nodes - 1))] = 1
    values = [[[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(Q)]
              for _ in range(nodes)]
    if command == "solve":
        mask = anchored(mask, shape)
    for node, kind in enumerate(mask):
        # outside nodes hold no value; to_json writes 0.0 there
        if kind == 2 and draw(st.booleans()):
            values[node] = [[draw(st.sampled_from([0.0, math.nan]))] * n] * Q
    obj = {"m": m, "n": n, "Q": Q, "shape": shape, "h": draw(st.floats(0.01, 2.0)),
           "mask": mask, "values": values}

    faults = draw(st.lists(st.sampled_from(sorted(GRID_FAULTS) + sorted(COMMAND_FAULTS)
                                           + ["interior cut off"]), max_size=3, unique=True))
    faults.sort(key=lambda fault: GRID_ORDER.get(fault, 0))
    names = set()
    for fault in faults:
        if command == "solve" and fault in SOLVE_FAULTS:
            # a one-axis grid of two nodes has no room to cut a node off
            if fault != "interior cut off" or nodes > 2:
                names.add(SOLVE_FAULTS[fault])
        elif fault in COMMAND_FAULTS:
            target, field = COMMAND_FAULTS[fault]
            # a one-axis grid has one extent
            if command == target and (fault != "extents differ" or m == 2):
                names.add(field)
        elif fault in GRID_FAULTS:
            names.add(GRID_FAULTS[fault])
        field = GRID_FAULTS.get(fault)
        if fault.startswith("missing "):
            obj.pop(field, None)
        elif fault.endswith("not an integer"):
            obj[field] = draw(st.sampled_from([2.0, "2", None, True, [2]]))
        elif fault.endswith("not positive"):
            obj[field] = draw(st.sampled_from([0, -1]))
        elif fault == "m mismatch":
            obj["m"] = m + 1
        elif fault == "Q mismatch":
            obj["Q"] = Q + 1
        elif fault == "n mismatch":
            obj["n"] = n + 1
        elif fault == "shape not a list":
            obj["shape"] = draw(st.sampled_from(["5", N, None, {}]))
        elif fault == "bad extent":
            obj["shape"] = [draw(st.sampled_from([0, -2, 2.5, True, "3", None]))] + shape[1:]
        elif fault == "h not a number":
            obj["h"] = draw(st.sampled_from(["0.1", None, True, [0.1]]))
        elif fault == "h not positive":
            obj["h"] = draw(st.sampled_from([0, 0.0, -0.5]))
        elif fault == "h not finite":
            obj["h"] = draw(st.sampled_from([math.inf, math.nan]))
        elif fault == "h past float range":
            obj["h"] = 10**400
        elif fault == "mask size":
            mask.pop()
        elif fault == "bad mask entry":
            mask[draw(st.integers(0, len(mask) - 1))] = draw(st.sampled_from(
                [3, -1, 1.5, "1", None, [1]]))
        elif fault == "mask not a list":
            obj["mask"] = draw(st.sampled_from(["mask", None, {}]))
        elif fault == "values size":
            values.pop()
        elif fault == "values not numbers":
            values[draw(st.integers(0, len(values) - 1))][0][0] = draw(st.sampled_from(
                ["a", None, {}]))
        elif fault == "ragged values":
            values[-1] = values[-1] + [[0.5] * n]
        elif fault == "values not finite inside":
            inside = [node for node, kind in enumerate(mask[:len(values)]) if kind in (0, 1)]
            if inside:
                values[draw(st.sampled_from(inside))][0][0] = draw(st.sampled_from(
                    [math.nan, math.inf]))
            else:
                values[0][0][0] = "a"
        elif fault == "values past float range":
            values[0][0][0] = 10**400
        elif fault == "extents differ" and m == 2:
            obj["shape"] = [N, N + 1]
            mask += [2] * N
            values += [[[0.0] * n] * Q] * N
        elif fault == "no boundary node":
            mask[:] = [0 if kind == 1 else kind for kind in mask]
        elif fault == "interior cut off" and nodes > 2:
            # the first node is interior, the last boundary and the others outside;
            # both may have been outside nodes holding NaN, so give them values
            mask[:] = [0] + [2] * (len(mask) - 2) + [1]
            for node in (0, -1):
                values[node] = [[draw(st.floats(-1.0, 1.0)) for _ in range(n)]
                                for _ in range(Q)]
        elif fault == "not an object":
            obj = draw(st.sampled_from([[], "grid", 7, None]))
    return command, obj, names


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_grid_loader_exits_cleanly_and_names_the_fault(case):
    command, obj, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "grid.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        code, _, message = run_cli(COMMANDS[command] + [path, "--out", out])
        assert code in (0, 1, 2), message
        assert "Traceback" not in message
        if not names:
            assert code == 0, (command, message)
            with open(out) as fh:
                json.load(fh)
            return
    assert code == 1, (command, names, message)
    assert any(NAMES[name].search(message) for name in names), (command, names, message)


# each fault of a boundary-curve spec (``qv solve``), and the fields a message
# about it may name; the "m" faults break only a square's spec
CURVE_FAULTS = {
    "missing domain": {"domain"}, "domain not a name": {"domain"},
    "unknown domain": {"domain"}, "missing Q": {"Q"}, "Q not an integer": {"Q"},
    "Q not positive": {"Q"}, "missing n": {"n"}, "n not an integer": {"n"},
    "n not positive": {"n"}, "m not an integer": {"m"}, "m not positive": {"m"},
    "missing curve": {"curve"}, "curve not a list": {"curve"}, "empty curve": {"curve"},
    "entry not an object": {"curve"}, "missing x": {"x"}, "x not numbers": {"x"},
    "x not finite": {"x"}, "x length": {"x", "curve"}, "missing value": {"value"},
    "value not numbers": {"value"}, "value shape": {"value", "curve"},
    "not an object": {"JSON object"},
}
# applied after the others, in this order, since each replaces what they change
CURVE_LAST = ("entry not an object", "empty curve", "missing curve", "curve not a list",
              "not an object")
for _field in ("domain", "curve"):
    NAMES.setdefault(_field, re.compile(f"'{_field}'"))
NAMES["JSON object"] = re.compile("JSON object")


@st.composite
def curve_cases(draw):
    """``(spec object, grid resolution, names)`` for a random valid
    boundary-curve spec broken by the faults drawn; ``names`` are the fields
    a message may name, none when there is no fault."""
    domain = draw(st.sampled_from(["disk", "square"]))
    m = 2 if domain == "disk" else draw(st.integers(1, 2))
    Q, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def value(rows=Q, cols=n):
        return [[draw(st.floats(-1.0, 1.0)) for _ in range(cols)] for _ in range(rows)]

    curve = [{"x": [draw(st.floats(-1.0, 1.0)) for _ in range(m)], "value": value()}
             for _ in range(draw(st.integers(1, 6)))]
    obj = {"domain": domain, "Q": Q, "n": n, "curve": curve}
    if domain == "square" and (m != 2 or draw(st.booleans())):  # a square's m defaults to 2
        obj["m"] = m

    faults = draw(st.lists(st.sampled_from(sorted(CURVE_FAULTS)), max_size=3, unique=True))
    faults.sort(key=lambda fault: CURVE_LAST.index(fault) if fault in CURVE_LAST else -1)
    names = set()
    for fault in faults:
        if fault.startswith("m ") and domain != "square":
            continue
        names |= CURVE_FAULTS[fault]
        entry = draw(st.sampled_from(curve))
        if fault.startswith("missing "):
            field = fault[len("missing "):]
            (entry if field in ("x", "value") else obj).pop(field, None)
        elif fault == "domain not a name":
            obj["domain"] = draw(st.sampled_from([["disk"], None, 3, {"disk": 1}]))
        elif fault == "unknown domain":
            obj["domain"] = draw(st.sampled_from(["circle", "Disk", ""]))
        elif fault.endswith("not an integer"):
            obj[fault[0]] = draw(st.sampled_from([2.0, "2", None, True, [2]]))
        elif fault.endswith("not positive"):
            obj[fault[0]] = draw(st.sampled_from([0, -1]))
        elif fault == "curve not a list":
            obj["curve"] = draw(st.sampled_from([{}, "curve", 3]))
        elif fault == "empty curve":
            obj["curve"] = []
        elif fault == "entry not an object":
            curve[curve.index(entry)] = draw(st.sampled_from([1, "e", []]))
        elif fault == "x not numbers":
            entry["x"] = draw(st.sampled_from(["0.5", None, True, [None] * m, [True] * m]))
        elif fault == "x not finite":
            entry["x"] = [draw(st.sampled_from([math.nan, math.inf]))] * m
        elif fault == "x length":
            entry["x"] = [0.5] * (m + 1)
        elif fault == "value not numbers":
            entry["value"] = draw(st.sampled_from(["v", None, [["a"]], [[math.nan]], []]))
        elif fault == "value shape":
            entry["value"] = value(rows=Q + 1)
        elif fault == "not an object":
            obj = draw(st.sampled_from([[], "spec", 7]))
    return obj, draw(st.integers(3, 6)), names


@settings(max_examples=200, deadline=None)
@given(curve_cases())
def test_curve_spec_loader_exits_cleanly_and_names_the_fault(case):
    obj, resolution, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        code, _, message = run_cli(["solve", "--boundary", path, "--grid", str(resolution),
                                    "--restarts", "1", "--out", out])
        assert code in (0, 1, 2), message
        assert "Traceback" not in message
        if not names:
            assert code == 0, message
            with open(out) as fh:
                json.load(fh)
            return
    assert code == 1, (names, message)
    assert any(NAMES[name].search(message) for name in names), (names, message)
