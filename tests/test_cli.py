import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from qvalued import embed
from qvalued.cli import main
from qvalued.grids import BOUNDARY, GridFunction, OUTSIDE, disk_mask, empty_grid, square_mask
from qvalued.qspace import QTuple

from oracles import frozen_solve_reference


# the history and stdout of `qv solve` on the problem of tests/data/solve_p2_n16.json
HISTORY_P2_N16 = ("iteration,total_energy\n0,20.020841989658752\n1,6.122382218610829\n"
                  "2,6.122382218610829\n")
STDOUT_P2_N16 = '{"energy": 6.122382218610829, "iterations": 2, "converged": true}\n'


DATA = pathlib.Path(__file__).parent / "data"


def write(path, text):
    path.write_text(text)
    return str(path)


def sqrt_curve(samples):
    """Curve-spec entries: the two branches of the complex square root at
    ``samples`` equally spaced points of the unit circle."""
    return [{"x": [math.cos(t), math.sin(t)],
             "value": [[math.cos(t / 2), math.sin(t / 2)],
                       [-math.cos(t / 2), -math.sin(t / 2)]]}
            for t in np.linspace(0, 2 * math.pi, samples, endpoint=False)]


def square_curve(per_side):
    """Curve-spec entries: ``per_side`` samples along each side of the frame
    of [-1, 1]^2, valued {x + 2y, -(x + 2y)}, whose branches cross."""
    ends = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    entries = []
    for (x0, y0), (x1, y1) in zip(ends, ends[1:] + ends[:1]):
        for s in np.linspace(0.0, 1.0, per_side, endpoint=False):
            x, y = x0 + s * (x1 - x0), y0 + s * (y1 - y0)
            entries.append({"x": [x, y], "value": [[x + 2 * y], [-(x + 2 * y)]]})
    return entries


def sqrt_disk_n16():
    """The grid of tests/data/solve_p2_n16.json: the N = 16 disk with the two
    branches of the complex square root on its boundary."""
    grid = empty_grid(2, 2, 2, 16, disk_mask(16))
    for idx in grid.nodes(kinds=(BOUNDARY,)):
        x = grid.node_coords(idx)
        t = math.atan2(x[1], x[0]) / 2.0
        grid.values[idx] = [[math.cos(t), math.sin(t)], [-math.cos(t), -math.sin(t)]]
    return grid


# each golden file of `qv solve` on a boundary-curve spec: its name, the spec and the flags
CURVE_GOLDENS = [
    ("solve_disk_curve_p2", {"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(64)},
     ["--grid", "16"]),
    ("solve_square_curve_p2",
     {"domain": "square", "m": 2, "Q": 2, "n": 1, "curve": square_curve(5)},
     ["--grid", "12"]),
    ("solve_disk_curve_p3", {"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(48)},
     ["--grid", "12", "--p", "3", "--restarts", "2"]),
    ("solve_disk_curve_p1_5", {"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(48)},
     ["--grid", "12", "--p", "1.5", "--restarts", "2"]),
    ("solve_disk_curve_p8", {"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(48)},
     ["--grid", "12", "--p", "8", "--restarts", "2"]),
]


@pytest.fixture()
def tuples(tmp_path):
    a = write(tmp_path / "a.json", json.dumps([[-1, 1], [1, 0]]))
    b = write(tmp_path / "b.json", json.dumps([[-1, 0], [1, 1]]))
    return a, b


class TestDist:
    def test_g2(self, tuples, capsys):
        a, b = tuples
        assert main(["dist", "--kind", "g2", "--a", a, "--b", b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(math.sqrt(2))
        assert out["match"] == [0, 1]

    def test_q2_tie_takes_lexicographic_pairing(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", json.dumps([[-1, 0], [-1, -1]]))
        b = write(tmp_path / "b.json", json.dumps([[2, -1], [-2, -1]]))
        assert main(["dist", "--kind", "g2", "--a", a, "--b", b]) == 0
        assert json.loads(capsys.readouterr().out)["match"] == [0, 1]

    def test_ties_above_q5_match_golden_file(self, tmp_path, capsys):
        # integer points in [-2, 2]^n tie many pairings, so the file pins the
        # tie rule of the assignment solvers beyond the enumerated Q <= 5
        rng = np.random.default_rng(1306)
        out = []
        for Q in (6, 8, 12):
            for n in (1, 2):
                for _ in range(2):
                    a = write(tmp_path / "a.json", json.dumps(rng.integers(-2, 3, (Q, n)).tolist()))
                    b = write(tmp_path / "b.json", json.dumps(rng.integers(-2, 3, (Q, n)).tolist()))
                    for kind in ("g1", "g2", "ginf"):
                        assert main(["dist", "--kind", kind, "--a", a, "--b", b]) == 0
                        out.append(capsys.readouterr().out)
        golden = pathlib.Path(__file__).parent / "data" / "dist_ties_q6_12.jsonl"
        assert "".join(out) == golden.read_text()

    def test_bad_kind(self, tuples, capsys):
        a, b = tuples
        assert main(["dist", "--kind", "g7", "--a", a, "--b", b]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.json", "[[1, 2")
        ok = write(tmp_path / "ok.json", "[[1, 2]]")
        assert main(["dist", "--a", bad, "--b", ok]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self, tuples):
        a, b = tuples
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--a", a, "--b", b, "--frobnicate", "1"])
        assert exc.value.code == 2


class TestFrameEmbedDecode:
    def test_round_trip(self, tmp_path, capsys):
        frame_path = str(tmp_path / "frame.json")
        assert main(["frame", "--n", "2", "--q", "2", "--seed", "1",
                     "--out", frame_path]) == 0
        obj = json.loads(open(frame_path).read())
        assert set(obj) == {"n", "Q", "K", "epsilon", "bases"}

        tuple_path = write(tmp_path / "t.json", json.dumps([[0.3, -0.2], [1.0, 0.4]]))
        embedded_path = str(tmp_path / "z.csv")
        assert main(["embed", "--frame", frame_path, "--tuple", tuple_path,
                     "--out", embedded_path]) == 0
        coords = np.loadtxt(embedded_path, delimiter=",")
        assert coords.size == obj["Q"] * obj["n"] * obj["K"]

        assert main(["decode", "--frame", frame_path, "--in", embedded_path]) == 0
        decoded = QTuple.from_text(capsys.readouterr().out.strip())
        assert decoded == QTuple([[0.3, -0.2], [1.0, 0.4]]) or np.allclose(
            decoded.canonical().points,
            QTuple([[0.3, -0.2], [1.0, 0.4]]).canonical().points,
            atol=1e-6,
        )

    def test_frame_n1_integer_k(self, tmp_path):
        # K copies of the basis [[1]], on which |xi(v)| = G2(v, 0)
        frame_path = str(tmp_path / "frame.json")
        assert main(["frame", "--n", "1", "--q", "2", "--k", "5", "--out", frame_path]) == 0
        obj = json.loads(open(frame_path).read())
        assert obj["K"] == 5 and obj["epsilon"] == 1.0 and obj["bases"] == [[[1.0]]] * 5
        tuple_path = write(tmp_path / "t.json", json.dumps([[-1.5], [0.25]]))
        embedded_path = str(tmp_path / "z.csv")
        assert main(["embed", "--frame", frame_path, "--tuple", tuple_path,
                     "--out", embedded_path]) == 0
        coords = np.loadtxt(embedded_path, delimiter=",")
        assert coords.size == 10
        assert np.linalg.norm(coords) == pytest.approx(math.hypot(1.5, 0.25), rel=1e-12)

    def test_decode_empty_csv(self, tmp_path, capsys):
        frame_path = str(tmp_path / "frame.json")
        assert main(["frame", "--n", "2", "--q", "2", "--seed", "1",
                     "--out", frame_path]) == 0
        empty = write(tmp_path / "z.csv", "")
        assert main(["decode", "--frame", frame_path, "--in", empty]) == 1
        assert "z.csv" in capsys.readouterr().err

    def test_frame_seed_reproducible(self, tmp_path):
        p1 = str(tmp_path / "f1.json")
        p2 = str(tmp_path / "f2.json")
        main(["frame", "--n", "3", "--q", "2", "--seed", "7", "--out", p1])
        main(["frame", "--n", "3", "--q", "2", "--seed", "7", "--out", p2])
        assert open(p1).read() == open(p2).read()

    def test_default_frames_match_golden_file(self, capsys):
        # the seed-7 frames for n 1-3 at Q 1-6 and n 4 at Q 1-4, one JSON line each
        lines = []
        for n, top in ((1, 6), (2, 6), (3, 6), (4, 4)):
            for q in range(1, top + 1):
                assert main(["frame", "--n", str(n), "--q", str(q), "--seed", "7"]) == 0
                lines.append(capsys.readouterr().out)
        assert "".join(lines) == (DATA / "frames_seed7.jsonl").read_text()

    def test_frame_that_cannot_separate_names_q(self, capsys):
        # no frame of at most 512 directions reaches the separation floor at Q = 10
        assert main(["frame", "--n", "2", "--q", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: --q 10, --k auto: ")

    @pytest.mark.parametrize("argv,named", [(["--k", "0"], "--k"), (["--k", "-5"], "--k"),
                                            (["--n", "0"], "--n"), (["--q", "-1"], "--q")])
    def test_frame_size_below_one_named(self, capsys, argv, named):
        # later options replace the earlier ones
        assert main(["frame", "--n", "2", "--q", "2"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}: ") and captured.out == ""

    @pytest.mark.parametrize("argv,named", [(["--n", "5000"], "--n"), (["--q", "100000"], "--q"),
                                            (["--k", "10000000"], "--k"),
                                            (["--n", "1", "--k", "100000000"], "--k")])
    def test_frame_size_past_the_bound_named(self, capsys, argv, named):
        # refused before anything is allocated
        assert main(["frame", "--n", "2", "--q", "2"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}: ") and captured.out == ""

    def test_decode_failure_names_input(self, tmp_path, capsys, monkeypatch):
        frame_path = str(tmp_path / "frame.json")
        assert main(["frame", "--n", "2", "--q", "2", "--seed", "1", "--out", frame_path]) == 0
        z = write(tmp_path / "z.csv", ",".join(["0.5"] * 8))

        def fail(coords, frame, hint):
            raise embed.DecodeFailure("coordinate refinement hit its evaluation budget",
                                      QTuple(np.zeros((2, 2))))

        monkeypatch.setattr(embed, "decode", fail)
        assert main(["decode", "--frame", frame_path, "--in", z]) == 1
        err = capsys.readouterr().err
        assert "z.csv" in err and "evaluation budget" in err

    def test_missing_frame_field(self, tmp_path):
        bad = write(tmp_path / "frame.json", json.dumps({"n": 2, "Q": 1}))
        t = write(tmp_path / "t.json", "[[1, 0]]")
        assert main(["embed", "--frame", bad, "--tuple", t]) == 1


class TestExtendCli:
    def test_cone(self, tmp_path, capsys):
        pts = [
            {"x": [math.cos(t), math.sin(t)], "value": [[math.cos(t)]]}
            for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)
        ]
        data = write(tmp_path / "cone.json",
                     json.dumps({"m": 2, "R": 1.0, "points": pts}))
        q = write(tmp_path / "q.csv", "0.0,0.0\n1.0,0.0\n")
        out = str(tmp_path / "vals.json")
        assert main(["extend", "cone", "--in", data, "--query", q,
                     "--out", out]) == 0
        vals = json.loads(open(out).read())
        assert len(vals) == 2
        assert vals[1] == [[1.0]]

    def test_whitney(self, tmp_path):
        data = write(
            tmp_path / "w.json",
            json.dumps({
                "box": [[0.0, 1.0]],
                "depth": 6,
                "data": [{"x": [0.0], "value": [[0.0]]},
                         {"x": [1.0], "value": [[1.0]]}],
            }),
        )
        q = write(tmp_path / "q.csv", "0.0\n0.5\n1.0\n")
        out = str(tmp_path / "vals.json")
        assert main(["extend", "whitney", "--in", data, "--query", q,
                     "--out", out]) == 0
        vals = json.loads(open(out).read())
        assert vals[0] == [[0.0]]
        assert vals[2] == [[1.0]]

    @pytest.mark.parametrize("mode", ["cone", "whitney"])
    @pytest.mark.parametrize("field,value", [("x", {"a": 1}), ("value", {"a": 1}),
                                             ("x", [[1.0, 0.0]]), ("x", ["1.0", "0.0"]),
                                             ("x", [True, 0.0]), ("x", [])])
    def test_bad_sample_field_named(self, tmp_path, capsys, mode, field, value):
        entry = {"x": [1.0, 0.0], "value": [[0.0]]}
        entry[field] = value
        if mode == "cone":
            obj = {"m": 2, "R": 1.0, "points": [entry]}
        else:
            obj = {"box": [[0.0, 1.0], [0.0, 1.0]], "data": [entry]}
        data = write(tmp_path / "s.json", json.dumps(obj))
        q = write(tmp_path / "q.csv", "0.0,0.0\n")
        assert main(["extend", mode, "--in", data, "--query", q]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("depth", 4.7), ("depth", -1), ("depth", 30), ("box", "unit"), ("box", [[0.0, 1.0]]),
        ("box", [[1.0, 0.0], [0.0, 1.0]]), ("box", [[0.0, 0.0], [0.5, 0.5]]),
        ("box", [[0.0, "1"], [0.0, 1.0]]), ("data", []),
        ("data", [{"x": [0.5, 0.5], "value": [[0.0]]}, {"x": [0.5, 0.5], "value": [[1.0]]}]),
        ("data", [{"x": [0.5, 0.5], "value": [[0.0]]}, {"x": [0.1, 0.5], "value": [[1.0], [2.0]]}]),
        ("data", [{"x": [0.5, 0.5], "value": [[0.0]]}, {"x": [0.1], "value": [[1.0]]}]),
        ("data", [{"x": [0.5, 0.5, 0.5], "value": [[0.0]]}]),
    ])
    def test_bad_whitney_field_named(self, tmp_path, capsys, field, value):
        obj = {"box": [[0.0, 1.0], [0.0, 1.0]], "depth": 4,
               "data": [{"x": [0.5, 0.5], "value": [[0.0]]}]}
        obj[field] = value
        data = write(tmp_path / "w.json", json.dumps(obj))
        q = write(tmp_path / "q.csv", "0.2,0.2\n")
        assert main(["extend", "whitney", "--in", data, "--query", q]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("data", []),
        ("data", [{"x": [0.5, 0.5, 0.5], "value": [[0.0]]}]),
        ("data", [{"x": [0.5, 0.5], "value": [[0.0]]}, {"x": [0.5, 0.5], "value": [[1.0]]}]),
        ("data", [{"x": [0.5, 0.5], "value": [[0.0]]}, {"x": [0.1], "value": [[1.0]]}]),
        ("data", [{"x": [0.5, 0.5], "value": [[0.0]]}, {"x": [0.1, 0.5], "value": [[1.0], [2.0]]}]),
        ("x", [0.5, 1e999]),
        ("box", [[0.0, 1.0]]),
        ("box", [[1.0, 0.0], [0.0, 1.0]]),
        ("box", [[0.0, 0.0], [0.5, 0.5]]),
        ("box", [[-1e308, 1e308], [0.0, 1.0]]),
        ("depth", 30),
        ("depth", -1),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_whitney_fault_names_its_field_once(self, tmp_path, capsys, field, value):
        obj = {"box": [[0.0, 1.0], [0.0, 1.0]], "depth": 4,
               "data": [{"x": [0.5, 0.5], "value": [[0.0]]}]}
        if field == "x":
            obj["data"][0]["x"] = value
        else:
            obj[field] = value
        data = write(tmp_path / "w.json", json.dumps(obj))
        q = write(tmp_path / "q.csv", "0.2,0.2\n")
        assert main(["extend", "whitney", "--in", data, "--query", q]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad Whitney data in {data}: ")
        assert err.count(f"'{field}'") == 1 and "bad field" not in err

    @pytest.mark.parametrize("box,query,named", [
        ([[0.0, 1.0], [0.0, 1.0]], "1.5,0.5\n", "1.5"),
        ([[0.0, 1.0], [0.0, 0.5]], "0.5,0.9\n", "0.9"),
        ([[1.0, 0.0], [0.0, 1.0]], "0.5,0.5\n", "box"),
    ])
    def test_whitney_query_outside_box(self, tmp_path, capsys, box, query, named):
        obj = {"box": box, "depth": 4, "data": [{"x": [0.2, 0.3], "value": [[0.0]]}]}
        data = write(tmp_path / "w.json", json.dumps(obj))
        q = write(tmp_path / "q.csv", query)
        assert main(["extend", "whitney", "--in", data, "--query", q]) == 1
        assert named in capsys.readouterr().err

    @staticmethod
    def cone_file(tmp_path):
        pts = [{"x": [1.0, 0.0], "value": [[0.0]]}, {"x": [0.0, 1.0], "value": [[1.0]]}]
        return write(tmp_path / "cone.json", json.dumps({"m": 2, "R": 1.0, "points": pts}))

    @pytest.mark.parametrize("mode", ["cone", "whitney"])
    def test_nonfinite_query_named(self, tmp_path, capsys, mode):
        if mode == "cone":
            data = self.cone_file(tmp_path)
        else:
            data = write(tmp_path / "w.json", json.dumps(
                {"box": [[0.0, 1.0], [0.0, 1.0]], "data": [{"x": [0.5, 0.5], "value": [[0.0]]}]}))
        q = write(tmp_path / "q.csv", "0.1,0.2\nnan,0.2\n")
        assert main(["extend", mode, "--in", data, "--query", q]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "[nan, 0.2]" in err and "not finite" in err

    @pytest.mark.parametrize("bad,named", [("1.5,0.5", "outside the domain box"),
                                           ("nan,0.2", "not finite"),
                                           ("0.3,-inf", "not finite")])
    def test_whitney_bad_middle_row_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                   bad, named):
        from qvalued import extend

        plans = []
        real = extend._plan_rows
        monkeypatch.setattr(extend, "_plan_rows", lambda stack: plans.append(1) or real(stack))
        data = write(tmp_path / "w.json", json.dumps(
            {"box": [[0.0, 1.0], [0.0, 1.0]], "depth": 4,
             "data": [{"x": [0.2, 0.3], "value": [[0.0]]}, {"x": [0.7, 0.6], "value": [[1.0]]}]}))
        q = write(tmp_path / "q.csv", f"0.1,0.2\n0.5,0.5\n{bad}\n0.9,0.9\n5,5\n")
        out = tmp_path / "vals.json"
        assert main(["extend", "whitney", "--in", data, "--query", q, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "row 3 of" in captured.err and "q.csv" in captured.err and named in captured.err
        assert captured.out == "" and not out.exists() and plans == []
        # the same rows against a cone sample of the unit disk
        assert main(["extend", "cone", "--in", self.cone_file(tmp_path), "--query", q,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "row 3 of" in captured.err and "q.csv" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("mode", ["cone", "whitney"])
    @pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"])
    def test_empty_query_csv(self, tmp_path, capsys, mode, text):
        if mode == "cone":
            data = self.cone_file(tmp_path)
        else:
            data = write(tmp_path / "w.json", json.dumps(
                {"box": [[0.0, 1.0]], "data": [{"x": [0.5], "value": [[0.0]]}]}))
        q = write(tmp_path / "q.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["extend", mode, "--in", data, "--query", q]) == 1
        captured = capsys.readouterr()
        assert "q.csv" in captured.err and captured.out == ""

    def test_missing_query_file_option(self, tmp_path, capsys):
        assert main(["extend", "cone", "--in", self.cone_file(tmp_path)]) == 1
        assert "--query" in capsys.readouterr().err

    def test_cone_plans_once_per_file(self, tmp_path, monkeypatch):
        from qvalued import extend

        plans = []
        real = extend._plan_rows
        monkeypatch.setattr(extend, "_plan_rows", lambda stack: plans.append(1) or real(stack))
        q = write(tmp_path / "q.csv", "0.1,0.2\n0.0,0.0\n-0.3,0.5\n")
        assert main(["extend", "cone", "--in", self.cone_file(tmp_path), "--query", q]) == 0
        assert len(plans) == 1

    def test_cone_matches_golden_file(self, tmp_path):
        # clustered values on the circle of radius 2 (the plan splits), tied
        # integer values on the unit circle and random values on the sphere
        # of radius 0.5 in R^3; the queries are every sample location, the
        # centre, a point 1e-16 from it, points on the sphere and inside it
        rng = np.random.default_rng(1903)
        L, Q, n = 9, 3, 2
        outputs = []
        for kind, m, R in (("clustered", 2, 2.0), ("tied", 2, 1.0), ("random", 3, 0.5)):
            dirs = rng.standard_normal((L + 12, m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            if kind == "clustered":
                centers = np.array([[0.0, 0.0], [0.4, 0.0], [6.0, 1.0]])
                vals = centers + rng.uniform(-0.02, 0.02, (L, Q, n))
                vals = np.take_along_axis(vals, rng.random((L, Q)).argsort(axis=1)[:, :, None],
                                          axis=1)
            elif kind == "tied":
                vals = rng.integers(-2, 3, (L, Q, n)).astype(float)
                vals[:, 0] = vals[:, -1]
                vals[4] = vals[1]
            else:
                vals = rng.uniform(-1.0, 1.0, (L, Q, n))
            locs = R * dirs[:L]
            queries = np.concatenate([locs, np.zeros((1, m)), 1e-16 * dirs[:1], R * dirs[L:L + 6],
                                      R * rng.uniform(0.0, 1.0, (6, 1)) * dirs[L + 6:]])
            data = write(tmp_path / f"{kind}.json", json.dumps({
                "m": m, "R": R,
                "points": [{"x": x.tolist(), "value": v.tolist()} for x, v in zip(locs, vals)],
            }))
            q = write(tmp_path / f"{kind}.csv",
                      "".join(",".join(map(repr, row)) + "\n" for row in queries.tolist()))
            out = tmp_path / f"{kind}_vals.json"
            assert main(["extend", "cone", "--in", data, "--query", q, "--out", str(out)]) == 0
            outputs.append(out.read_text())
        golden = pathlib.Path(__file__).parent / "data" / "cone_golden.jsonl"
        assert "".join(text + "\n" for text in outputs) == golden.read_text()

    def test_whitney_matches_golden_file(self, tmp_path):
        # 40 samples, Q = 3, depth 8; the queries are uniform points, five
        # sample locations and five points on dyadic lines and corners
        rng = np.random.default_rng(1402)
        locs = rng.uniform(0.0, 1.0, (40, 2))
        vals = rng.uniform(-1.0, 1.0, (40, 3, 2))
        queries = np.concatenate([rng.uniform(0.0, 1.0, (40, 2)), locs[[3, 11, 17, 29, 38]],
                                  [[0.5, 0.5], [0.25, 0.75], [0.5, 0.125], [0.0, 1.0],
                                   [0.375, 0.0]]])
        data = write(tmp_path / "w.json", json.dumps({
            "box": [[0.0, 1.0], [0.0, 1.0]], "depth": 8,
            "data": [{"x": x.tolist(), "value": v.tolist()} for x, v in zip(locs, vals)],
        }))
        q = write(tmp_path / "q.csv", "".join(f"{a!r},{b!r}\n" for a, b in queries.tolist()))
        out = tmp_path / "vals.json"
        assert main(["extend", "whitney", "--in", data, "--query", q, "--out", str(out)]) == 0
        golden = pathlib.Path(__file__).parent / "data" / "whitney_golden.json"
        assert out.read_text() == golden.read_text()

    def test_whitney_off_grid_matches_golden_file(self, tmp_path):
        # boxes whose lattice coordinates are not exact floats, so a floor or
        # a side choice that went the other way would show: random and
        # clustered values in 2-D at depths 5 and 8 and in 1-D at depth 6;
        # the queries are uniform points, sample locations, lattice corners
        # of the finest and of coarser levels, and points on lattice lines
        rng = np.random.default_rng(3497)
        outputs = []
        for kind, box, depth in (("random", [[-0.3, 0.41], [0.1, 0.77]], 5),
                                 ("clustered", [[-0.3, 0.41], [0.1, 0.77]], 8),
                                 ("random", [[-0.7, 0.33]], 6),
                                 ("clustered", [[-0.7, 0.33]], 6)):
            lo, hi = np.array(box).T
            m, S = len(box), float((hi - lo).max())
            locs = lo + rng.uniform(0.0, 1.0, (30, m)) * (hi - lo)
            if kind == "clustered":
                centers = np.array([[0.0, 0.0], [0.4, 0.0], [6.0, 1.0]])
                vals = centers + rng.uniform(-0.02, 0.02, (30, 3, 2))
                vals = np.take_along_axis(vals, rng.random((30, 3)).argsort(axis=1)[:, :, None],
                                          axis=1)
            else:
                vals = rng.uniform(-1.0, 1.0, (30, 3, 2))
            lattice = [lo + rng.integers(0, (1 << level) + 1, (8, m)) * (S / (1 << level))
                       for level in (1, 2, depth)]
            on_line = lo + rng.uniform(0.0, 1.0, (16, m)) * (hi - lo)
            axis = np.arange(16) % m
            on_line[np.arange(16), axis] = (lo[axis] + rng.integers(0, (1 << depth) + 1, 16)
                                            * (S / (1 << depth)))
            queries = np.concatenate([lo + rng.uniform(0.0, 1.0, (20, m)) * (hi - lo),
                                      locs[:3], *lattice, on_line])
            queries = queries[np.all((lo <= queries) & (queries <= hi), axis=1)]
            data = write(tmp_path / "w.json", json.dumps({
                "box": box, "depth": depth,
                "data": [{"x": x.tolist(), "value": v.tolist()} for x, v in zip(locs, vals)],
            }))
            q = write(tmp_path / "q.csv",
                      "".join(",".join(map(repr, row)) + "\n" for row in queries.tolist()))
            out = tmp_path / "vals.json"
            assert main(["extend", "whitney", "--in", data, "--query", q, "--out", str(out)]) == 0
            outputs.append(out.read_text())
        golden = pathlib.Path(__file__).parent / "data" / "whitney_offgrid.jsonl"
        assert "".join(text + "\n" for text in outputs) == golden.read_text()

    def test_plane(self, tmp_path):
        g = empty_grid(2, 1, 1, 7)
        g.values[g.mask != OUTSIDE] = [[2.0]]
        infile = write(tmp_path / "g.json", g.to_json())
        out = str(tmp_path / "plane.json")
        assert main(["extend", "plane", "--in", infile, "--out", out]) == 0
        result = GridFunction.from_json(open(out).read())
        assert result.shape[0] > g.shape[0]

    def test_plane_past_the_bound_names_shape(self, tmp_path, capsys):
        # 2**13 nodes in, 4**13 out: refused before the output is allocated
        infile = write(tmp_path / "g.json", empty_grid(13, 1, 2, 2).to_json())
        assert main(["extend", "plane", "--in", infile, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad grid function in {infile}: "
                                                  "field 'shape' [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2")
        assert not (tmp_path / "out").exists()


class TestSolveCli:
    def test_square_grid_function_boundary(self, tmp_path, capsys):
        grid = empty_grid(2, 1, 1, 9)
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            grid.values[idx] = [[x[0] + 2 * x[1]]]
        b = write(tmp_path / "b.json", grid.to_json())
        sol_path = str(tmp_path / "sol.json")
        hist_path = str(tmp_path / "hist.csv")
        assert main(["solve", "--boundary", b, "--p", "2", "--tol", "1e-10",
                     "--out", sol_path, "--history", hist_path]) == 0
        sol = GridFunction.from_json(open(sol_path).read())
        for idx in sol.nodes():
            x = sol.node_coords(idx)
            assert sol.values[idx][0, 0] == pytest.approx(x[0] + 2 * x[1], abs=1e-8)
        lines = open(hist_path).read().strip().splitlines()
        assert lines[0] == "iteration,total_energy"
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a + 1e-12 * (1 + a) for a, b in zip(energies, energies[1:]))

        # round trips: energy and trace accept the solver's output
        assert main(["energy", "--in", sol_path, "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["total"] >= 0
        trace_path = str(tmp_path / "trace.json")
        assert main(["trace", "--in", sol_path, "--out", trace_path]) == 0
        tr = json.loads(open(trace_path).read())
        assert len(tr["points"]) == sum(
            1 for _ in grid.nodes(kinds=(BOUNDARY,))
        )

    def test_energy_past_float64_exits_1_naming_values(self, tmp_path, capsys):
        # the branches +-1e200 are far apart but finite: the matched differences
        # of the first pass square past the float64 range
        grid = empty_grid(2, 1, 2, 5, square_mask(5, 2))
        grid.values[grid.mask == BOUNDARY] = [[1e200], [-1e200]]
        b = write(tmp_path / "b.json", grid.to_json())
        with np.errstate(over="ignore"):
            assert main(["solve", "--boundary", b, "--out", str(tmp_path / "sol.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad boundary data in {b}: field 'values' ")
        assert "overflows float64" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,what", [("solve", "boundary data"),
                                              ("energy 2", "grid function"),
                                              ("energy 3", "grid function")])
    def test_overflow_leaves_only_the_error_line(self, tmp_path, capsys, command, what):
        # warnings are errors and no errstate is set: stderr holds the one
        # named error, and qv energy writes no Infinity
        grid = empty_grid(2, 1, 2, 5, square_mask(5, 2))
        grid.values[grid.mask == BOUNDARY] = [[1e200], [-1e200]]
        b = write(tmp_path / "b.json", grid.to_json())
        if command == "solve":
            argv = ["solve", "--boundary", b, "--out", str(tmp_path / "sol.json")]
        else:
            argv = ["energy", "--in", b, "--p", command.split()[1]]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: bad {what} in {b}: field 'values' holds branches so far "
                       "apart that their p-energy overflows float64; scale them down\n")

    def test_curve_spec_boundary(self, tmp_path, capsys):
        b = write(tmp_path / "sqrt2.json",
                  json.dumps({"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(64)}))
        sol_path = str(tmp_path / "sol.json")
        assert main(["solve", "--boundary", b, "--grid", "16", "--p", "2",
                     "--restarts", "1", "--out", sol_path]) == 0
        sol = GridFunction.from_json(open(sol_path).read())
        assert sol.Q == 2 and sol.n == 2
        status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert status["converged"]

    def test_disk_sqrt_p2_matches_golden_file(self, tmp_path, capsys):
        b = write(tmp_path / "b.json", sqrt_disk_n16().to_json())
        sol, hist = tmp_path / "sol.json", tmp_path / "hist.csv"
        assert main(["solve", "--boundary", b, "--p", "2", "--out", str(sol),
                     "--history", str(hist)]) == 0
        golden = pathlib.Path(__file__).parent / "data" / "solve_p2_n16.json"
        assert sol.read_text() == golden.read_text()
        assert hist.read_text() == HISTORY_P2_N16
        assert capsys.readouterr().out == STDOUT_P2_N16

    @pytest.mark.parametrize("name,spec,argv", CURVE_GOLDENS)
    def test_curve_spec_matches_golden_files(self, tmp_path, capsys, name, spec, argv):
        # each boundary node takes its nearest sample's value; the solution,
        # the history and stdout are pinned byte for byte
        b = write(tmp_path / "b.json", json.dumps(spec))
        sol, hist = tmp_path / "sol.json", tmp_path / "hist.csv"
        assert main(["solve", "--boundary", b, "--out", str(sol),
                     "--history", str(hist)] + argv) == 0
        assert sol.read_text() == (DATA / f"{name}.json").read_text()
        assert hist.read_text() == (DATA / f"{name}_history.csv").read_text()
        assert capsys.readouterr().out == (DATA / f"{name}_stdout.txt").read_text()

    @pytest.mark.parametrize("name", ["solve_p2_n16"] + [name for name, _, _ in CURVE_GOLDENS])
    def test_golden_solves_match_a_fresh_factorization(self, tmp_path, name, monkeypatch):
        # every frozen-matching solve of the golden runs against a fresh splu of the
        # natural-order matrix, bit for bit; each solve factors once, so none fell back
        import scipy.sparse.linalg

        from qvalued import energy

        solves, specs = [], []
        splu = scipy.sparse.linalg.splu

        class Recording(energy._FrozenLaplacian):
            def __init__(self, Y, ga, gb, slot, free):
                super().__init__(Y, ga, gb, slot, free)
                self.args = (Y.copy(), ga, gb.copy(), slot, free)

            def solve(self, weight):
                x = super().solve(weight)
                solves.append((self.args, weight.copy(), x))
                return x

        def spy(A, permc_spec=None, **kwargs):
            specs.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(energy, "_FrozenLaplacian", Recording)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        if name == "solve_p2_n16":
            b, argv = write(tmp_path / "b.json", sqrt_disk_n16().to_json()), ["--p", "2"]
        else:
            _, spec, argv = next(golden for golden in CURVE_GOLDENS if golden[0] == name)
            b = write(tmp_path / "b.json", json.dumps(spec))
        sol = tmp_path / "sol.json"
        assert main(["solve", "--boundary", b, "--out", str(sol)] + argv) == 0
        assert sol.read_text() == (DATA / f"{name}.json").read_text()
        assert len(specs) == len(solves) > 0
        p = float(argv[argv.index("--p") + 1]) if "--p" in argv else 2.0
        # p = 2 factors each matching once; other p reuse the first order
        assert ("NATURAL" in specs) == (p != 2.0)
        for args, weight, x in solves:
            assert x.tobytes() == frozen_solve_reference(*args, weight).tobytes()

    def test_trace_matches_golden_file(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--in", str(DATA / "solve_p2_n16.json"), "--out", str(out)]) == 0
        assert out.read_text() == (DATA / "trace_p2_n16.json").read_text()

    def test_curve_spec_non_integer_q_named(self, tmp_path, capsys):
        b = write(tmp_path / "b.json",
                  json.dumps({"domain": "disk", "Q": "two", "n": 1,
                              "curve": [{"x": [1.0, 0.0], "value": [[0.0]]}]}))
        assert main(["solve", "--boundary", b, "--grid", "8"]) == 1
        assert "field 'Q'" in capsys.readouterr().err

    def test_curve_spec_bad_entries_named(self, tmp_path, capsys):
        for curve in ([3], [{"x": [1.0], "value": [[0.0]]}],
                      [{"x": [1.0, 0.0], "value": [[0.0, 1.0]]}]):
            b = write(tmp_path / "b.json",
                      json.dumps({"domain": "disk", "Q": 1, "n": 1, "curve": curve}))
            assert main(["solve", "--boundary", b, "--grid", "8"]) == 1
            assert "'curve'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,field", [
        ('{"x": [NaN, 0.0], "value": [[0.0]]}', "x"),
        ('{"x": [[1.0, 0.0]], "value": [[0.0]]}', "x"),
        ('{"x": [], "value": [[0.0]]}', "x"),
        ('{"x": [1.0, 0.0], "value": [[Infinity]]}', "value"),
        ('{"x": [1.0, 0.0], "value": "v"}', "value"),
        ("", "curve"),
    ])
    def test_curve_spec_bad_sample_named(self, tmp_path, capsys, entry, field):
        # Python's json reads NaN and Infinity, so the loader must reject them itself
        b = write(tmp_path / "b.json",
                  '{"domain": "disk", "Q": 1, "n": 1, "curve": [%s]}' % entry)
        assert main(["solve", "--boundary", b, "--grid", "8"]) == 1
        assert f"field '{field}'" in capsys.readouterr().err

    def test_disk_curve_spec_grid_below_three_named(self, tmp_path, capsys):
        # disk_mask(2) puts every node outside the disk, so the fault is --grid
        b = write(tmp_path / "b.json", json.dumps(
            {"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(8)}))
        assert main(["solve", "--boundary", b, "--grid", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --grid must be an integer >= 3 ")
        assert "mask" not in captured.err and captured.out == ""
        out = str(tmp_path / "out.json")
        assert main(["solve", "--boundary", b, "--grid", "3", "--out", out]) == 0

    def test_square_curve_spec_grid_two_accepted(self, tmp_path, capsys):
        b = write(tmp_path / "b.json", json.dumps(
            {"domain": "square", "Q": 2, "n": 1, "curve": square_curve(3)}))
        out = str(tmp_path / "out.json")
        assert main(["solve", "--boundary", b, "--grid", "2", "--out", out]) == 0
        assert main(["solve", "--boundary", b, "--grid", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: --grid must be an integer >= 2")

    def test_bad_grid_function_boundary(self, tmp_path, capsys):
        grid = json.loads(empty_grid(2, 1, 1, 5).to_json())
        grid["Q"] = "one"
        b = write(tmp_path / "b.json", json.dumps(grid))
        assert main(["solve", "--boundary", b]) == 1
        assert "bad grid function" in capsys.readouterr().err

    def test_stranded_interior_node_named(self, tmp_path, capsys):
        grid = empty_grid(2, 1, 1, 5)
        for idx in ((1, 2), (3, 2), (2, 1), (2, 3)):
            grid.mask[idx] = OUTSIDE
        b = write(tmp_path / "b.json", grid.to_json())
        assert main(["solve", "--boundary", b]) == 1
        err = capsys.readouterr().err
        assert "(2, 2)" in err and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["no boundary node", "interior cut off"])
    def test_mask_fault_named(self, tmp_path, capsys, fault):
        grid = empty_grid(2, 1, 1, 5)
        if fault == "no boundary node":
            grid.mask[grid.mask == BOUNDARY] = OUTSIDE
        else:  # node (2, 2) walled off by outside nodes
            for idx in ((1, 2), (3, 2), (2, 1), (2, 3)):
                grid.mask[idx] = OUTSIDE
        b = write(tmp_path / "b.json", grid.to_json())
        assert main(["solve", "--boundary", b]) == 1
        assert "'mask'" in capsys.readouterr().err

    def test_curve_spec_unknown_domain_named(self, tmp_path, capsys):
        b = write(tmp_path / "b.json",
                  json.dumps({"domain": ["disk"], "Q": 1, "n": 1,
                              "curve": [{"x": [1.0, 0.0], "value": [[0.0]]}]}))
        assert main(["solve", "--boundary", b, "--grid", "8"]) == 1
        assert "'domain'" in capsys.readouterr().err

    def test_curve_spec_requires_grid(self, tmp_path):
        b = write(tmp_path / "b.json",
                  json.dumps({"domain": "disk", "Q": 1, "n": 1,
                              "curve": [{"x": [1.0, 0.0], "value": [[0.0]]}]}))
        assert main(["solve", "--boundary", b]) == 1

    @pytest.mark.parametrize("spec,grid", [
        ({"domain": "square", "m": 40}, "5"),
        ({"domain": "square", "m": 12}, "5"),
        ({"domain": "disk"}, "100000"),
        ({"domain": "square", "m": 2}, "4097"),  # one row past 2**24 values
    ])
    def test_curve_spec_grid_past_the_memory_bound_named(self, tmp_path, capsys, monkeypatch,
                                                         spec, grid):
        from qvalued import cli

        def no_mask(*args):
            raise AssertionError("a mask was built")

        monkeypatch.setattr(cli, "disk_mask", no_mask)
        monkeypatch.setattr(cli, "square_mask", no_mask)
        b = write(tmp_path / "b.json", json.dumps(
            dict(spec, Q=1, n=1, curve=[{"x": [1.0] + [0.0] * (spec.get("m", 2) - 1),
                                        "value": [[0.0]]}])))
        assert main(["solve", "--boundary", b, "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: m {spec.get('m', 2)} and --grid {grid} ")
        assert captured.out == ""

    def test_curve_spec_grid_at_the_memory_bound_is_accepted(self, tmp_path, monkeypatch):
        # 4096**2 values are exactly 2**24: the loader goes on to build the mask
        from qvalued import cli

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(cli, "square_mask", reached)
        b = write(tmp_path / "b.json", json.dumps(
            {"domain": "square", "m": 2, "Q": 1, "n": 1,
             "curve": [{"x": [1.0, 0.0], "value": [[0.0]]}]}))
        with pytest.raises(Reached):
            main(["solve", "--boundary", b, "--grid", "4096"])

    @pytest.mark.parametrize("flag,value,field", [
        ("--tol", "-1", "tol"), ("--tol", "0", "tol"), ("--tol", "nan", "tol"),
        ("--tol", "inf", "tol"), ("--restarts", "0", "restarts"),
        ("--restarts", "-3", "restarts"), ("--grid", "1", "--grid"),
        ("--grid", "0", "--grid"), ("--grid", "-3", "--grid"),
    ])
    def test_bad_tol_or_restarts_named(self, tmp_path, capsys, flag, value, field):
        # a curve spec, which --grid sizes; a later --grid replaces the first
        b = write(tmp_path / "b.json", json.dumps(
            {"domain": "disk", "Q": 2, "n": 2, "curve": sqrt_curve(8)}))
        assert main(["solve", "--boundary", b, "--grid", "5", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must ")
        assert captured.out == ""

    def test_grid_flag_disagreeing_with_a_grid_function_named(self, tmp_path, capsys):
        b = write(tmp_path / "b.json", empty_grid(2, 1, 1, 5).to_json())
        assert main(["solve", "--boundary", b, "--grid", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: --grid 6 does not match the shape [5, 5] of the "
                                f"grid function in {b}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("m", [1, 2])
    def test_grid_flag_agreeing_with_a_grid_function_accepted(self, tmp_path, capsys, m):
        b = write(tmp_path / "b.json", empty_grid(m, 1, 1, 5).to_json())
        flagged, plain = tmp_path / "flagged.json", tmp_path / "plain.json"
        assert main(["solve", "--boundary", b, "--grid", "5", "--out", str(flagged)]) == 0
        assert main(["solve", "--boundary", b, "--out", str(plain)]) == 0
        assert flagged.read_text() == plain.read_text()

    def test_unconverged_solve_warns(self, tmp_path, capsys, monkeypatch):
        from qvalued import energy

        solve = energy.solve_dirichlet

        def capped(*args, **kwargs):
            solution, report, history = solve(*args, **kwargs)
            report.converged = False
            return solution, report, history

        b = write(tmp_path / "b.json", empty_grid(2, 1, 1, 5).to_json())
        hist = tmp_path / "hist.csv"
        argv = ["solve", "--boundary", b, "--history", str(hist),
                "--out", str(tmp_path / "sol.json")]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        expect_hist = hist.read_text()
        monkeypatch.setattr(energy, "solve_dirichlet", capped)
        assert main(argv) == 0
        out = capsys.readouterr()
        status = json.loads(out.out)
        assert status["converged"] is False
        assert out.out.replace("false", "true") == plain.out
        assert hist.read_text() == expect_hist
        assert out.err == (f"warning: solver stopped after {status['iterations']} "
                           "outer iterations without converging\n")


class TestGridLoader:
    def test_from_obj_matches_from_json(self):
        g = empty_grid(2, 2, 2, 6)
        g.mask[0, 0] = OUTSIDE
        g.values[g.mask != OUTSIDE] = np.arange(4.0).reshape(2, 2)
        text = g.to_json()
        a, b = GridFunction.from_obj(json.loads(text)), GridFunction.from_json(text)
        assert a.shape == b.shape and a.h == b.h
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_missing_field_named(self, tmp_path, capsys):
        bad = write(tmp_path / "g.json", json.dumps({"m": 2, "n": 1}))
        assert main(["energy", "--in", bad]) == 1
        assert "missing field 'Q'" in capsys.readouterr().err


class TestEnergyCli:
    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_nonfinite_p_named(self, capsys, p):
        # "--p=-inf": argparse takes a lone "-inf" for an option
        assert main(["energy", "--in", str(DATA / "solve_p2_n16.json"), f"--p={p}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: p must be a finite number > 1, got {float(p)}\n"
        assert captured.out == ""


class TestVerifyCli:
    @pytest.mark.parametrize("field,value", [("Q_range", 3), ("n_range", [1]),
                                             ("trials", "many"), ("tolerances", [])])
    def test_bad_config_field_named(self, tmp_path, capsys, field, value):
        cfg = write(tmp_path / "cfg.json", json.dumps({"trials": 5, field: value}))
        assert main(["verify", "--config", cfg]) == 1
        assert f"field '{field}'" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", "[1, 2]")
        assert main(["verify", "--config", cfg]) == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerances,named", [('{"sqrt_q": NaN}', "'sqrt_q'"),
                                                  ('{"sqrt_q": Infinity}', "'sqrt_q'"),
                                                  ('{"sqrtq": 1}', "'sqrtq'")])
    def test_bad_tolerance_named(self, tmp_path, capsys, tolerances, named):
        cfg = write(tmp_path / "cfg.json", '{"trials": 5, "tolerances": %s}' % tolerances)
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "tolerances" in err and named in err

    @pytest.mark.parametrize("name", ["symmetry", "triangle"])
    def test_tolerance_no_check_reads_is_rejected(self, tmp_path, capsys, name):
        cfg = write(tmp_path / "cfg.json", '{"trials": 5, "tolerances": {"%s": -1}}' % name)
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "tolerances" in err and f"'{name}'" in err

    def test_range_without_a_frame_named(self, tmp_path, capsys):
        # no seed-7 frame separates Q = 12 tuples in the plane
        cfg = write(tmp_path / "cfg.json", json.dumps({"Q_range": [12, 12], "trials": 2}))
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "Q_range [12, 12]" in err and "n_range [1, 3]" in err

    @pytest.mark.parametrize("config,field", [({"m_range": [1, 12]}, "m_range"),
                                              ({"Q_range": [1, 1073741824]}, "Q_range")])
    def test_config_past_the_memory_bound_named(self, tmp_path, capsys, monkeypatch,
                                                config, field):
        from qvalued import verify

        def ran(cfg):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "run_all", ran)
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad check config") and field in err

    def test_negative_seed_named(self, capsys):
        assert main(["verify", "--seed", "-5"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_report_matches_golden_file(self, tmp_path, capsys):
        golden = pathlib.Path(__file__).parent / "data" / "verify_seed3.json"
        report_path = tmp_path / "report.json"
        assert main(["verify", "--seed", "3", "--report", str(report_path)]) == 0
        assert report_path.read_text() == golden.read_text()
        captured = capsys.readouterr()
        names = [r["name"] for r in json.loads(golden.read_text())]
        # the seconds of each check go to stderr, never into the report or stdout
        assert re.findall(r"^(\w+): \d+\.\d\d s$", captured.err, re.M) == names
        assert [line.split(":")[0] for line in captured.out.splitlines()] == names

    def test_default_report_seed12345_matches_golden_file(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["verify", "--seed", "12345", "--report", str(report_path)]) == 0
        assert report_path.read_text() == (DATA / "verify_seed12345.json").read_text()

    def test_report_above_q5_matches_golden_file(self, tmp_path):
        # every tuple pair has Q in 6..8, so each check runs the assignment solvers
        golden = pathlib.Path(__file__).parent / "data" / "verify_q6_8.json"
        cfg = write(tmp_path / "cfg.json", json.dumps({"Q_range": [6, 8], "trials": 10}))
        report_path = tmp_path / "report.json"
        assert main(["verify", "--seed", "3", "--config", cfg, "--report", str(report_path)]) == 0
        assert report_path.read_text() == golden.read_text()

    def test_failing_report_matches_golden_file(self, tmp_path):
        # negative tolerances make five checks fail, so the report pins which
        # trials become witnesses and in what order
        golden = pathlib.Path(__file__).parent / "data" / "verify_witnesses.json"
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "seed": 5, "trials": 60, "Q_range": [1, 5], "n_range": [1, 3], "m_range": [1, 2],
            "tolerances": {"equivalence": -0.001, "splitting": -1e-12, "sqrt_q": -0.001,
                           "poincare_c": 0.05, "zeta": -0.001}}))
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--report", str(report_path)]) == 1
        assert report_path.read_text() == golden.read_text()
        witnessed = [r["name"] for r in json.loads(golden.read_text()) if r["witnesses"]]
        assert witnessed == ["metric_equivalence", "splitting_lemma", "sqrt_q_bound",
                             "poincare", "zeta_bounds"]

    def test_pass_and_report(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json",
                    json.dumps({"seed": 0, "trials": 15}))
        report_path = str(tmp_path / "report.json")
        assert main(["verify", "--config", cfg, "--report", report_path]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 6
        reports = json.loads(open(report_path).read())
        assert {r["name"] for r in reports} == {
            "metric_equivalence", "splitting_lemma", "xi", "sqrt_q_bound",
            "poincare", "zeta_bounds",
        }
        for r in reports:
            assert set(r) == {"name", "trials", "failures", "worst_ratio",
                              "witnesses"}


class TestParserState:
    """``main`` builds its parser once per process; no value of one call reaches the next."""

    def run(self, argv, capsys):
        """The exit code, stdout and stderr of one call; the seconds `verify`
        writes to stderr are dropped."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, re.sub(r"\d+\.\d\d s$", "s", err, flags=re.M)

    def test_commands_in_turn_match_commands_alone(self, tmp_path, capsys):
        from qvalued import cli

        grid = empty_grid(2, 1, 2, 5)
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            grid.values[idx] = [[x[0]], [-x[1]]]
        b = write(tmp_path / "b.json", grid.to_json())
        cfg = write(tmp_path / "cfg.json", json.dumps({"trials": 5}))
        data = write(tmp_path / "w.json", json.dumps(
            {"box": [[0.0, 1.0]], "data": [{"x": [0.0], "value": [[0.0]]},
                                          {"x": [1.0], "value": [[1.0]]}]}))
        q = write(tmp_path / "q.csv", "0.25\n0.5\n")
        steps = [
            ["solve", "--boundary", b, "--history", "HISTORY", "--seed", "7",
             "--restarts", "2", "--p", "3", "--out", "OUT"],
            ["solve", "--boundary", b, "--out", "OUT"],
            ["verify", "--config", cfg, "--seed", "4", "--report", "OUT"],
            ["extend", "whitney", "--in", data, "--query", q, "--out", "OUT"],
            ["solve", "--boundary", b, "--p"],  # a usage error: --p takes a value
            ["verify", "--config", cfg, "--report", "OUT"],
        ]

        def run_in(run, argv):
            """Run a step writing into a directory of its own; its exit code,
            stdout and stderr, and the directory."""
            outdir = tmp_path / run
            outdir.mkdir()
            return self.run([str(outdir / a) if a in ("OUT", "HISTORY") else a
                             for a in argv], capsys), outdir

        def results(runs):
            """Each run's exit code, stdout and stderr and the files in its
            directory, read once all have run, with the directory named DIR."""
            return [json.dumps([code, {f.name: f.read_text() for f in sorted(outdir.iterdir())}])
                    .replace(str(outdir), "DIR") for code, outdir in runs]

        cli._build_parser.cache_clear()
        in_turn = [run_in(f"turn{i}", argv) for i, argv in enumerate(steps)]
        assert cli._build_parser.cache_info().misses == 1
        # the shared parser still parses each command as a new one does
        fresh = cli._build_parser.__wrapped__()
        for argv in steps[:4] + steps[5:]:
            assert vars(cli._build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        alone = []
        for i, argv in enumerate(steps):
            cli._build_parser.cache_clear()
            alone.append(run_in(f"alone{i}", argv))
        in_turn, alone = results(in_turn), results(alone)
        assert in_turn == alone
        runs = [json.loads(result) for result in in_turn]
        assert [code for (code, _, _), _ in runs] == [0, 0, 0, 0, 2, 0]
        assert sorted(runs[0][1]) == ["HISTORY", "OUT"]
        assert sorted(runs[1][1]) == ["OUT"]
