import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from qvalued.cli import main
from qvalued.grids import BOUNDARY, GridFunction, OUTSIDE, disk_mask, empty_grid
from qvalued.qspace import QTuple


# the history and stdout of `qv solve` on the problem of tests/data/solve_p2_n16.json
HISTORY_P2_N16 = ("iteration,total_energy\n0,20.020841989658752\n1,6.122382218610829\n"
                  "2,6.122382218610829\n")
STDOUT_P2_N16 = '{"energy": 6.122382218610829, "iterations": 2, "converged": true}\n'


def write(path, text):
    path.write_text(text)
    return str(path)


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
    @pytest.mark.parametrize("field,value", [("x", {"a": 1}), ("value", {"a": 1})])
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

    @pytest.mark.parametrize("field,value", [("depth", 4.7), ("depth", -1),
                                             ("box", "unit"), ("box", [[0.0, 1.0]])])
    def test_bad_whitney_field_named(self, tmp_path, capsys, field, value):
        obj = {"box": [[0.0, 1.0], [0.0, 1.0]], "depth": 4,
               "data": [{"x": [0.5, 0.5], "value": [[0.0]]}]}
        obj[field] = value
        data = write(tmp_path / "w.json", json.dumps(obj))
        q = write(tmp_path / "q.csv", "0.2,0.2\n")
        assert main(["extend", "whitney", "--in", data, "--query", q]) == 1
        assert f"'{field}'" in capsys.readouterr().err

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
        real = extend._cone_plan_many
        monkeypatch.setattr(extend, "_cone_plan_many",
                            lambda stack: plans.append(1) or real(stack))
        data = write(tmp_path / "w.json", json.dumps(
            {"box": [[0.0, 1.0], [0.0, 1.0]], "depth": 4,
             "data": [{"x": [0.2, 0.3], "value": [[0.0]]}, {"x": [0.7, 0.6], "value": [[1.0]]}]}))
        q = write(tmp_path / "q.csv", f"0.1,0.2\n0.5,0.5\n{bad}\n0.9,0.9\n5,5\n")
        out = tmp_path / "vals.json"
        assert main(["extend", "whitney", "--in", data, "--query", q, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "row 3 of" in captured.err and "q.csv" in captured.err and named in captured.err
        assert captured.out == "" and not out.exists() and plans == []

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
        real = extend._cone_plan
        monkeypatch.setattr(extend, "_cone_plan", lambda vals: plans.append(1) or real(vals))
        q = write(tmp_path / "q.csv", "0.1,0.2\n0.0,0.0\n-0.3,0.5\n")
        assert main(["extend", "cone", "--in", self.cone_file(tmp_path), "--query", q]) == 0
        assert len(plans) == 1

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

    def test_plane(self, tmp_path):
        g = empty_grid(2, 1, 1, 7)
        g.values[g.mask != OUTSIDE] = [[2.0]]
        infile = write(tmp_path / "g.json", g.to_json())
        out = str(tmp_path / "plane.json")
        assert main(["extend", "plane", "--in", infile, "--out", out]) == 0
        result = GridFunction.from_json(open(out).read())
        assert result.shape[0] > g.shape[0]


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

    def test_curve_spec_boundary(self, tmp_path, capsys):
        curve = [
            {
                "x": [math.cos(t), math.sin(t)],
                "value": [[math.cos(t / 2), math.sin(t / 2)],
                          [-math.cos(t / 2), -math.sin(t / 2)]],
            }
            for t in np.linspace(0, 2 * math.pi, 64, endpoint=False)
        ]
        b = write(tmp_path / "sqrt2.json",
                  json.dumps({"domain": "disk", "Q": 2, "n": 2, "curve": curve}))
        sol_path = str(tmp_path / "sol.json")
        assert main(["solve", "--boundary", b, "--grid", "16", "--p", "2",
                     "--restarts", "1", "--out", sol_path]) == 0
        sol = GridFunction.from_json(open(sol_path).read())
        assert sol.Q == 2 and sol.n == 2
        status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert status["converged"]

    def test_disk_sqrt_p2_matches_golden_file(self, tmp_path, capsys):
        # the N = 16 disk with the two branches of the complex square root on its boundary
        grid = empty_grid(2, 2, 2, 16, disk_mask(16))
        for idx in grid.nodes(kinds=(BOUNDARY,)):
            x = grid.node_coords(idx)
            t = math.atan2(x[1], x[0]) / 2.0
            grid.values[idx] = [[math.cos(t), math.sin(t)], [-math.cos(t), -math.sin(t)]]
        b = write(tmp_path / "b.json", grid.to_json())
        sol, hist = tmp_path / "sol.json", tmp_path / "hist.csv"
        assert main(["solve", "--boundary", b, "--p", "2", "--out", str(sol),
                     "--history", str(hist)]) == 0
        golden = pathlib.Path(__file__).parent / "data" / "solve_p2_n16.json"
        assert sol.read_text() == golden.read_text()
        assert hist.read_text() == HISTORY_P2_N16
        assert capsys.readouterr().out == STDOUT_P2_N16

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

    def test_curve_spec_requires_grid(self, tmp_path):
        b = write(tmp_path / "b.json",
                  json.dumps({"domain": "disk", "Q": 1, "n": 1,
                              "curve": [{"x": [1.0, 0.0], "value": [[0.0]]}]}))
        assert main(["solve", "--boundary", b]) == 1

    @pytest.mark.parametrize("flag,value,field", [
        ("--tol", "-1", "tol"), ("--tol", "0", "tol"), ("--tol", "nan", "tol"),
        ("--tol", "inf", "tol"), ("--restarts", "0", "restarts"),
        ("--restarts", "-3", "restarts"),
    ])
    def test_bad_tol_or_restarts_named(self, tmp_path, capsys, flag, value, field):
        b = write(tmp_path / "b.json", empty_grid(2, 1, 1, 5).to_json())
        assert main(["solve", "--boundary", b, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must ")
        assert captured.out == ""

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
