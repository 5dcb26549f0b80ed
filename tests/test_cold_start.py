"""Start-up cost of ``qv``: which scipy modules each command loads.

``scipy.optimize`` and ``scipy.sparse`` take most of a fresh interpreter's
start-up, so only the calls that use them import them; ``numpy.ma``, which
numpy loads on first use and scipy.sparse imports, is watched too.  Each
check runs in a fresh isolated interpreter (``-I``), which puts ``src`` on
its path itself, and reports which watched modules ``sys.modules`` holds
after each step.
"""

import json
import math
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
steps = json.loads(sys.argv[2])
watched = ("numpy.ma", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg")
loaded = {}
import qvalued.cli
loaded["import"] = [m for m in watched if m in sys.modules]
for name, argv in steps:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = qvalued.cli.main(argv)
    loaded[name] = [code] + [m for m in watched if m in sys.modules]
print(json.dumps(loaded))
"""


def loaded_after(steps):
    """Run ``steps``, a list of ``(name, argv)``, through ``cli.main`` in a
    fresh interpreter; map each step to its exit code followed by the
    watched modules loaded once it is done."""
    out = subprocess.run([sys.executable, "-I", "-c", SCRIPT, str(SRC), json.dumps(steps)],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out)


def test_import_extend_and_verify_load_no_scipy(tmp_path):
    data = tmp_path / "samples.json"
    data.write_text(json.dumps({
        "box": [[0.0, 1.0], [0.0, 1.0]],
        "data": [{"x": [0.1 * i, 0.3 + 0.05 * i],
                  "value": [[i, 0.0], [0.0, -i], [0.5 * i, 1.0]]} for i in range(6)],
    }))
    query = tmp_path / "queries.csv"
    query.write_text("0.9,0.9\n0.2,0.7\n0.45,0.1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5}))
    loaded = loaded_after([
        ("extend", ["extend", "whitney", "--in", str(data), "--query", str(query),
                    "--out", str(tmp_path / "values.json")]),
        ("verify", ["verify", "--config", str(cfg)]),
    ])
    assert loaded == {"import": [], "extend": [0], "verify": [0]}


def solve_loaded(tmp_path, p):
    """The watched modules loaded by a small disk ``qv solve`` at exponent ``p``."""
    curve = [{"x": [math.cos(t), math.sin(t)],
              "value": [[math.cos(t / 2)], [-math.cos(t / 2)]]}
             for t in (2 * math.pi * k / 32 for k in range(32))]
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps({"domain": "disk", "Q": 2, "n": 1, "curve": curve}))
    return loaded_after([
        ("solve", ["solve", "--boundary", str(boundary), "--grid", "8", "--p", p,
                   "--restarts", "1", "--out", str(tmp_path / "solution.json")]),
    ])


def test_p2_solve_loads_sparse_but_not_optimize(tmp_path):
    assert solve_loaded(tmp_path, "2") == {
        "import": [], "solve": [0, "numpy.ma", "scipy.sparse", "scipy.sparse.linalg"]}


def test_p3_solve_loads_sparse_but_not_optimize(tmp_path):
    # the line search finds its root with energy._brent, not scipy's brentq
    assert solve_loaded(tmp_path, "3") == {
        "import": [], "solve": [0, "numpy.ma", "scipy.sparse", "scipy.sparse.linalg"]}


def test_ginf_dist_loads_optimize_only_above_q5(tmp_path):
    # up to Q = 5 the kernel scores every permutation; above, it runs Hungarian solves
    steps = []
    for Q in (5, 6):
        a, b = tmp_path / f"a{Q}.json", tmp_path / f"b{Q}.json"
        a.write_text(json.dumps([[i, 0.5 * i] for i in range(Q)]))
        b.write_text(json.dumps([[Q - i, 1.0] for i in range(Q)]))
        steps.append((f"Q={Q}", ["dist", "--kind", "ginf", "--a", str(a), "--b", str(b)]))
    # scipy.optimize imports scipy.sparse itself
    assert loaded_after(steps) == {
        "import": [], "Q=5": [0],
        "Q=6": [0, "numpy.ma", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg"],
    }
