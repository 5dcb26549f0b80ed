"""Tests of the benchmark itself: generators, output checks, tracing, metric names.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import qvalued.cli  # noqa: E402
from qvalued.energy import discrete_energy  # noqa: E402
from qvalued.grids import GridFunction, disk_mask as program_disk_mask  # noqa: E402

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Corrupting:
    """Runs the real ``qv`` command, then edits one of its output files."""

    def __init__(self, filename, edit):
        self.filename = filename
        self.edit = edit

    def main(self, argv):
        code = qvalued.cli.main(argv)
        path = os.path.join(os.path.dirname(argv[argv.index("--out") + 1]), self.filename)
        with open(path) as fh:
            obj = json.load(fh)
        self.edit(obj)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return code


def run_one(workload, tmp_path, cli=qvalued.cli, tracer=None, k=0, **extra):
    opdir = tmp_path / f"op{k}"
    opdir.mkdir()
    inputs = workload.prepare(3, k, str(opdir))
    inputs.update(extra)
    return run.run_op(cli, workload, inputs, str(opdir / "out"), tracer, k)


SMALL_SOLVE = workloads.Solve("solve_small", N=10, p=2.0, restarts=1, ref_energy=math.inf,
                              ref_rtol=1e-8)
SMALL_WHITNEY = workloads.Whitney(L=6, depth=4, queries=20, on_samples=2)


def test_disk_mask_matches_program():
    for N in (10, 16, 64):
        assert np.array_equal(workloads.disk_mask(N), program_disk_mask(N))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_q2_energy_matches_program(p):
    N = 12
    mask = workloads.disk_mask(N)
    values = np.random.default_rng(0).uniform(-1, 1, (N, N, 2, 2))
    f = GridFunction(2, 2, 2, (N, N), 2.0 / (N - 1), mask, values)
    expect = discrete_energy(f, p).total
    assert workloads.q2_energy(values, mask, f.h, p) == pytest.approx(expect, rel=1e-12)


def test_same_seed_same_inputs(tmp_path):
    a = SMALL_WHITNEY.prepare(5, 1, str(tmp_path))
    text = Path(a["query"]).read_text()
    b = SMALL_WHITNEY.prepare(5, 1, str(tmp_path))
    assert Path(b["query"]).read_text() == text
    c = SMALL_WHITNEY.prepare(5, 2, str(tmp_path))
    assert Path(c["query"]).read_text() != text


def test_solve_passes_and_counts_a_moved_boundary_value(tmp_path):
    assert run_one(SMALL_SOLVE, tmp_path).problems == []

    def move_boundary(obj):
        mask = np.array(obj["mask"])
        i = int(np.flatnonzero(mask == workloads.BOUNDARY)[0])
        obj["values"][i][0][0] += 1e-9

    op = run_one(SMALL_SOLVE, tmp_path, Corrupting("solution.json", move_boundary), k=1)
    assert any("boundary values differ" in p for p in op.problems)


def test_solve_counts_an_energy_above_the_reference(tmp_path):
    strict = workloads.Solve("solve_strict", N=10, p=2.0, restarts=1, ref_energy=0.0,
                             ref_rtol=1e-8)
    op = run_one(strict, tmp_path)
    assert any("above the reference" in p for p in op.problems)


def test_whitney_passes_and_counts_a_point_outside_the_box(tmp_path):
    assert run_one(SMALL_WHITNEY, tmp_path).problems == []

    def push_out(obj):
        obj[0][0][0] = 10.0

    op = run_one(SMALL_WHITNEY, tmp_path, Corrupting("values.json", push_out), k=1)
    assert any("outside the samples' bounding box" in p for p in op.problems)


def test_whitney_counts_a_changed_sample_value(tmp_path):
    inputs = SMALL_WHITNEY.prepare(3, 0, str(tmp_path))
    row = int(inputs["rows"][0])

    def nudge(obj):
        obj[row][0][0] = obj[row][0][0] * 0.5

    opdir = tmp_path / "out"
    op = run.run_op(Corrupting("values.json", nudge), SMALL_WHITNEY, inputs, str(opdir))
    assert any("sample locations" in p for p in op.problems)


def test_verify_counts_a_failing_check(tmp_path):
    verify = workloads.Verify()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 5}))
    assert run_one(verify, tmp_path, config=str(config)).problems == []
    config.write_text(json.dumps({"trials": 5, "tolerances": {"poincare_c": 0}}))
    op = run_one(verify, tmp_path, k=1, config=str(config))
    assert op.problems and "exit code 1" in op.problems[0]


def _bindings():
    seen = {}
    for mod in tracing.qvalued_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("qvalued"):
                for cattr, cvalue in vars(value).items():
                    seen[(mod.__name__, attr, cattr)] = cvalue
    return seen


def test_install_and_remove_restore_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        for key in [("qvalued.verify", "dist"), ("qvalued.cli", "dist"),
                    ("qvalued.energy", "splu"), ("qvalued.qspace", "linear_sum_assignment"),
                    ("qvalued.verify", "_ALL_CHECKS"),
                    ("qvalued.grids", "GridFunction", "from_json")]:
            assert key in changed
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_op_matches_plain_op_and_nests_spans(tmp_path):
    tracer = tracing.Tracer()
    inputs = SMALL_WHITNEY.prepare(3, 0, str(tmp_path))
    plain = run.run_op(qvalued.cli, SMALL_WHITNEY, inputs, str(tmp_path / "a"))
    traced = run.run_op(qvalued.cli, SMALL_WHITNEY, inputs, str(tmp_path / "b"), tracer, 0)
    assert plain.problems == [] and traced.problems == []
    assert plain.digest == traced.digest
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1
    assert totals["extend.WhitneyExtension.evaluate"][0] == SMALL_WHITNEY.queries
    assert totals["qspace.dist"][0] == totals["qspace.dist.ginf"][0] > 0
    assert tracer.counts["qspace.QTuple.__init__"] > 0
    for calls, total, self_s in totals.values():
        assert 0.0 <= self_s <= total + 1e-9
    root = totals["cli.main"][1]
    assert sum(v[2] for k, v in totals.items() if k != "qspace.dist") == pytest.approx(root)
    # the root span covers the whole timed op
    assert traced.seconds - 1e-3 <= root <= traced.seconds


def test_pace_rescales_to_reference_speed():
    p = pace.Pace()
    half = 2.0 * pace.REF_PASS_S
    p.ticks = [(1.0, half), (1.5, half), (2.0, half), (9.0, pace.REF_PASS_S)]
    assert p.own_seconds(0.5, 2.5) == pytest.approx(2.0 - 3 * half)
    assert p.at_reference(1.0, 0.5, 2.5) == pytest.approx(0.5)
    # a span with too few passes inside takes the nearest ones
    assert p.pass_seconds(1.6, 1.7) == half


def test_pace_samples_while_entered_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as p:
        t0 = perf_counter()
        while perf_counter() - t0 < 3.5 * pace.INTERVAL_S:
            pass
        n = len(p.ticks)
        assert p.time_at_reference(lambda: None) >= 0.0
        assert len(p.ticks) >= n + 2 * pace.MIN_PASSES
    assert n >= 2
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _printed(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, "extend_whitney", SMALL_WHITNEY)
    assert run.main(["--workload", "extend_whitney", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_printed_metrics_match_benchmark_json(monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _printed(monkeypatch, capsys, 0) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert _printed(monkeypatch, capsys, 1) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve_p2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
