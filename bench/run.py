"""Benchmark of the ``qv`` command-line tool, one workload per run.

    python3 bench/run.py --workload solve_p2 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Ops are ``qv`` commands run one at a time (a closed loop with
one client) in this process through ``qvalued.cli.main``, on inputs
generated from the seed.  Every output is checked, and the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, with times rescaled
to a reference machine speed (``pace.py``).  With ``--trace 1``
each input runs twice, once plain and once with spans recorded around the
calls into each module, and the metrics are the per-layer ones.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from pace import Pace
from tracing import Tracer, span_names
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5

# the child samples its own speed: the parent waits on another CPU meanwhile
IMPORT_PROBE = (
    "import importlib, sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "from pace import Pace\n"
    "with Pace() as pace:\n"
    "    print(repr(pace.time_at_reference(lambda: importlib.import_module('qvalued.cli'))))\n"
)

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# per-op counts kept by the tracer, reported under these names
COUNTS = {
    "qspace.QTuple.__init__.calls": "qspace.QTuple.__init__",
    "energy.outer_iterations": "energy.outer_iterations",
    "energy.edges": "energy.edges",
    "energy.unknowns": "energy.unknowns",
}


def per_layer_units() -> dict:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["energy.final_energy"] = "energy"
    units["extend.query_ms_p50"] = "ms"
    units["extend.query_ms_p95"] = "ms"
    units["trace.overhead"] = "frac"
    return units


def import_cli():
    if not (SRC / "qvalued" / "__init__.py").is_file():
        sys.exit(f"error: no qvalued package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qvalued.cli

    return qvalued.cli


@dataclass
class Op:
    seconds: float
    problems: list
    digest: str
    energy: float = None
    start: float = 0.0


def run_op(cli, workload, inputs: dict, outdir: str, tracer: Tracer = None,
           op_id: int = 0) -> Op:
    """Run one command; only the ``cli.main`` call is timed."""
    os.makedirs(outdir)
    argv = workload.argv(inputs, outdir)
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    tracing = tracer.installed(op_id) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracing:
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the loop must go on; the op counts as failed
            error = traceback.format_exc()
        seconds = perf_counter() - t0
    energy = None
    if error is not None:
        problems = [f"raised {error.strip().splitlines()[-1]}"]
    elif code != 0:
        problems = [f"exit code {code}: {err.getvalue().strip()[-300:]}"]
    else:
        try:
            problems, energy = workload.check(inputs, outdir, out.getvalue())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    digest = hashlib.sha256(out.getvalue().encode())
    for name in sorted(os.listdir(outdir)):
        digest.update(name.encode())
        digest.update(Path(outdir, name).read_bytes())
    shutil.rmtree(outdir)
    return Op(seconds, problems, digest.hexdigest(), energy, t0)


def measure_setup(workload, seed: int, workdir: str, pace: Pace) -> float:
    """Median over SETUP_REPS of a fresh interpreter's ``import qvalued``
    plus generating the first op's inputs, at reference speed."""
    samples = []
    for rep in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
                               capture_output=True, text=True, timeout=120, check=True)
        import_s = float(child.stdout.split()[-1])
        d = os.path.join(workdir, f"setup{rep}")
        os.makedirs(d)
        prepare_s = pace.time_at_reference(lambda: workload.prepare(seed, 0, d))
        shutil.rmtree(d)
        samples.append(import_s + prepare_s)
    return statistics.median(samples)


def op_indices(seconds: float):
    """0, 1, 2, ... while the next op is expected to end within ``seconds``."""
    start = perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return


def plain_run(cli, workload, seed: int, seconds: float, workdir: str):
    ops, iterations = [], []
    with Pace() as pace:
        setup_s = measure_setup(workload, seed, workdir, pace)
        for k in op_indices(seconds):
            t0 = perf_counter()
            opdir = os.path.join(workdir, f"op{k}")
            os.makedirs(opdir)
            inputs = workload.prepare(seed, k, opdir)
            ops.append(run_op(cli, workload, inputs, os.path.join(opdir, "out")))
            shutil.rmtree(opdir)
            iterations.append((t0, perf_counter()))
    op_s = [pace.at_reference(pace.own_seconds(op.start, op.start + op.seconds),
                              op.start, op.start + op.seconds) for op in ops]
    # input generation and output checks are part of the loop's time
    loop_s = sum(pace.at_reference(pace.own_seconds(t0, t1), t0, t1)
                 for t0, t1 in iterations)
    print(f"wall op_s_p50 {statistics.median(op.seconds for op in ops):.6g} s, "
          f"median reference pass {statistics.median(d for _, d in pace.ticks) * 1e3:.4g} ms")
    failed = sum(1 for op in ops if op.problems)
    values = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(op_s),
        "ops_per_s": (len(ops) - failed) / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(ops) - failed) / len(ops),
    }
    return ops, {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(cli, workload, seed: int, seconds: float, workdir: str):
    tracer = Tracer()
    pairs = []
    for k in op_indices(seconds):
        opdir = os.path.join(workdir, f"op{k}")
        os.makedirs(opdir)
        inputs = workload.prepare(seed, k, opdir)
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            pair[traced] = run_op(cli, workload, inputs,
                                  os.path.join(opdir, f"out{int(traced)}"),
                                  tracer if traced else None, k)
        if pair[True].digest != pair[False].digest:
            pair[True].problems.append("traced outputs differ from untraced outputs")
        pairs.append((pair[False], pair[True]))
        shutil.rmtree(opdir)
    tracer.write(str(OUT / f"spans-{workload.name}-seed{seed}.csv.gz"))

    n = len(pairs)
    values = {}
    for name, (calls, total, self_s) in tracer.totals().items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.total_s"] = total / n
        values[f"{name}.self_s"] = self_s / n
    for name, key in COUNTS.items():
        values[name] = tracer.counts[key] / n
    energies = [op.energy for pair in pairs for op in pair if op.energy is not None]
    values["energy.final_energy"] = statistics.median(energies) if energies else 0.0
    queries = tracer.durations("extend.WhitneyExtension.evaluate")
    q50, q95 = np.percentile(queries, [50, 95]) * 1e3 if queries else (0.0, 0.0)
    values["extend.query_ms_p50"] = float(q50)
    values["extend.query_ms_p95"] = float(q95)
    # per-pair ratios, so that the first op's one-off costs cancel
    values["trace.overhead"] = statistics.median(
        t.seconds / p.seconds for p, t in pairs) - 1.0
    ops = [op for pair in pairs for op in pair]
    return ops, {name: (values[name], unit) for name, unit in per_layer_units().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = traced_run if args.trace else plain_run
        ops, metrics = run(cli, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)

    failed = [op for op in ops if op.problems]
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {i} failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
