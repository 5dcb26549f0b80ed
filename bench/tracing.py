"""Spans around calls into each ``qvalued`` module, recorded from outside.

``Tracer.installed()`` wraps the public functions listed in ``TARGETS`` by
rebinding each name in every ``qvalued.*`` module that holds it (and in
module-level tuples of functions, such as the list of verify checks), and
wraps methods on their classes.  Leaving the block restores every binding.
Private helpers are not wrapped, so their time is the self time of the
public function that called them.

A span is ``[name, start, end, parent, op, busy]`` with ``parent`` the index
of the enclosing span (-1 at the root) and ``busy`` its duration.  A
generator (``GridFunction.nodes``/``edges``) gets one span per caller whose
``busy`` is the time spent inside ``next()``, from the first to the last
step taken under that caller.  Self time is ``busy`` minus the ``busy`` of
the direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute path, how to wrap)
TARGETS = (
    ("cli.main", "qvalued.cli", "main", "call"),
    ("grids.GridFunction.to_json", "qvalued.grids", "GridFunction.to_json", "call"),
    ("grids.GridFunction.from_json", "qvalued.grids", "GridFunction.from_json", "classmethod"),
    ("grids.GridFunction.nodes", "qvalued.grids", "GridFunction.nodes", "generator"),
    ("grids.GridFunction.edges", "qvalued.grids", "GridFunction.edges", "generator"),
    ("energy.solve_dirichlet", "qvalued.energy", "solve_dirichlet", "call"),
    ("energy.discrete_energy", "qvalued.energy", "discrete_energy", "call"),
    ("qspace.dist", "qvalued.qspace", "dist", "dist"),
    ("qspace.split_distance", "qvalued.qspace", "split_distance", "call"),
    ("qspace.QTuple.__init__", "qvalued.qspace", "QTuple.__init__", "count"),
    ("extend.WhitneyExtension.__init__", "qvalued.extend", "WhitneyExtension.__init__", "call"),
    ("extend.WhitneyExtension.evaluate", "qvalued.extend", "WhitneyExtension.evaluate", "call"),
    ("embed.build_frame", "qvalued.embed", "build_frame", "call"),
    ("embed.xi", "qvalued.embed", "xi", "call"),
    ("embed.xi_isometry_radius", "qvalued.embed", "xi_isometry_radius", "call"),
    ("embed.zeta_dual_gap", "qvalued.embed", "zeta_dual_gap", "call"),
    ("verify.check_metric_equivalence", "qvalued.verify", "check_metric_equivalence", "call"),
    ("verify.check_splitting_lemma", "qvalued.verify", "check_splitting_lemma", "call"),
    ("verify.check_xi", "qvalued.verify", "check_xi", "call"),
    ("verify.check_sqrt_Q_bound", "qvalued.verify", "check_sqrt_Q_bound", "call"),
    ("verify.check_poincare", "qvalued.verify", "check_poincare", "call"),
    ("verify.check_zeta_bounds", "qvalued.verify", "check_zeta_bounds", "call"),
    ("scipy.linear_sum_assignment", "scipy.optimize", "linear_sum_assignment", "call"),
    ("scipy.splu", "scipy.sparse.linalg", "splu", "call"),
)

DIST_KINDS = ("g1", "g2", "ginf")


def span_names() -> list:
    """Names of every span the tracer can record, in report order."""
    names = []
    for name, _, _, how in TARGETS:
        if how == "count":
            continue
        names.append(name)
        if how == "dist":
            names += [f"{name}.{kind}" for kind in DIST_KINDS]
    return names


def qvalued_modules() -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "qvalued" or key.startswith("qvalued."))]


class Tracer:
    """Spans and counts of the ops run while wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, namer=None, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[1], rec[2], rec[5] = t0, t1, t1 - t0
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._steps(name, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _steps(self, name, it):
        spans, stack = self.spans, self._stack
        per_parent = {}
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
                finished = False
            except StopIteration:
                finished = True
            t1 = perf_counter()
            parent = stack[-1] if stack else -1
            rec = per_parent.get(parent)
            if rec is None:
                rec = per_parent[parent] = [name, t0, t1, parent, self.op, 0.0]
                spans.append(rec)
            rec[2] = t1
            rec[5] += t1 - t0
            if finished:
                return
            yield item

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _solve_counts(self, args, result):
        grid = args[1]
        _, report, _ = result
        self.counts["energy.outer_iterations"] += report.iterations
        self.counts["energy.edges"] += len(report.per_edge)
        self.counts["energy.unknowns"] += int((grid.mask == 0).sum()) * grid.Q

    # -- installing --------------------------------------------------------

    def _wrapper_for(self, name, how, fn):
        if how == "generator":
            return self._generator(name, fn)
        if how == "count":
            return self._count(name, fn)
        if how == "dist":
            def namer(args, kwargs):
                kind = args[2] if len(args) > 2 else kwargs.get("kind")
                return f"{name}.{kind.value}" if kind is not None else f"{name}.g2"
            return self._call(name, fn, namer=namer)
        on_result = self._solve_counts if name == "energy.solve_dirichlet" else None
        return self._call(name, fn, on_result=on_result)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target; ``remove`` undoes it."""
        if self._undo:
            raise RuntimeError("wrappers are already installed")
        modules = qvalued_modules()
        for name, modname, path, how in TARGETS:
            owner = importlib.import_module(modname)
            if "." in path:  # a method: wrap it once on its class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if how == "classmethod":
                    self._set(cls, attr, classmethod(self._wrapper_for(name, "call", raw.__func__)))
                else:
                    self._set(cls, attr, self._wrapper_for(name, how, raw))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrapper_for(name, how, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)
                    elif type(value) is tuple and any(v is fn for v in value):
                        self._set(mod, attr, tuple(wrapped if v is fn else v for v in value))

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, op: int):
        """Record the spans of op ``op`` inside the block."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.remove()
            self.op = -1

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict:
        """``{name: [calls, total_s, self_s]}`` over all recorded spans."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[5]
        out = {name: [0, 0.0, 0.0] for name in span_names()}
        for i, (name, _, _, _, _, busy) in enumerate(self.spans):
            keys = [name]
            if name.startswith("qspace.dist."):
                keys.append("qspace.dist")
            for key in keys:
                acc = out[key]
                acc[0] += 1
                acc[1] += busy
                acc[2] += busy - child[i]
        return out

    def durations(self, name: str) -> list:
        return [rec[5] for rec in self.spans if rec[0] == name]

    def write(self, path: str):
        """Write every span as gzipped CSV: op,name,start,end,parent,busy."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,start,end,parent,busy\n")
            for name, start, end, parent, op, busy in self.spans:
                fh.write(f"{op},{name},{start!r},{end!r},{parent},{busy!r}\n")
