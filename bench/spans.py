"""Timing wrappers around the public functions of each hrpairs module.

``install(tracer)`` replaces every module attribute in the ``hrpairs``
package that binds one of the traced functions -- including the copies
made by ``from .linalg import ...`` in other modules -- and the
``RingModel._multiply`` and ``TorusModel.from_form`` methods on their
classes, and returns a function that puts the originals back.

A span is (name, start, end, parent span, operation id), kept in memory and
written out once at the end of a run.  Work counts are taken from the call
arguments at the same boundaries.
"""

import functools
import gzip
import json
import statistics
import sys
import time
from array import array

_now = time.perf_counter_ns

# (module, attribute, layer name)
FUNCTIONS = [
    ("exterior", "wedge", "exterior.wedge"),
    ("exterior", "integrate_top", "exterior.integrate_top"),
    ("symfunc", "evaluate", "symfunc.evaluate"),
    ("symfunc", "schur", "symfunc.schur"),
    ("symfunc", "derived", "symfunc.derived"),
    ("ring", "torus_ring", "ring.build.torus_ring"),
    ("ring", "subring", "ring.build.subring"),
    ("ring", "ring_from_spec", "ring.build.ring_from_spec"),
    ("hrcheck", "gram", "hrcheck.gram"),
    ("hrcheck", "divide", "hrcheck.divide"),
    ("hrcheck", "signature", "hrcheck.signature"),
    ("hrcheck", "is_hr_pair", "hrcheck.is_hr_pair"),
    ("hrcheck", "pointwise_hr_pair", "hrcheck.pointwise_hr_pair"),
    ("hrcheck", "schur_form_pair", "hrcheck.schur_form_pair"),
    ("hrcheck", "pos_cone_contains", "hrcheck.pos_cone_contains"),
    ("linalg", "rational_inertia", "linalg.rational_inertia"),
    ("linalg", "rational_solve", "linalg.rational_solve"),
    ("linalg", "rational_nullspace", "linalg.rational_nullspace"),
    ("linalg", "float_signature", "linalg.float_signature"),
    ("linalg", "float_solve", "linalg.float_solve"),
    ("bogomolov", "constraint_project", "bogomolov.constraint_project"),
    ("bogomolov", "trace_check", "bogomolov.trace_check"),
    ("bogomolov", "higgs_curvature_term", "bogomolov.higgs_curvature_term"),
]
# (module, class, method, layer name); _multiply picks its name per call
METHODS = [
    ("ring", "RingModel", "_multiply", None),
    ("ring", "TorusModel", "from_form", "ring.from_form"),
]
MULTIPLY = ("ring.multiply_exact", "ring.multiply_float")
LAYERS = [name for *_, name in FUNCTIONS] + ["ring.from_form", *MULTIPLY]
# layers that workload set-up runs in-process (model construction)
SETUP_LAYERS = ["exterior.wedge", "exterior.integrate_top", "ring.multiply_exact",
                "ring.from_form", "ring.build.torus_ring", "ring.build.subring",
                "ring.build.ring_from_spec"]
# counters summed over calls, except those ending in MAX_SUFFIX (maximum)
COUNTERS = [
    "exterior.wedge.term_pairs",
    *(f"{m}.{c}" for m in MULTIPLY for c in ("pairs_visited", "pairs_nonzero")),
    "linalg.rational_inertia.n_max",
    "hrcheck.verdicts.pass",
    "hrcheck.verdicts.fail",
    "hrcheck.verdicts.degenerate",
]
MAX_SUFFIX = ".n_max"


class Tracer:
    """Spans and counters of one process, in memory."""

    def __init__(self):
        self.recording = False
        self.op = -1  # operation id; -1 is set-up
        self.names = []
        self._ids = {}
        self.span_name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.span_op = array("l")
        self._open = []
        self._op_span = None
        self.counts = {}  # (counter, op) -> value

    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name):
        i = len(self.start)
        self.span_name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.span_op.append(self.op)
        self.end.append(0)
        self._open.append(i)
        self.start.append(_now())
        return i

    def exit(self, i):
        self.end[i] = _now()
        self._open.pop()

    def add(self, counter, value):
        key = (counter, self.op)
        if counter.endswith(MAX_SUFFIX):
            self.counts[key] = max(self.counts.get(key, 0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self, op):
        self.op = op
        self.recording = True
        self._op_span = self.enter("op")

    def end_op(self):
        self.exit(self._op_span)
        self.recording = False

    def dump_child(self, path):
        """Write this (child) process's spans for the parent to merge."""
        spans = [list(s) for s in zip(self.span_name, self.start, self.end, self.parent)]
        data = {"names": self.names, "spans": spans,
                "counts": [[c, v] for (c, _), v in self.counts.items()]}
        with open(path, "w") as fh:
            json.dump(data, fh)

    def merge_child(self, path):
        """Adopt a child's spans under the open span, as part of this operation."""
        with open(path) as fh:
            data = json.load(fh)
        ids = [self._name_id(n) for n in data["names"]]
        base = len(self.start)
        root = self._open[-1] if self._open else -1
        for name, start, end, parent in data["spans"]:
            self.span_name.append(ids[name])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(base + parent if parent >= 0 else root)
            self.span_op.append(self.op)
        for counter, value in data["counts"]:
            self.add(counter, value)

    def write(self, path):
        """All spans as gzipped JSON lines: a header with the names, then
        [name, start_ns, end_ns, parent, op] per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.span_name, self.start, self.end, self.parent, self.span_op):
                fh.write(json.dumps(row) + "\n")

    def layer_table(self, cycle_len):
        """Per-layer figures for one cycle of the workload, and for set-up.

        Calls and work counters are exact totals over cycle 0.  A self time
        is the median, over the traced cycles, of the layer's self time in
        one cycle; self time is a span's duration minus the time its child
        spans cover.  For the layers in SETUP_LAYERS, set-up calls and set-up
        self time are reported too.
        """
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        cycles = 1 + max((op // cycle_len for op in self.span_op), default=0)
        self_ns = {}  # (name, cycle) -> ns; cycle -1 is set-up
        calls = {}  # (name, cycle) -> count, for set-up and cycle 0
        cycle_ns = [0] * cycles  # operation time per cycle
        for i in range(n):
            name = self.names[self.span_name[i]]
            op = self.span_op[i]
            key = (name, op // cycle_len if op >= 0 else -1)
            if op >= 0 and self.parent[i] == -1:
                cycle_ns[key[1]] += self.end[i] - self.start[i]
            self_ns[key] = self_ns.get(key, 0) + (self.end[i] - self.start[i]) - child[i]
            if key[1] <= 0:
                calls[key] = calls.get(key, 0) + 1
        out = {}
        for name in LAYERS:
            per_cycle = [self_ns.get((name, c), 0) for c in range(cycles)]
            out[f"{name}.calls"] = calls.get((name, 0), 0)
            out[f"{name}.self_s"] = statistics.median(per_cycle) / 1e9
        for name in SETUP_LAYERS:
            out[f"{name}.setup_calls"] = calls.get((name, -1), 0)
            out[f"{name}.setup_self_s"] = self_ns.get((name, -1), 0) / 1e9
        for counter in COUNTERS:
            out[counter] = 0
        for (counter, op), value in self.counts.items():
            if 0 <= op < cycle_len:
                if counter.endswith(MAX_SUFFIX):
                    out[counter] = max(out[counter], value)
                else:
                    out[counter] += value
        for m in MULTIPLY:
            visited = out[f"{m}.pairs_visited"]
            out[f"{m}.nonzero_ratio"] = out[f"{m}.pairs_nonzero"] / visited if visited else 0.0
        out["trace.cycle_s"] = statistics.median(cycle_ns) / 1e9
        return out


# -- wrappers --------------------------------------------------------------


def _wedge(tracer, args):
    x, y = args[:2]
    tracer.add("exterior.wedge.term_pairs", len(x.coeffs) * len(y.coeffs))
    return "exterior.wedge"


def _multiply(tracer, args):
    _, x, y = args[:3]
    name = MULTIPLY[0] if x.is_exact() and y.is_exact() else MULTIPLY[1]
    if x.degree + y.degree <= x.model.dimension:  # otherwise it returns at once
        nnz_x = sum(1 for c in x.coeffs if c != 0)
        nnz_y = sum(1 for c in y.coeffs if c != 0)
        tracer.add(f"{name}.pairs_visited", len(x.coeffs) * len(y.coeffs))
        tracer.add(f"{name}.pairs_nonzero", nnz_x * nnz_y)
    return name


def _inertia(tracer, args):
    tracer.add("linalg.rational_inertia.n_max", len(args[0]))
    return "linalg.rational_inertia"


def _verdict(tracer, verdict):
    tracer.add(f"hrcheck.verdicts.{verdict.outcome}", 1)


_BEFORE = {"exterior.wedge": _wedge, "linalg.rational_inertia": _inertia}
_AFTER = {"hrcheck.is_hr_pair": _verdict, "hrcheck.pos_cone_contains": _verdict}


def _wrap(tracer, fn, name, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        span = tracer.enter(before(tracer, args) if before else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after:
            after(tracer, result)
        return result

    return traced


def install(tracer):
    """Wrap every traced function and method of the imported hrpairs modules.

    Returns a function that puts the originals back.
    """
    replaced = []  # (owner, attribute, original)
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "hrpairs" or k.startswith("hrpairs."))]
    for mod, attr, name in FUNCTIONS:
        original = getattr(sys.modules[f"hrpairs.{mod}"], attr)
        wrapper = _wrap(tracer, original, name, _BEFORE.get(name), _AFTER.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    replaced.append((m, key, value))
                    setattr(m, key, wrapper)
    for mod, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[f"hrpairs.{mod}"], cls_name)
        original = cls.__dict__[attr]
        replaced.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, original, name, _multiply if name is None else None))

    def restore():
        while replaced:
            owner, attr, original = replaced.pop()
            setattr(owner, attr, original)

    return restore
