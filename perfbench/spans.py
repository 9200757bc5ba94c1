"""In-memory spans around calls into densem, and the per-layer metrics from them.

Only the benchmark's own code is instrumented: ``instrument`` replaces
public densem functions and methods with timing wrappers in every loaded
densem module, so calls between modules are seen as well. Spans are kept
in memory as lists ``[id, name, start_ns, end_ns, parent_id, op_id, note]``
and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

# Span name -> the public callables it covers, as "module:attr" or
# "module:Class.method". Names missing from the code under test are skipped.
LAYERS = {
    "spectral.eigh": ["spectral:eigh"],
    "spectral.fn": [
        "spectral:mat_sqrt",
        "spectral:mat_log2",
        "spectral:support_projector",
        "spectral:kernel_projector",
    ],
    "density.construct": [
        "density:DensityMatrix.__init__",
        "density:DensityMatrix.normalized",
        "density:pure",
        "density:mixture",
    ],
    "density.fidelity": ["density:fidelity"],
    "density.relative_entropy": ["density:relative_entropy"],
    "density.supp_leq": ["density:supp_leq"],
    "density.classify": ["density:classify"],
    "pregroup.parse_type": ["pregroup:parse_type"],
    "pregroup.reduce": ["pregroup:reduce"],
    "compose.compose": ["compose:compose"],
    "lexicon.load": ["lexicon:load"],
    "lexicon.save": ["lexicon:save"],
}


def _eigh_note(args, kwargs, out):
    a = np.asarray(args[0] if args else kwargs["a"], dtype=float)
    return hash((a.shape, a.tobytes()))


def _compose_note(args, kwargs, out):
    words = args[0] if args else kwargs["words"]
    return sum(w.dm.dim ** 2 for w in words) * 8


NOTES = {
    "spectral.eigh": _eigh_note,
    "density.relative_entropy": lambda args, kwargs, out: math.isinf(out),
    "pregroup.reduce": lambda args, kwargs, out: out is None,
    "compose.compose": _compose_note,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter_ns(), None, parent, self.op, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list):
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                span[6] = note(args, kwargs, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def instrument(tracer: Tracer):
    """Route every densem reference to each LAYERS callable through a span.

    Returns a function that puts the original callables back.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "densem" or n.startswith("densem.")]
    undo = []
    for name, targets in LAYERS.items():
        for target in targets:
            module_name, attr = target.split(":")
            module = sys.modules.get(f"densem.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in vars(cls):
                    undo.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def read_spans(path, op) -> list[list]:
    """Spans a child process wrote, attributed to benchmark op ``op``."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            span[5] = op
            spans.append(span)
    return spans


PER_LAYER = [
    ("spectral.eigh.calls", "count", "lower"),
    ("spectral.eigh.self_ms", "ms", "lower"),
    ("spectral.eigh.distinct_frac", "ratio", "higher"),
    ("spectral.fn.calls", "count", "lower"),
    ("spectral.fn.self_ms", "ms", "lower"),
    ("density.construct.calls", "count", "lower"),
    ("density.construct.self_ms", "ms", "lower"),
    ("density.fidelity.calls", "count", "lower"),
    ("density.fidelity.self_ms", "ms", "lower"),
    ("density.relative_entropy.calls", "count", "lower"),
    ("density.relative_entropy.self_ms", "ms", "lower"),
    ("density.relative_entropy.infinite_frac", "ratio", "lower"),
    ("density.supp_leq.calls", "count", "lower"),
    ("density.supp_leq.self_ms", "ms", "lower"),
    ("density.classify.self_ms", "ms", "lower"),
    ("pregroup.parse_type.calls", "count", "lower"),
    ("pregroup.parse_type.self_ms", "ms", "lower"),
    ("pregroup.reduce.calls", "count", "lower"),
    ("pregroup.reduce.self_ms", "ms", "lower"),
    ("pregroup.reduce.none_frac", "ratio", "lower"),
    ("compose.compose.calls", "count", "lower"),
    ("compose.compose.self_ms", "ms", "lower"),
    ("compose.compose.operand_mb", "MB", "lower"),
    ("lexicon.load.self_ms", "ms", "lower"),
    ("lexicon.save.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command.self_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_metrics(processes, n_ops: int, traced_s: float, untraced_s: float) -> dict:
    """Per-op means of calls and self time per span name, plus trace health.

    ``processes`` holds one span list per process; a span's id is its index
    in its list. Spans named ``op`` are the benchmark's op boundaries. A
    layer span counts toward coverage when its parent is an op span, or
    when it has no parent because a child process recorded it.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    notes: dict[str, list] = {}
    op_ns = covered_ns = 0
    for spans in processes:
        child_ns = [0] * len(spans)
        for span in spans:
            if span[4] is not None:
                child_ns[span[4]] += span[3] - span[2]
        for span in spans:
            _, name, start, end, parent, op, note = span
            if op is None:
                continue
            if name == "op":
                op_ns += end - start
                continue
            if parent is None or spans[parent][1] == "op":
                covered_ns += end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[span[0]]
            if note is not None:
                notes.setdefault(name, []).append(note)

    def per_op(value):
        return value / n_ops

    def frac(name, values):
        return sum(values) / calls[name] if calls.get(name) else 0.0

    out = {}
    for name in [*LAYERS, "cli.command"]:
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
        out[f"{name}.self_ms"] = per_op(self_ns.get(name, 0)) / 1e6
    out["cli.import_ms"] = per_op(self_ns.get("cli.import", 0)) / 1e6
    eigh_calls = calls.get("spectral.eigh", 0)
    out["spectral.eigh.distinct_frac"] = (
        len(set(notes.get("spectral.eigh", []))) / eigh_calls if eigh_calls else 0.0
    )
    out["density.relative_entropy.infinite_frac"] = frac(
        "density.relative_entropy", notes.get("density.relative_entropy", [])
    )
    out["pregroup.reduce.none_frac"] = frac("pregroup.reduce", notes.get("pregroup.reduce", []))
    out["compose.compose.operand_mb"] = per_op(sum(notes.get("compose.compose", []))) / 1e6
    out["trace.coverage"] = covered_ns / op_ns if op_ns else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in PER_LAYER}
