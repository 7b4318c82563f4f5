"""Spans recorded from outside the program, around calls into each layer.

The fairkc package has no tracing of its own, so the traced run replaces
the public functions of each module with timing wrappers.  Each wrapper is
installed at the name its caller looks up: `solvers` and `harness` import
names directly (`from .lp import solve_feasibility`), so wrapping
`lp.solve_feasibility` would miss every call.  A site whose name no longer
exists makes its whole layer *missing*: the layer is reported by name and
its metrics are left out, never read as zero.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from fairkc import audit, harness, instances, oracle, solvers


def _lp_shape(args, kwargs, result):
    lp, _pairs = result
    return {"vars": lp.num_vars, "rows": len(lp.constraints)}


def _lp_verdict(args, kwargs, result):
    return {"infeasible": int(result is None)}


def _flow_points(args, kwargs, result):
    return {"points": len(result)}


def _divide_split(args, kwargs, result):
    _inst, _cluster, _center, Q = args
    return {"splits": int(len(Q) > 1)}


# (module, name the caller looks up, layer, note taken from the call)
SITES = (
    (harness, "load_instance", "harness.load", None),
    (harness, "run_experiment", "harness.run", None),
    (harness, "emit_report", "harness.emit", None),
    (harness, "cost", "core.metrics", None),
    (harness, "gf_violation", "core.metrics", None),
    (harness, "ds_violation", "core.metrics", None),
    (harness, "pof", "core.metrics", None),
    (instances, "gen_random", "instances.gen", None),
    (solvers, "gonzalez", "solvers.select", None),
    (solvers, "alg_ds", "solvers.select", None),
    (solvers, "assignment_gf", "solvers.assignment", None),
    (solvers, "gf_to_gfds", "solvers.post", None),
    (solvers, "ds_to_gfds", "solvers.post", None),
    (solvers, "build_assignment_lp", "lp.build", _lp_shape),
    (solvers, "nearest_admissible_start", "lp.start", None),
    (solvers, "solve_feasibility", "lp.solve", _lp_verdict),
    (solvers, "max_flow_gf", "flow", _flow_points),
    (solvers, "divide", "divide", _divide_split),
    (audit, "audit_all", "audit", None),
    (oracle, "brute_force_opt", "oracle", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SITES))
NOTES = ("lp.build.vars", "lp.build.rows", "lp.solve.infeasible", "flow.points",
         "divide.splits")


class Span:
    __slots__ = ("layer", "start", "end", "parent", "note", "error")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.note = None
        self.error = None

    def to_dict(self, index):
        return {
            "id": index,
            "name": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "note": self.note,
            "error": self.error,
        }


class Recorder:
    """Spans of one traced run, kept in memory until the run writes them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = {}  # layer -> the sites of it that no longer exist
        for mod, name, layer, _ in SITES:
            if not hasattr(mod, name):
                self.missing.setdefault(layer, []).append(f"{mod.__name__}.{name}")

    def _wrap(self, fn, layer, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every site that exists with its wrapper; restore on exit."""
        saved = []
        try:
            for mod, name, layer, note in SITES:
                if hasattr(mod, name):
                    fn = getattr(mod, name)
                    saved.append((mod, name, fn))
                    setattr(mod, name, self._wrap(fn, layer, note))
            yield self
        finally:
            for mod, name, fn in reversed(saved):
                setattr(mod, name, fn)


def layer_totals(spans, lo, hi, window):
    """Per-layer counts and times over spans[lo:hi], one pass of `window` s.

    Returns a flat dict of metric name -> value.  `.s` is inclusive time,
    `.self_s` excludes the time of direct child spans, and coverage is the
    share of the window inside spans that have no parent.
    """
    calls = dict.fromkeys(LAYERS, 0)
    total = dict.fromkeys(LAYERS, 0.0)
    child = [0.0] * (hi - lo)
    notes = dict.fromkeys(NOTES, 0)
    errors = {}
    top = 0.0
    for i in range(lo, hi):
        sp = spans[i]
        dur = sp.end - sp.start
        calls[sp.layer] += 1
        total[sp.layer] += dur
        if sp.parent is None or sp.parent < lo:
            top += dur
        else:
            child[sp.parent - lo] += dur
        if sp.note:
            for key, v in sp.note.items():
                notes[f"{sp.layer}.{key}"] += v
        if sp.error:
            errors[sp.layer] = errors.get(sp.layer, 0) + 1
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in range(lo, hi):
        sp = spans[i]
        self_s[sp.layer] += (sp.end - sp.start) - child[i - lo]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = total[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.errors"] = errors.get(layer, 0)
    out.update(notes)
    probes = calls["lp.solve"]
    out["lp.solve.yield"] = (probes - notes["lp.solve.infeasible"]) / probes if probes else 0.0
    out["trace.coverage"] = top / window if window > 0 else 0.0
    out["trace.spans"] = hi - lo
    return out


def median_totals(samples):
    """Median of each metric over a list of layer_totals dicts."""
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}
