"""Spans around the public functions of the ``cexlab`` modules.

Tracing is done from outside the program: ``install`` replaces each
listed function, in every ``cexlab`` module that binds it, by a wrapper
that opens a span, calls the original and closes the span.  ``uninstall``
puts the originals back, so an untraced round runs the program exactly
as shipped.

A span records its name, start, end, the span that was open when it
started (its parent) and the case it belongs to, plus counts read at the
same boundary (grid pairs, right-hand-side evaluations, CSV bytes, ...).
Spans are kept in memory and written out as JSON lines when the run
ends.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from cexlab import (bump, cli, fields, gevrey, holder, intervals, transport,
                    wavegrowth)

MODULES = (intervals, holder, bump, gevrey, wavegrowth, fields, transport, cli)

@dataclass
class Span:
    name: str
    start: float
    parent: int
    case: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = "setup"
        self.extra = []  # (case, counts) recorded by benchmark callbacks

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.case))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def record(self, counts):
        self.extra.append((self.case, dict(counts)))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "case": s.case, "counts": s.counts}) + "\n")


# Counters read the arguments as every caller in the program and the
# benchmark passes them: positionally.

def _holder_pairs(args, kwargs, result):
    n = int(np.asarray(args[2]).size)
    return {"pairs": n * (n - 1) // 2}


def _advect_cells(args, kwargs, result):
    theta, _, t0, t1, dt = args[:5]
    steps = max(1, int(round((t1 - t0) / dt))) if t1 > t0 else 0
    return {"cell_steps": theta.n * theta.n * steps}


def _csv_bytes(args, kwargs, result):
    argv = list(args[0])
    if "--csv" in argv:
        path = argv[argv.index("--csv") + 1]
        if path != "-" and os.path.exists(path):
            return {"csv_bytes": os.path.getsize(path)}
    return {"csv_bytes": 0}


# (module, attribute, counter); the span is named "module.attribute".
# Every cexlab module binding the same object gets the wrapper, so calls
# made inside the program are traced as well as the benchmark's own.
TARGETS = [
    (intervals, "build_kn", lambda a, k, r: {"parts": len(r)}),
    (holder, "holder_constant", _holder_pairs),
    (holder, "restricted_lipschitz", None),
    (bump, "verify_multibump_estimates", None),
    (bump, "extend_piecewise_affine", None),
    (bump, "bump_holder_constant", None),
    (bump, "build_candidate", None),
    (bump, "measure_budget", None),
    (gevrey, "decaying_weight_log_norm", None),
    (gevrey, "growing_radius_log_norm", None),
    (gevrey, "fixed_radius_log_norm", None),
    (wavegrowth, "blowup_demo", None),
    (wavegrowth, "integrate_mode", lambda a, k, r: {"cycles": a[0].cycles}),
    (wavegrowth, "solve_ivp", lambda a, k, r: {"nfev": int(r.nfev)}),
    (wavegrowth, "energy_bounds_check", None),
    (wavegrowth, "gamma_holder_coefficient", None),
    (fields, "gradient", None),
    (fields, "hs_norm", None),
    (fields, "w1p_norm", None),
    (fields, "spectral_divergence", None),
    (transport, "advect", _advect_cells),
    (transport, "stage_velocity", None),
    (transport, "check_admissible", None),
    (transport, "mixer_velocity", None),
    (transport, "rescale_norm_check", None),
    (transport, "schedule_budget", None),
    (transport, "blowup_budget", None),
    (transport, "measure_mixing", None),
    (cli, "main", _csv_bytes),
]


def _wrap(tracer, name, fn, counter):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.spans[idx].counts = counter(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


def install(tracer):
    """Wrap every target in every cexlab module binding it; returns the
    list of (owner, attribute, original) needed to undo it."""
    undo = []
    for mod, attr, counter in TARGETS:
        original = getattr(mod, attr)
        name = mod.__name__.rsplit(".", 1)[-1] + "." + attr
        wrapper = _wrap(tracer, name, original, counter)
        for m in MODULES:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))
    # a classmethod is bound on its class, not in a module namespace
    cls = fields.ScalarField2D
    original = cls.__dict__["from_function"]
    cls.from_function = classmethod(
        _wrap(tracer, "fields.from_function", original.__func__, None))
    undo.append((cls, "from_function", original))
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# --- per-layer metrics -------------------------------------------------

SECONDS, COUNT, RATIO = "s", "count", "ratio"

# name -> unit; the order is the order of the report
LAYER_METRICS = {
    "intervals.build_kn_s": SECONDS,
    "intervals.kn_parts": COUNT,
    "holder.holder_constant_s": SECONDS,
    "holder.pairs": COUNT,
    "bump.verify_self_s": SECONDS,
    "bump.extend_s": SECONDS,
    "bump.holder_recomputes": COUNT,
    "gevrey.log_norm_s": SECONDS,
    "wavegrowth.integrate_s": SECONDS,
    "wavegrowth.rhs_evals": COUNT,
    "wavegrowth.cycles": COUNT,
    "wavegrowth.energy_check_s": SECONDS,
    "wavegrowth.holder_coefficient_s": SECONDS,
    "fields.spectral_s": SECONDS,
    "fields.from_function_s": SECONDS,
    "fields.gradient_calls": COUNT,
    "transport.advect_self_s": SECONDS,
    "transport.stage_velocity_s": SECONDS,
    "transport.stage_velocity_calls": COUNT,
    "transport.velocity_builds_per_distinct": RATIO,
    "transport.cell_steps": COUNT,
    "transport.admissible_s": SECONDS,
    "cli.main_s": SECONDS,
    "cli.csv_bytes": COUNT,
    "trace.overhead_s": SECONDS,
    "trace.spans": COUNT,
}

_SPECTRAL = ("fields.gradient", "fields.hs_norm", "fields.w1p_norm",
             "fields.spectral_divergence")


def _sums(spans, child, keep, extra):
    """Totals over the spans selected by keep (set-up, or traced rounds)."""
    tot = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    for i, s in enumerate(spans):
        if not keep(s):
            continue
        dur = s.end - s.start
        # outermost span of its name only, so nesting never double counts
        p, nested = s.parent, False
        while p >= 0 and not nested:
            nested = spans[p].name == s.name
            p = spans[p].parent
        if not nested:
            add(s.name + ":total", dur)
            add(s.name + ":calls", 1)
        add(s.name + ":self", dur - child[i])
        for k, v in s.counts.items():
            add(s.name + ":" + k, v)
        if (s.name == "holder.holder_constant" and s.parent >= 0
                and spans[s.parent].name == "bump.bump_holder_constant"):
            add("bump.holder_recomputes", 1)
        add("spans", 1)
    for _, counts in extra:
        for k, v in counts.items():
            add(k, v)
    return tot


def layer_metrics(tracer, traced_rounds, overhead_s):
    """Per-layer metrics over the set-up plus one traced round.

    Each value is the set-up total plus the mean over traced rounds of
    the round total, so set-up work (first-use caches) and per-round work
    both show, on the scale of a single pass over the cases.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    a = _sums(spans, child, lambda s: s.case == "setup",
              [e for e in tracer.extra if e[0] == "setup"])
    b = _sums(spans, child, lambda s: s.case != "setup",
              [e for e in tracer.extra if e[0] != "setup"])
    k = max(1, traced_rounds)

    def g(key):
        return a.get(key, 0.0) + b.get(key, 0.0) / k

    builds = g("velocity_builds")
    distinct = g("distinct_phases")
    values = {
        "intervals.build_kn_s": g("intervals.build_kn:total"),
        "intervals.kn_parts": g("intervals.build_kn:parts"),
        "holder.holder_constant_s": g("holder.holder_constant:total"),
        "holder.pairs": g("holder.holder_constant:pairs"),
        "bump.verify_self_s": g("bump.verify_multibump_estimates:self"),
        "bump.extend_s": g("bump.extend_piecewise_affine:total"),
        "bump.holder_recomputes": g("bump.holder_recomputes"),
        "gevrey.log_norm_s": sum(g(f"gevrey.{n}:total") for n in (
            "decaying_weight_log_norm", "growing_radius_log_norm",
            "fixed_radius_log_norm")),
        "wavegrowth.integrate_s": g("wavegrowth.integrate_mode:total"),
        "wavegrowth.rhs_evals": g("wavegrowth.solve_ivp:nfev"),
        "wavegrowth.cycles": g("wavegrowth.integrate_mode:cycles"),
        "wavegrowth.energy_check_s": g("wavegrowth.energy_bounds_check:total"),
        "wavegrowth.holder_coefficient_s": g("wavegrowth.gamma_holder_coefficient:total"),
        "fields.spectral_s": sum(g(n + ":self") for n in _SPECTRAL),
        "fields.from_function_s": g("fields.from_function:total"),
        "fields.gradient_calls": g("fields.gradient:calls"),
        "transport.advect_self_s": g("transport.advect:self"),
        "transport.stage_velocity_s": g("transport.stage_velocity:total"),
        "transport.stage_velocity_calls": g("transport.stage_velocity:calls"),
        "transport.velocity_builds_per_distinct": builds / distinct if distinct else 0.0,
        "transport.cell_steps": g("transport.advect:cell_steps"),
        "transport.admissible_s": g("transport.check_admissible:total"),
        "cli.main_s": g("cli.main:total"),
        "cli.csv_bytes": g("cli.main:csv_bytes"),
        "trace.overhead_s": overhead_s,
        "trace.spans": g("spans"),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS.items()}
