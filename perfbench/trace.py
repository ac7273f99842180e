"""Per-layer tracing from outside the package.

Each layer is one pmbp module.  The tracer replaces the module attribute a
caller looks up (for example `pmbp.likelihood.compute_h`, which is what
`nll_and_grad` calls) with a timing wrapper, and keeps every figure in
memory.  A name that a later version of the package no longer has is
skipped, so its layer reports zero calls instead of failing the run.

Spans nest: a call's self time is its duration minus the time of the traced
calls it made.  Recording happens only while the tracer is `active`, so the
benchmark's own output checks do not count toward any layer.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.active = False
        self.missing = set()
        self._stack = []  # child-time accumulators of the open spans
        self._patched = []

    @contextlib.contextmanager
    def span(self, key: str):
        if not self.active:
            yield
            return
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            self.calls[key] += 1
            self.total_s[key] += dt
            self.self_s[key] += dt - child
            if self._stack:
                self._stack[-1] += dt

    def add(self, key: str, n: float) -> None:
        if self.active:
            self.counts[key] += n

    def wrap(self, owner, name: str, key: str, on_call=None) -> None:
        """Time every call of `owner.name` under `key`.

        on_call(tracer, bound_arguments, result_or_exception) runs after each
        recorded call; bound_arguments maps parameter names to values.
        """
        orig = getattr(owner, name, None)
        if orig is None:
            self.missing.add(f"{owner.__name__}.{name}")
            return
        sig = inspect.signature(orig) if on_call else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            with tracer.span(key):
                try:
                    out = orig(*args, **kwargs)
                except Exception as exc:
                    if on_call:
                        on_call(tracer, sig.bind(*args, **kwargs).arguments, exc)
                    raise
            if on_call:
                on_call(tracer, sig.bind(*args, **kwargs).arguments, out)
            return out

        setattr(owner, name, traced)
        self._patched.append((owner, name, orig))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()


def _poi_work(tracer, args, out):
    if isinstance(out, Exception):
        return
    n = len(out.t)
    tables = getattr(args["self"], "tables", None)
    cells = tables.grid.n + 1 if tables is not None else 0
    tracer.add("poi.query_points", n)
    tracer.add("poi.query_cells", n * cells)


def _engine_health(tracer, args, out):
    if isinstance(out, Exception):
        return
    tracer.add("engine.k_star", out.k_star)
    tracer.add("engine.cells", out.grid.n + 1)


def _thin_outcome(tracer, args, out):
    import pmbp

    if isinstance(out, pmbp.ExplosionError):
        tracer.add("sampling.exploded", 1)
    elif not isinstance(out, Exception):
        before = sum(len(ts) for ts in args.get("initial", ()))
        tracer.add("sampling.accepted", sum(len(ts) for ts in out.times) - before)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports."""
    import pmbp.decay
    import pmbp.fitting
    import pmbp.likelihood
    import pmbp.poi
    import pmbp.sampling

    for mod in (pmbp.likelihood, pmbp.sampling):
        tracer.wrap(mod, "compute_h", "engine.compute_h", _engine_health)
    tracer.wrap(pmbp.likelihood, "grad_h", "gradients.grad_h")
    tracer.wrap(pmbp.poi.PoiEvaluator, "values", "poi.values", _poi_work)
    tracer.wrap(pmbp.decay.SourceDecay, "query", "decay.query")
    tracer.wrap(pmbp.fitting, "nll_and_grad", "likelihood.nll_and_grad")
    tracer.wrap(pmbp.sampling, "build_bound_context", "sampling.bound_context")
    tracer.wrap(pmbp.sampling, "pmbp_upper_bound", "sampling.upper_bound")
    tracer.wrap(pmbp.sampling, "_thin", "sampling.thin", _thin_outcome)
    return tracer


# Times of layers that one workload in BENCHMARK.json bypasses: gradients,
# likelihood and fitting never run on `forecast`, sampling never runs on
# `recover`.  There they read 0.0 on every run, which cannot be told from a
# time that was never measured, so they are printed but left out of the
# JSON result.
TEXT_ONLY = ("gradients.grad_h_s", "likelihood.self_s", "fitting.self_s",
             "sampling.bound_context_s", "sampling.thin_s")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures, as {name: (value, unit)}."""
    c, s, own = tracer.calls, tracer.total_s, tracer.self_s
    n = defaultdict(int, {k: int(v) for k, v in tracer.counts.items()})
    evals = c["likelihood.nll_and_grad"]
    fit_iterations = n["fitting.iterations"]
    proposals = c["sampling.upper_bound"]
    return {
        "poi.values_calls": (c["poi.values"], "count"),
        "poi.values_s": (s["poi.values"], "s"),
        "poi.query_points": (n["poi.query_points"], "count"),
        "poi.query_cells": (n["poi.query_cells"], "count"),
        "gradients.grad_h_calls": (c["gradients.grad_h"], "count"),
        "gradients.grad_h_s": (s["gradients.grad_h"], "s"),
        "engine.compute_h_calls": (c["engine.compute_h"], "count"),
        "engine.compute_h_s": (s["engine.compute_h"], "s"),
        "engine.k_star": (n["engine.k_star"], "count"),
        "engine.cells": (n["engine.cells"], "count"),
        "decay.query_calls": (c["decay.query"], "count"),
        "decay.query_s": (s["decay.query"], "s"),
        "likelihood.nll_and_grad_calls": (evals, "count"),
        "likelihood.self_s": (own["likelihood.nll_and_grad"], "s"),
        "fitting.evals": (evals, "count"),
        "fitting.iterations": (fit_iterations, "count"),
        "fitting.accept_ratio": (fit_iterations / evals if evals else 0.0, "ratio"),
        "fitting.self_s": (own["fitting"], "s"),
        "sampling.bound_context_s": (s["sampling.bound_context"], "s"),
        "sampling.proposals": (proposals, "count"),
        "sampling.accepted": (n["sampling.accepted"], "count"),
        "sampling.accept_ratio": (
            n["sampling.accepted"] / proposals if proposals else 0.0, "ratio"),
        "sampling.exploded": (n["sampling.exploded"], "count"),
        "sampling.thin_s": (s["sampling.thin"], "s"),
    }
