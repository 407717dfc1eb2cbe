"""Span tracer that wraps rollwave's functions from outside the package.

Each wrapped function records a span (name, start, end, parent) in memory.
A function is wrapped where its caller looks the name up: ``evans`` binds
``spectrum`` and ``bloch_coeffs`` at import, so those are patched in
``rollwave.evans`` as well as in their home modules.  Counters record calls
that are too frequent or too cheap to be worth a span.

A span's self time is its duration minus the time its child spans cover.
Spans are kept per thread, so a pool worker's span has no parent in
another thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and counters while patches are installed."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.frames: dict[int, object] = {}      # id -> ScaledFrame
        self.evaluators: list[object] = []
        self.profile_n: list[int] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                with tracer._lock:
                    tracer.counts[name + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, parent, name, start, end))
            if on_return is not None:
                with tracer._lock:
                    on_return(out, args)
            return out
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _install(self, owner, attr: str, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def span(self, owners, attr: str, name: str, on_return=None):
        """Wrap ``attr`` as a span named ``name`` in every owner that binds it."""
        for owner in owners:
            self._install(owner, attr,
                          self._span(name, owner.__dict__[attr], on_return))

    def count(self, owners, attr: str, name: str):
        """Count calls of ``attr`` in every owner that binds it."""
        for owner in owners:
            self._install(owner, attr,
                          self._counter(name, owner.__dict__[attr]))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent is None)

    def dump(self, path):
        """Write every span and counter as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [{"id": sid, "parent": parent, "name": name,
                                  "start": start, "end": end}
                                 for sid, parent, name, start, end in self.spans],
                       "counts": dict(self.counts)}, fh)


def instrument(tracer: Tracer):
    """Install the rollwave layer spans and counters on ``tracer``."""
    from rollwave import evans, fourier, hill, kdv_limit, linearize, sweep
    from rollwave import profile as prof

    def keep_frames(out, _args):
        for fr in (out if isinstance(out, list) else [out]):
            tracer.frames[id(fr)] = fr

    def keep_windings(rep, _args):
        tracer.counts["evans.winding_points"] += len(rep.lam)
        tracer.counts["evans.winding_refinements"] += rep.refinements

    tracer.span([prof], "limit_profile_alpha_m2", "profile.limit")
    tracer.span([prof], "solve_profile", "profile.solve")
    tracer.span([prof, sweep], "profile_from_limit", "profile.from_limit",
                on_return=lambda w, _a: tracer.profile_n.append(w.n))
    tracer.count([prof], "ode_residual", "profile.residual_evals")
    tracer.span([fourier], "diff_matrix", "fourier.diff_matrix")
    tracer.span([linearize, evans], "bloch_coeffs", "linearize.bloch_coeffs")
    tracer.span([hill, evans], "spectrum", "hill.spectrum")
    tracer.span([hill], "assemble", "hill.assemble")
    tracer.span([hill], "eigenvalues", "hill.eigensolve")
    tracer.span([evans.EvansEvaluator], "__init__", "evans.setup",
                on_return=lambda _o, a: tracer.evaluators.append(a[0]))
    tracer.span([evans.EvansEvaluator], "frame", "evans.frames",
                on_return=keep_frames)
    tracer.span([evans.EvansEvaluator], "frames", "evans.frames",
                on_return=keep_frames)
    tracer.count([evans.EvansEvaluator], "value", "evans.value_calls")
    tracer.span([evans], "origin_taylor", "evans.taylor")
    tracer.span([evans], "winding_number", "evans.winding",
                on_return=keep_windings)
    tracer.span([evans], "verdict", "evans.verdict")
    tracer.span([kdv_limit], "k_of_period", "kdv_limit.period_inverse")
    tracer.span([kdv_limit], "kdvks_wave", "kdv_limit.wave")
    tracer.span([kdv_limit], "kdvks_spectrum", "kdv_limit.spectrum")
    tracer.count([kdv_limit], "kdvks_stable", "kdv_limit.classifications")
    tracer.span([sweep], "stability_map", "sweep.map")
    tracer.span([sweep], "evaluate_point", "sweep.point")
    tracer.span([sweep.ResultStore], "append", "sweep.store_append")


def span_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a wrapped no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._span("noop", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / samples
