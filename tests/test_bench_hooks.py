"""The benchmark's tracer (bench/tracing.py) still finds what it wraps.

The tracer patches rollwave functions by name from outside the package; a
renamed function, or a solver that stops calling `profile.ode_residual`,
would silently zero a per-layer metric of the benchmark.
"""

import importlib.util
from pathlib import Path

from rollwave import evans, kdv_limit
from rollwave import profile as prof


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_profile_solves_and_residuals():
    tracing = _load_tracing()
    w0 = kdv_limit.asymptotic_rollwave(0.1, kdv_limit.k_of_period(12.0), 0.1,
                                       n=64)
    solve_profile = prof.solve_profile
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        prof.solve_profile(w0.params, w0.tau)
    finally:
        tracer.restore()
    assert prof.solve_profile is solve_profile
    assert tracer.counts["profile.residual_evals"] > 0
    assert "profile.solve" in [name for _, _, name, _, _ in tracer.spans]


def test_tracer_counts_the_verdicts_hill_solves(constant_state):
    # every name the tracer wraps is still bound where it looks, and every
    # row the verdict's Hill scan solves goes through hill.eigenvalues
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        v = evans.verdict(constant_state)
    finally:
        tracer.restore()
    solves = [name for _, _, name, _, _ in tracer.spans
              if name == "hill.eigensolve"]
    assert len(solves) == v.diagnostics["hill_eigensolves"] > 0


def test_tracer_counts_the_kdvks_classifications_hill_solves():
    # the onset workload's path: one classification, one KdV-KS wave solve
    # under kdv_limit.wave, and every row of its checked scan (scans and
    # checks) through hill.eigenvalues
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert kdv_limit.kdvks_stable(0.05, 17.0)
    finally:
        tracer.restore()
    assert tracer.counts["kdv_limit.classifications"] == 1
    names = [name for _, _, name, _, _ in tracer.spans]
    assert names.count("kdv_limit.wave") == 1
    assert (names.count("hill.eigensolve")
            == kdv_limit.kdvks_scan(0.05, 17.0).solves > 0)
