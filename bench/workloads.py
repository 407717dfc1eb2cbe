"""The benchmark's workloads: inputs, one timed round, and output checks.

Every input is a fixed parameter point of the paper; nothing is random.  The
seed only permutes the order in which the map points and the onset periods
are evaluated, which must not change any result.

Each check compares against a computation made apart from the timed path or
against a property the method must have, never against stored output.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.special

from rollwave import evans, hill, kdv_limit, linearize, sweep
from rollwave import profile as prof
from rollwave.elliptic import elliptic_K

NU = 0.1
Q0 = 0.4


@dataclass(frozen=True)
class Workload:
    """``setup(seed, tmp)`` builds the inputs; ``run(inputs)`` is one round.

    ``check(inputs, outputs)`` returns (failed operations, problems found);
    ``units`` is the number of operations one round attempts.
    """

    setup: Callable
    run: Callable
    check: Callable
    units: int
    extras: Callable = field(default=lambda outputs: {})


def _note(text: str):
    print(f"check: {text}", file=sys.stderr)


def _mean_flux_error(wave) -> float:
    """|mean(tau (q - c tau)^2) - 1|: the period average of the profile ODE.

    Every other term of the equation is a derivative and averages to zero,
    so a converged profile must satisfy this to its residual tolerance.
    """
    p = wave.params
    return abs(float(np.mean(wave.tau * (p.q - p.c * wave.tau) ** 2)) - 1.0)


# -- verdict-stable: one full verdict on the stable F = 6, X = 8.78 wave ------

VERDICT_WAVE = {"q0": Q0, "X0": 8.78 / 36.0, "F": 6.0, "n": 512}


def _verdict_setup(seed, tmp):
    return prof.profile_from_limit(**VERDICT_WAVE)


def _verdict_run(wave):
    return evans.verdict(wave)


def _verdict_check(wave, outputs):
    """Hill eigenvalues near the origin follow the verdict's alpha xi + beta xi^2.

    Hill's method never sees the Evans Taylor expansion, and the error of the
    quadratic prediction is O(xi^3), so it must fall about eightfold when xi
    halves.
    """
    problems = []
    sp = linearize.bloch_coeffs(wave)
    X = wave.params.X
    for v in outputs:
        if v.overall != "stable":
            problems.append(f"verdict {v.overall}: {v.witness or v.reason}")
            continue
        alpha = [complex(*a) for a in v.diagnostics["alpha"]]
        beta = [complex(*b) for b in v.diagnostics["beta"]]
        errs = []
        for frac in (0.04, 0.02):
            xi = frac * math.pi / X
            lam = hill.eigenvalues(sp, 60, xi)
            errs.append(max(float(np.min(np.abs(lam - (a * xi + b * xi * xi))))
                            for a, b in zip(alpha, beta)))
        scale = max(abs(a) for a in alpha) * 0.04 * math.pi / X
        _note(f"Hill vs alpha xi + beta xi^2: {errs[0]:.2e} -> {errs[1]:.2e}")
        if not (errs[0] <= 1e-3 * scale and errs[1] <= errs[0] / 4.0):
            problems.append(f"Hill vs alpha xi + beta xi^2: errors {errs[0]:.2e}"
                            f" -> {errs[1]:.2e} (scale {scale:.2e})")
    return 0, problems


# -- map-hill: a stability map that the Hill scan decides alone -------------

# q0 = 0.4 family points at X0 = X / F^2 = 0.205, just below the lower
# stability boundary: every one is Hill-unstable, so the map never builds an
# Evans evaluator.
MAP_F = (4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0)
MAP_X0 = 0.205


@dataclass
class _MapInputs:
    points: list
    tmp: Path
    rounds: itertools.count


def _map_setup(seed, tmp):
    points = [sweep.family_point(-2.0, F, NU, Q0, MAP_X0 * F * F)
              for F in MAP_F]
    random.Random(seed).shuffle(points)
    return _MapInputs(points=points, tmp=tmp, rounds=itertools.count())


def _map_run(inputs):
    store = inputs.tmp / f"map-{next(inputs.rounds)}.jsonl"
    waves = []

    def solver(point):
        waves.append(sweep.default_solver(point))
        return waves[-1]

    records = sweep.stability_map(inputs.points, store=str(store),
                                  solver=solver)
    return records, waves, store


def _map_check(inputs, outputs):
    failed, problems = 0, []
    for records, waves, store in outputs:
        reread = [r.to_json() for r in sweep.ResultStore(str(store)).records]
        if reread != [r.to_json() for r in records]:
            problems.append(f"{store.name}: re-read store differs")
        for rec in records:
            if rec.verdict == "failed":
                failed += 1
            elif rec.verdict != "unstable" or \
                    not (rec.witness or "").startswith("Hill eigenvalue"):
                problems.append(f"F={rec.F}, X={rec.X}: {rec.verdict}, "
                                f"witness {rec.witness!r}")
        _note(f"worst mean flux error "
              f"{max(_mean_flux_error(w) for w in waves):.1e}")
        for w in waves:
            if _mean_flux_error(w) > 1e-10:
                problems.append(f"F={w.params.F}: mean flux error "
                                f"{_mean_flux_error(w):.2e} > 1e-10")
    return failed, problems


def _map_extras(outputs):
    sizes = [store.stat().st_size for _, _, store in outputs]
    return {"sweep.store_bytes": sum(sizes) / len(sizes)}


# -- profile-f8: one profile by descent in log F from the F = inf limit -------

PROFILE_WAVE = {"q0": Q0, "X0": 0.45, "F": 8.0, "n": 512}


def _profile_setup(seed, tmp):
    return PROFILE_WAVE


def _profile_run(point):
    return prof.profile_from_limit(**point)


def _profile_check(point, outputs):
    problems = []
    F = point["F"]
    want = {"F": F, "q": point["q0"] * F, "X": point["X0"] * F * F}
    for w in outputs:
        _note(f"n={w.n}, mean flux error {_mean_flux_error(w):.1e}, "
              f"ptp(tau)/mean(tau) {np.ptp(w.tau) / np.mean(w.tau):.3f}")
        got = {k: getattr(w.params, k) for k in want}
        if any(not math.isclose(got[k], want[k], rel_tol=1e-12) for k in want):
            problems.append(f"parameters {got}, want {want}")
        if _mean_flux_error(w) > 1e-8:
            problems.append(f"mean flux error {_mean_flux_error(w):.2e} > 1e-8")
        # the constant state also solves the equation; a roll wave does not
        # collapse onto it
        if not float(np.ptp(w.tau)) > 0.1 * float(np.mean(w.tau)):
            problems.append(f"amplitude collapsed: ptp(tau) {np.ptp(w.tau):.3e}")
    return 0, problems


# -- onset-kdvks: the KdV-KS stability band at delta = 0.05 -------------------

ONSET_DELTA = 0.05
ONSET_PERIODS = (7.0, 10.0, 17.0, 24.0, 30.0)
ONSET_CLASSES = (False, True, True, True, False)     # U S S S U
ONSET_EDGES = (8.44, 26.1)


def _onset_setup(seed, tmp):
    periods = list(ONSET_PERIODS)
    random.Random(seed).shuffle(periods)
    return periods


def _bisect(lo, hi, lo_stable):
    while hi - lo > 0.01 * 0.5 * (hi + lo):
        mid = math.sqrt(lo * hi)
        if kdv_limit.kdvks_stable(ONSET_DELTA, mid) == lo_stable:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _onset_run(periods):
    classes = {X: kdv_limit.kdvks_stable(ONSET_DELTA, X) for X in periods}
    return classes, (_bisect(7.0, 10.0, False), _bisect(24.0, 30.0, True))


def _onset_check(periods, outputs):
    problems = []
    for classes, edges in outputs:
        _note(f"band edges {edges[0]:.4f}, {edges[1]:.4f}")
        got = tuple(classes[X] for X in ONSET_PERIODS)
        if got != ONSET_CLASSES:
            problems.append(f"classes {got}, want {ONSET_CLASSES}")
        for edge, ref in zip(edges, ONSET_EDGES):
            if abs(edge - ref) > 0.05 * ref:
                problems.append(f"band edge {edge:.3f} not within 5% of {ref}")
            k = kdv_limit.k_of_period(edge)
            mc = (1.0 - k) * (1.0 + k)
            want = float(scipy.special.ellipkm1(mc))
            if not math.isclose(elliptic_K(k, mc), want, rel_tol=1e-12):
                problems.append(f"K({k!r}) = {elliptic_K(k, mc)!r}, "
                                f"scipy {want!r}")
    return 0, problems


WORKLOADS = {
    "verdict-stable": Workload(_verdict_setup, _verdict_run, _verdict_check, 1),
    "map-hill": Workload(_map_setup, _map_run, _map_check, len(MAP_F),
                         _map_extras),
    "profile-f8": Workload(_profile_setup, _profile_run, _profile_check, 1),
    "onset-kdvks": Workload(_onset_setup, _onset_run, _onset_check,
                            len(ONSET_PERIODS) + len(ONSET_EDGES)),
}
