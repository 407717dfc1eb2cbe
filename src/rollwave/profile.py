"""Periodic traveling-wave profiles: collocation solvers and continuation.

The Lagrangian traveling-wave problem reduces, after the first integral
u = q - c tau, to a scalar second-order equation for tau.  We solve its
residual form

    G(tau) = c^2 tau' - tau'/(K tau^3) - 1 + tau (q - eps c tau)^2
             + c nu (tau^-2 tau')' = 0

with (K, eps) = (F^2, 1) for the physical wave.  On the alpha = -2 family,
in the scaled unknowns tau = a/F^2, c = c0 F^2, q = q0 F, X = X0 F^2, the
same G is _equation(a, c0, 1, 1/F, nu, q0, X0), and (K, eps) = (1, 0) is
its limit F -> infinity.  Both are solved by Fourier collocation Newton
with the wave speed c free and a phase condition locking translation
against the seed.  Waves are indexed by (q, X); c is always an output.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
from dataclasses import dataclass

import numpy as np

from . import fourier
from .model import (DomainError, NumericalFailure, PhysicalParams,
                    TruncationUnresolved, require_positive)


class NonConvergence(NumericalFailure):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


class DegenerateJacobian(NumericalFailure):
    """The collocation Jacobian was numerically singular."""


class ContinuationStalled(NumericalFailure):
    """Adaptive continuation hit the minimum step without converging."""


@dataclass(frozen=True)
class WaveProfile:
    """A converged (or asymptotic) wave sampled on a uniform grid; n, tau'
    and the residual are derived from tau, so no copy can disagree with it."""

    params: PhysicalParams
    tau: np.ndarray

    @property
    def n(self) -> int:
        return len(self.tau)

    @functools.cached_property
    def dtau(self) -> np.ndarray:
        return fourier.deriv(self.tau, self.params.X)

    @functools.cached_property
    def residual_norm(self) -> float:
        return float(np.max(np.abs(ode_residual(self.tau, self.params))))

    @property
    def residual_bound(self) -> float:
        """The largest residual_norm a solve of G accepts on n nodes."""
        return max(_NEWTON_TOL, _rounding_floor(self.n))

    def to_json(self) -> str:
        p = self.params
        return json.dumps({
            "params": {"F": p.F, "nu": p.nu, "q": p.q, "c": p.c, "X": p.X,
                       **({"tau0": p.tau0} if p.tau0 is not None else {})},
            "tau": list(self.tau),
            "residual": self.residual_norm,
        })

    @classmethod
    def from_json(cls, text: str) -> "WaveProfile":
        data = json.loads(text)
        if isinstance(data, dict) and "kind" in data:
            raise DomainError(f"the input is an {data['kind']!r} file, "
                              f"not a profile")
        try:
            w = cls(params=PhysicalParams(**data["params"]),
                    tau=np.asarray(data["tau"], dtype=float))
        except (KeyError, TypeError, ValueError) as err:
            raise DomainError(f"malformed profile: {err!r}") from None
        if not (w.tau.ndim == 1 and w.n > 0 and np.isfinite(w.tau).all()
                and np.all(w.tau > 0.0)):
            raise DomainError("a profile needs a non-empty list of finite "
                              "tau > 0 samples")
        return w


def _equation(tau, c, K, eps, nu, q, X):
    """G(tau) at the samples, with the coefficients of the module docstring."""
    dt = fourier.deriv(tau, X)
    visc = fourier.deriv(tau ** -2 * dt, X)
    return (c * c * dt - dt / (K * tau ** 3) - 1.0
            + tau * (q - eps * c * tau) ** 2 + c * nu * visc)


_JAC_ROWS = 64          # rows of dG/dtau built at a time in _jacobian


def _jacobian(tau, c, K, eps, nu, q, X, borders):
    """Bordered Jacobian of G: dG/dtau and dG/dc filled, `borders` rows and
    columns left for the caller.

    dG/dtau = diag(c^2 - 1/(K tau^3)) D1 + diag(...)
              + c nu (D1 W D1 - 2 D1 diag(tau^-3 tau')),  W = diag(w),
    w = tau^-2, with D1[i, j] = d_{i-j} (indices mod n) the trigonometric
    differentiation matrix: d_0 = 0 and d_m = kappa (-1)^m cot(pi m / n)
    for even n, kappa (-1)^m csc(pi m / n) for odd n, kappa = pi / X
    (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3).  Let
    t_m = cot(pi m / n) with t_0 = 0, h = t * w (circular convolution),
    S = sum(w) and s_m = (-1)^m for even n, 0 for odd n.  Summing over the
    middle index with cot a cot b = 1 + cot(a + b)(cot a + cot b) (even n)
    or csc a csc b = csc(a + b)(cot a + cot b) (odd n) gives, for i != j,

        (D1 W D1)[i, j] = kappa D1[i, j] (h_i - h_j - (w_i + w_j) t_{i-j})
                          + kappa^2 s_{i-j} (S - w_i - w_j),

    and the diagonal is -(d^2 * w).  So off the diagonal

        J[i, j] = D1[i, j] (g_i - f_j) - V[i, j] (p_i + p_j) + A s_{i-j},

    with p = c nu kappa w, g = c nu kappa h + c^2 - 1/(K tau^3),
    f = c nu kappa h + 2 c nu tau^-3 tau', A = c nu kappa^2 S and V the
    circulant of d t + kappa s.  It is written into J _JAC_ROWS rows at a
    time from read-only circulant views, with no transform of any row.
    """
    n = len(tau)
    dt = fourier.deriv(tau, X)
    u = q - eps * c * tau
    J = np.zeros((n + borders, n + borders))
    D1 = fourier.diff_matrix(n, X, 1)
    d = D1[:, 0]
    kappa = np.pi / X
    # t is odd about m = 0; its larger half would lose digits near pi
    m = np.arange(1, (n + 1) // 2)
    t = np.zeros(n)
    t[m] = 1.0 / np.tan(np.pi * m / n)
    t[n - m] = -t[m]
    sign = (-1.0) ** np.arange(n) * (1 - n % 2)
    w = tau ** -2
    w_hat = np.fft.rfft(w)
    h = np.fft.irfft(np.fft.rfft(t) * w_hat, n)
    visc = c * nu * kappa
    p = visc * w
    g = visc * h + c * c - 1.0 / (K * tau ** 3)
    f = visc * h + 2.0 * c * nu * tau ** -3 * dt
    A = visc * kappa * np.sum(w)
    V = fourier.circulant(d * t + kappa * sign)
    Z = fourier.circulant(A * sign)
    buf = np.empty((min(_JAC_ROWS, n), n))
    for a in range(0, n, _JAC_ROWS):
        b = min(a + _JAC_ROWS, n)
        block, tmp = J[a:b, :n], buf[:b - a]
        np.subtract.outer(g[a:b], f, out=tmp)
        np.multiply(tmp, D1[a:b], out=block)
        np.add.outer(p[a:b], p, out=tmp)
        tmp *= V[a:b]
        tmp -= Z[a:b]
        block -= tmp
    J[np.diag_indices(n)] = (3.0 * dt / (K * tau ** 4) + u ** 2
                             - 2.0 * eps * c * tau * u
                             - c * nu * np.fft.irfft(np.fft.rfft(d * d)
                                                     * w_hat, n))
    J[:n, n] = (2.0 * c * dt - 2.0 * eps * tau ** 2 * u
                + nu * fourier.deriv(tau ** -2 * dt, X))
    return J


def ode_residual(tau: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Pointwise residual of the profile equation at the given samples."""
    p = params
    return _equation(tau, p.c, p.F * p.F, 1.0, p.nu, p.q, p.X)


_NEWTON_TOL = 1e-8      # the residual every solve of G aims at: physical
                        # wave, limit wave and pinned walk
_NEWTON_MAX_ITER = 60
_CONTRACTION = 0.05     # residual ratio under which an LU factorisation is kept


def _newton_solve(residual, jacobian, x, tol, admissible, floor=0.0):
    """Newton's method on a bordered collocation system; returns (x, error).

    `residual(x)` is the whole bordered vector (collocation rows plus the
    phase or pin rows), `jacobian(x)` its derivative, and the error is the
    max norm of the residual.  Each Jacobian is LU-factored in place and
    kept while each step takes the error to at most _CONTRACTION times its
    last value (the chord or Shamanskii method; Kelley 2003, ch. 5).  A
    step with a kept factorisation that does not, or that leaves the region
    where `admissible(x)` holds, is thrown away and made again from the
    same iterate with a fresh Jacobian, so reuse fails no solve that plain
    Newton would finish.  A step with a fresh Jacobian is the full Newton
    step, and one that leaves the admissible region raises NonConvergence;
    _follow halves its step on it.  A zero pivot or a non-finite step
    raises DegenerateJacobian.  Below `tol` the kept factorisation goes on
    toward the rounding floor and stops at its first step that does not
    contract so.  A step below 1e-13 max(1, |x|) is at the rounding floor
    and stops the loop.  An iterate that stops or runs out of iterations
    above `tol` is kept only if its error is at most `floor`.
    """
    from scipy.linalg import lapack, lu_solve

    def at_floor(step, x):
        return np.max(np.abs(step)) < 1e-13 * max(1.0, np.max(np.abs(x)))

    r = residual(x)
    err = float(np.max(np.abs(r)))
    lu = None
    for _ in range(_NEWTON_MAX_ITER):
        if lu is not None:
            step = lu_solve(lu, r, trans=1, check_finite=False)
            trial = x - step
            if not at_floor(step, x) and admissible(trial):
                r_new = residual(trial)
                err_new = float(np.max(np.abs(r_new)))
                if err_new <= _CONTRACTION * err:
                    x, r, err = trial, r_new, err_new
                    continue
            lu = None
        if err <= tol:
            return x, err
        # J's transpose is Fortran-ordered, so LAPACK factors it in place
        # and the solves take it transposed back
        *lu, info = lapack.dgetrf(jacobian(x).T, overwrite_a=True)
        if info > 0:
            raise DegenerateJacobian(f"singular Jacobian: pivot {info} is zero")
        step = lu_solve(lu, r, trans=1, check_finite=False)
        if not np.all(np.isfinite(step)):
            raise DegenerateJacobian("non-finite Newton step")
        if at_floor(step, x):
            break
        x = x - step
        if not admissible(x):
            raise NonConvergence(
                f"Newton step left the admissible region at residual "
                f"{err:.3e}", err)
        err_before = err
        r = residual(x)
        err = float(np.max(np.abs(r)))
        if not err <= _CONTRACTION * err_before:     # a NaN error included
            lu = None
    if err > max(tol, floor):
        raise NonConvergence(f"Newton stopped at residual {err:.3e}", err)
    return x, err


def _rounding_floor(n: int) -> float:
    """Residual of G on n nodes that rounding alone can leave: it grows with
    n^2, since spectral second derivatives amplify rounding."""
    return 1e-8 * max(1.0, (n / 256.0) ** 2)


def _locked_newton(G, seed, c, coeffs):
    """Newton for (tau, c) solving G(tau, c) = 0 to _NEWTON_TOL,
    phase-locked to the seed.

    `coeffs` = (K, eps, nu, q, X) are G's coefficients, for its Jacobian.  G
    is passed in so that the physical wave goes through `ode_residual`,
    where a caller may count it.  Returns (tau, c) with tau > 0.
    An iterate at _rounding_floor(n) is kept.
    """
    n = len(seed)
    dseed = fourier.deriv(seed, coeffs[-1])

    def residual(x):
        phase = float(np.mean((x[:n] - seed) * dseed))
        return np.concatenate([G(x[:n], x[n]), [phase]])

    def jacobian(x):
        J = _jacobian(x[:n], x[n], *coeffs, 1)
        J[n, :n] = dseed / n
        return J

    x, _ = _newton_solve(residual, jacobian, np.append(seed, c), _NEWTON_TOL,
                         lambda x: np.min(x[:n]) > 0.0, _rounding_floor(n))
    return x[:n], float(x[n])


def solve_profile(params: PhysicalParams,
                  seed_tau: np.ndarray) -> WaveProfile:
    """Converge a periodic profile at fixed (F, nu, q, X) with c free.

    `params.c` is the initial guess for the speed.
    """
    seed_tau = np.asarray(seed_tau, dtype=float)
    if np.min(seed_tau) <= 0.0:
        raise DomainError("seed profile must be strictly positive")
    p = params
    tau, c = _locked_newton(lambda t, c: ode_residual(t, p.with_(c=c)),
                            seed_tau, p.c, (p.F * p.F, 1.0, p.nu, p.q, p.X))
    return WaveProfile(params=params.with_(c=c), tau=tau)


_MIN_STEP = 1e-6        # smallest continuation step, as a share of the segment
_GROWTH = 1.5           # step growth after a converged continuation step


def _follow(solve, x, length, h, h_min):
    """Follow Newton unknowns x(s) along a branch from s = 0 to s = length.

    x[:-1] is the profile and x[-1] the speed; `solve(s, guess)` converges
    them at s and returns them with the object they describe, possibly on a
    finer grid.  Once two points have converged on the same grid, the guess
    is the secant through them extended by the proposed step, unless that
    leaves the profile non-positive; else it is the last point.  A profile
    whose amplitude falls below 0.2 of the last one's, when that exceeded
    1e-3 of its mean, has collapsed onto the constant branch and counts as
    a failed step.  A failed step is halved and a converged one grows by
    _GROWTH, up to twice the first step.  Returns the object of the last
    solve; raises ContinuationStalled when the step falls below h_min.
    """
    cap = 2.0 * h
    s = 0.0
    s_prev = x_prev = None
    while s < length:
        s_try = length if h >= length - s else s + h
        guess = x
        if x_prev is not None and len(x_prev) == len(x):
            guess = x + (x - x_prev) * ((s_try - s) / (s - s_prev))
            if np.min(guess[:-1]) <= 0.0:
                guess = x
        try:
            x_new, out = solve(s_try, guess)
        except (NonConvergence, DegenerateJacobian):
            x_new = None
        amp = np.ptp(x[:-1])
        if x_new is None or (amp > 1e-3 * np.mean(x[:-1])
                             and np.ptp(x_new[:-1]) < 0.2 * amp):
            h = 0.5 * (s_try - s)
            if h < h_min:
                raise ContinuationStalled(
                    f"continuation stalled at s={s:.6g} of {length:.6g}")
            continue
        h = min(_GROWTH * (s_try - s), cap)
        s_prev, x_prev, s, x = s, x, s_try, x_new
    return out


def continue_profile(start: WaveProfile, **targets) -> WaveProfile:
    """Continue a converged wave to new values of F, nu, q and/or X.

    Follows (tau, c) along the straight segment in parameter space with
    _follow, from the whole segment as first step; raises
    ContinuationStalled when the step falls below _MIN_STEP of the segment.
    """
    for key in targets:
        if key not in ("F", "nu", "q", "X"):
            raise DomainError(f"cannot continue in parameter {key!r}")
    p0 = start.params
    begin = {k: getattr(p0, k) for k in targets}

    def solve(s, x):
        vals = {k: begin[k] + s * (targets[k] - begin[k]) for k in targets}
        w = solve_profile(p0.with_(c=x[-1], **vals), x[:-1])
        return np.append(w.tau, w.params.c), w

    return _follow(solve, np.append(start.tau, p0.c), 1.0, 1.0, _MIN_STEP)


@dataclass(frozen=True)
class LimitProfile:
    """Periodic wave of the alpha = -2 large-F limit on [0, X0); n, a' and
    the residual are derived from its samples a."""

    q0: float
    X0: float
    nu: float
    c0: float
    a: np.ndarray

    @property
    def n(self) -> int:
        return len(self.a)

    @functools.cached_property
    def da(self) -> np.ndarray:
        return fourier.deriv(self.a, self.X0)

    @functools.cached_property
    def residual_norm(self) -> float:
        G = _equation(self.a, self.c0, 1.0, 0.0, self.nu, self.q0, self.X0)
        return float(np.max(np.abs(G)))


_LIMIT_N0 = 256         # grid of the walk from onset, so the coarsest of
                        # every limit wave: its tail only ever doubles it
_LIMIT_N_CAP = 8192     # finest grid a limit wave is refined to
_WALK_TAIL = 1e-3       # Nyquist-band mode, relative to the largest, that
                        # stops the walk from onset
_LIMIT_TAIL = 1e-4      # ... that doubles a limit wave's grid


def _limit_pinned(a: np.ndarray, q0: float, c0: float, X0: float, nu: float,
                  A: float):
    """Newton with the first cosine coefficient pinned to A and X0 free.

    Used to walk onto the bifurcated branch near onset, where natural Newton
    falls back to the constant state.  Translation is fixed by zeroing the
    first sine coefficient.
    """
    n = len(a)
    j = np.arange(n)
    cosw = np.cos(2.0 * np.pi * j / n)
    sinw = np.sin(2.0 * np.pi * j / n)

    def residual(x):
        a, c0, X0 = x[:n], x[n], x[n + 1]
        G = _equation(a, c0, 1.0, 0.0, nu, q0, X0)
        pin = 2.0 * float(np.mean(a * cosw)) - A
        phs = 2.0 * float(np.mean(a * sinw))
        return np.concatenate([G, [pin, phs]])

    def jacobian(x):
        a, c0, X0 = x[:n], x[n], x[n + 1]
        J = _jacobian(a, c0, 1.0, 0.0, nu, q0, X0, 2)
        # on fixed samples d/dx scales as 1/X0, so a' and (a^-2 a')' go
        # as X0^-1 and X0^-2
        da = fourier.deriv(a, X0)
        visc = fourier.deriv(a ** -2 * da, X0)
        J[:n, n + 1] = -((c0 * c0 - a ** -3) * da + 2.0 * c0 * nu * visc) / X0
        J[n, :n] = 2.0 * cosw / n
        J[n + 1, :n] = 2.0 * sinw / n
        return J

    x, _ = _newton_solve(residual, jacobian, np.append(a, [c0, X0]),
                         _NEWTON_TOL,
                         lambda x: np.min(x[:n]) > 0.0 and x[n + 1] > 0.0)
    return x[:n], float(x[n]), float(x[n + 1])


# The limit waves solved so far in the open _limit_table block, keyed by
# (q0, nu) and then by X0; None outside a block.
_LIMITS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "rollwave_limit_waves", default=None)


@contextlib.contextmanager
def _limit_table():
    """Share limit waves among the limit_profile_alpha_m2 calls of a block.

    sweep.stability_map and sweep.boundary_bisect run inside one.  A nested
    block reuses the table of the outer one, and the outermost block drops
    it on exit, so no wave outlives the call that opened it.
    """
    if _LIMITS.get() is not None:
        yield
        return
    token = _LIMITS.set({})
    try:
        yield
    finally:
        _LIMITS.reset(token)


def limit_profile_alpha_m2(q0: float, X0: float,
                           nu: float = 0.1) -> LimitProfile:
    """Converge the alpha = -2 limiting wave with period X0 at fixed q0.

    Walks onto the branch bifurcating at X_onset = 2 pi sqrt(nu) q0^{5/2}
    by amplitude-pinned continuation (period free), then follows the wave in
    its period to the requested X0 with _follow (_limit_continue).  The
    speed c0 is always a Newton unknown, and the grid is the walk's
    _LIMIT_N0 nodes, doubled wherever the spectral tail asks for it.

    Inside a map or a bisection (a _limit_table block) each (q0, X0, nu) is
    solved once and the same wave is returned for it again.  A new X0
    continues in the period, up or down, from the wave of that (q0, nu)
    nearest in log X0 (one refined past _LIMIT_N0 nodes seeds only a larger
    X0), and is walked from onset only if no wave can seed it or the
    continuation fails; a tail unresolved at _LIMIT_N_CAP nodes raises
    TruncationUnresolved, which neither retries.  Such a wave depends on
    the neighbour that seeded it at the level of rounding; the same calls
    in the same order give the same bits.
    """
    for name, v in (("q0", q0), ("X0", X0), ("nu", nu)):
        require_positive(name, v)
    X_onset = 2.0 * np.pi * np.sqrt(nu) * q0 ** 2.5
    if X0 <= X_onset:
        raise DomainError(
            f"limiting waves exist only for X0 > {X_onset:.6g}, got {X0}")
    family, seeds = _LIMITS.get(), []
    if family is not None:
        family = family.setdefault((q0, nu), {})
        if X0 in family:
            return family[X0]
        # the continuation never coarsens, so a wave refined past the walk's
        # grid seeds only larger periods
        seeds = [w for w in family.values()
                 if w.X0 < X0 or w.n == _LIMIT_N0]
    prof = None
    if seeds:
        near = min(seeds, key=lambda w: abs(np.log(w.X0 / X0)))
        try:
            prof = _limit_continue(near, X0)
        except (NonConvergence, ContinuationStalled, DegenerateJacobian):
            pass
    if prof is None:
        prof = _limit_continue(_limit_walk(q0, X0, nu, X_onset), X0)
    if family is not None:
        family[X0] = prof
    return prof


def _limit_walk(q0: float, X0: float, nu: float,
                X_onset: float) -> LimitProfile:
    """Walk from onset onto the bifurcated branch, up to the period X0.

    Steps the pinned amplitude up by 1.3 from 1 % of the constant state a*
    on _LIMIT_N0 nodes while the next amplitude stays within a* (the trough
    nears a = 0 past it) and no mode of the Nyquist band |k| >= n/2 - 1 is
    above _WALK_TAIL of the largest (deep waves need refinement first).
    Returns the natural wave at the period reached.
    """
    a_star = q0 ** -2
    x = fourier.grid(_LIMIT_N0, 1.0)
    A = 0.01 * a_star
    a = a_star + A * np.cos(2.0 * np.pi * x)
    c0, X_cur = q0 ** 3, X_onset * 1.0001
    while True:
        try:
            a, c0, X_cur = _limit_pinned(a, q0, c0, X_cur, nu, A)
        except (NonConvergence, DegenerateJacobian):
            # amplitude stepping broke down; fall back to natural
            # continuation in X0 from the last wave
            break
        if (X_cur >= X0 or 1.3 * A > a_star
                or fourier.tail_mode(a, _WALK_TAIL) >= _LIMIT_N0 // 2 - 1):
            break
        A *= 1.3
    return _limit_newton(a, q0, c0, min(X_cur, X0), nu)


def _limit_continue(prof: LimitProfile, X0: float) -> LimitProfile:
    """Continue a limit wave in its period to X0.

    Follows (a, c0) with _follow in s = |ln(X0 / X_from)|, up or down, with
    steps of at most a factor 1.2 and a stall below 1e-8 in ln X0.  Each
    point, the starting one first, has its grid doubled while the spectral
    tail is unresolved, a mode of the Nyquist band |k| >= n/2 - 1 above
    _LIMIT_TAIL of the largest: a converged but unresolved iterate is a
    spurious discrete solution.  The grid is never coarsened.  A point still
    unresolved on _LIMIT_N_CAP nodes raises TruncationUnresolved, naming
    both X0 and the point of the path where it failed.
    """
    q0, nu, X_from = prof.q0, prof.nu, prof.X0

    def resolved(prof: LimitProfile) -> LimitProfile:
        while fourier.tail_mode(prof.a, _LIMIT_TAIL) >= prof.n // 2 - 1:
            if prof.n >= _LIMIT_N_CAP:
                chat = np.abs(fourier.fourier_coeffs(prof.a))
                band = chat[prof.n // 2 - 1:prof.n // 2 + 2].max() / chat.max()
                raise TruncationUnresolved(
                    f"limit wave for X0 = {X0:.6g} unresolved at X0 = "
                    f"{prof.X0:.6g} on n = {prof.n} nodes: its Nyquist band "
                    f"is {band:.1e} of its largest mode, above "
                    f"{_LIMIT_TAIL:g}")
            a_seed = np.maximum(fourier.resample(prof.a, 2 * prof.n),
                                0.05 * np.min(prof.a))
            prof = _limit_newton(a_seed, q0, prof.c0, prof.X0, nu)
        return prof

    prof = resolved(prof)
    if X0 != X_from:
        length = abs(np.log(X0 / X_from))
        up = X0 > X_from

        def solve(s, x):
            # X0 exactly at the end of the path
            X = X0 if s == length else X_from * np.exp(s if up else -s)
            w = resolved(_limit_newton(x[:-1], q0, x[-1], X, nu))
            return np.append(w.a, w.c0), w

        prof = _follow(solve, np.append(prof.a, prof.c0), length,
                       0.5 * np.log(1.2), 1e-8)
    return prof


def _limit_newton(a: np.ndarray, q0: float, c0: float, X0: float,
                  nu: float) -> LimitProfile:
    coeffs = (1.0, 0.0, nu, q0, X0)
    a, c0 = _locked_newton(lambda a, c0: _equation(a, c0, *coeffs), a, c0,
                           coeffs)
    return LimitProfile(q0=q0, X0=X0, nu=nu, c0=c0, a=a)


def profile_from_limit(q0: float, X0: float, F: float, nu: float = 0.1,
                       n: int = 1024) -> WaveProfile:
    """Physical wave on the alpha = -2 family (q = q0 F, X = X0 F^2).

    In the scaled unknowns (a = tau F^2, c0 = c / F^2) the profile equation
    is _equation(a, c0, 1, 1/F, nu, q0, X0), and its 1/F = 0 end is the
    limiting wave.  Solves that wave, then follows (a, c0) with _follow in
    the share s = F / F_v from the limit (s = 0) to the target (s = 1), each
    point a solve_profile call at F_v = F / s, from a first step of a
    quarter of the way down to a smallest of 1e-4.  The path runs on the
    grid asked for, max(n, _LIMIT_N0) nodes, but never finer than the grid
    the limit solve resolved; a finer limit wave is resampled down to it.
    The path's waves only seed the next step: the last is resampled to the
    larger of n and the limit's grid, when it is coarser, and solved once
    more at the target F, so that larger grid is the one returned.
    """
    require_positive("F", F)
    lp = limit_profile_alpha_m2(q0, X0, nu=nu)
    m, n_out = min(lp.n, max(n, _LIMIT_N0)), max(n, lp.n)
    a = lp.a if lp.n == m else fourier.resample(lp.a, m)

    def solve(s, x):
        Fv = F / s
        params = PhysicalParams(F=Fv, nu=nu, q=q0 * Fv, c=x[-1] * Fv ** 2,
                                X=X0 * Fv ** 2)
        w = solve_profile(params, x[:-1] / Fv ** 2)
        return np.append(w.tau * Fv ** 2, w.params.c / Fv ** 2), w

    w = _follow(solve, np.append(a, lp.c0), 1.0, 0.25, 1e-4)
    if w.n < n_out:
        w = solve_profile(w.params, fourier.resample(w.tau, n_out))
    return w


@dataclass(frozen=True)
class HamOrbit:
    """Periodic orbit of the Hamiltonian alpha > -2 limit h'' = 1/h - 1."""

    h_minus: float
    h_plus: float
    mu: float
    X_mu: float
    h: np.ndarray
    dh: np.ndarray

    @property
    def n(self) -> int:
        return len(self.h)


def _ham_potential(x: float | np.ndarray, mu: float):
    return mu - x + np.log(x)


def ham_orbit(h_minus: float, n: int = 512) -> HamOrbit:
    """Periodic orbit through the turning point h_minus in (0, 1).

    The invariant is mu = h - ln h + (h')^2 / 2; the conjugate turning point
    h_plus > 1 solves h - ln h = mu, so h_plus = -W_{-1}(-e^{-mu}) on the
    lower branch of Lambert's W, and the period

        X_mu = sqrt(2) * int_{h-}^{h+} (mu - x + ln x)^{-1/2} dx

    is evaluated after the substitution x = h_- + (h_+ - h_-) sin^2(t), which
    removes both square-root endpoint singularities.
    """
    if not 0.0 < h_minus < 1.0:
        raise DomainError(f"turning point must lie in (0, 1), got {h_minus}")
    mu = h_minus - np.log(h_minus)
    from scipy.special import lambertw
    h_plus = float(-lambertw(-np.exp(-mu), -1).real)

    nodes, weights = np.polynomial.legendre.leggauss(120)
    t = 0.25 * np.pi * (nodes + 1.0)
    wt = 0.25 * np.pi * weights
    span = h_plus - h_minus
    x = h_minus + span * np.sin(t) ** 2
    integrand = (np.sqrt(2.0) * span * np.sin(2.0 * t)
                 / np.sqrt(_ham_potential(x, mu)))
    X_mu = float(np.sum(wt * integrand))

    from scipy.integrate import solve_ivp

    def rhs(_, y):
        return [y[1], 1.0 / y[0] - 1.0]

    xs = fourier.grid(n, X_mu)
    sol = solve_ivp(rhs, (0.0, X_mu), [h_minus, 0.0], t_eval=xs,
                    rtol=1e-12, atol=1e-14, method="DOP853")
    h = sol.y[0]
    dh = sol.y[1]
    return HamOrbit(h_minus=h_minus, h_plus=h_plus, mu=float(mu),
                    X_mu=X_mu, h=h, dh=dh)


def ham_selection_c0(orbit: HamOrbit, q0: float) -> tuple[float, float, float]:
    """The selected limiting speed c0^2 on a Hamiltonian orbit, three ways.

    With a = (q0^2 h)^{-1}, evaluates c0^2 = int a^-5 (a')^2 / int a^-2 (a')^2
    (i) by the integration-by-parts form -1/2 int (1/a)'(1/a^2)' / int (1/a)' a',
    (ii) directly from the a samples, and (iii) in the orbit variables as
    q0^6 int h h'^2 / int h^-2 h'^2.  Returns the triple for cross-checking.
    """
    h, dh, X = orbit.h, orbit.dh, orbit.X_mu
    a = 1.0 / (q0 * q0 * h)
    da = fourier.deriv(a, X)
    inv_a = q0 * q0 * h
    d_inv_a = q0 * q0 * fourier.deriv(h, X)
    d_inv_a2 = fourier.deriv(inv_a ** 2, X)

    f1 = (-0.5 * fourier.quad(d_inv_a * d_inv_a2, X)
          / fourier.quad(d_inv_a * da, X))
    f2 = (fourier.quad(a ** -5 * da ** 2, X)
          / fourier.quad(a ** -2 * da ** 2, X))
    f3 = (q0 ** 6 * fourier.quad(h * dh ** 2, X)
          / fourier.quad(h ** -2 * dh ** 2, X))
    return float(f1), float(f2), float(f3)
