"""Periodic traveling-wave profiles: collocation solvers and continuation.

The Lagrangian traveling-wave problem reduces, after the first integral
u = q - c tau, to a scalar second-order equation for tau.  We solve its
residual form

    G(tau) = c^2 tau' - tau'/(F^2 tau^3) - 1 + tau (q - c tau)^2
             + c nu (tau^-2 tau')' = 0

by Fourier collocation Newton with the wave speed c free and a phase
condition locking translation against the seed.  Waves are indexed by (q, X);
c is always an output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import fourier
from .model import DomainError, PhysicalParams


class NonConvergence(RuntimeError):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


class DegenerateJacobian(RuntimeError):
    """The collocation Jacobian was numerically singular."""


class ContinuationStalled(RuntimeError):
    """Adaptive continuation hit the minimum step without converging."""


@dataclass(frozen=True)
class WaveProfile:
    """A converged (or asymptotic) periodic wave sampled on a uniform grid."""

    params: PhysicalParams
    n: int
    tau: np.ndarray
    dtau: np.ndarray
    residual_norm: float
    provenance: str = "newton"

    @property
    def u(self) -> np.ndarray:
        return self.params.q - self.params.c * self.tau

    @property
    def x(self) -> np.ndarray:
        return fourier.grid(self.n, self.params.X)

    def to_json(self) -> str:
        p = self.params
        return json.dumps({
            "params": {"F": p.F, "nu": p.nu, "q": p.q, "c": p.c, "X": p.X,
                       **({"tau0": p.tau0} if p.tau0 is not None else {})},
            "n": self.n,
            "tau": list(self.tau),
            "dtau": list(self.dtau),
            "c": p.c,
            "q": p.q,
            "residual": self.residual_norm,
        })

    @classmethod
    def from_json(cls, text: str) -> "WaveProfile":
        data = json.loads(text)
        params = PhysicalParams(**data["params"])
        return cls(params=params, n=int(data["n"]),
                   tau=np.asarray(data["tau"], dtype=float),
                   dtau=np.asarray(data["dtau"], dtype=float),
                   residual_norm=float(data["residual"]),
                   provenance="file")


def ode_residual(tau: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Pointwise residual of the profile equation at the given samples."""
    F, nu, q, c, X = params.F, params.nu, params.q, params.c, params.X
    dt = fourier.deriv(tau, X)
    visc = fourier.deriv(tau ** -2 * dt, X)
    return (c * c * dt - dt / (F * F * tau ** 3) - 1.0
            + tau * (q - c * tau) ** 2 + c * nu * visc)


def equilibrium(F: float, nu: float, tau0: float = 1.0,
                X: float = 2.0 * np.pi, n: int = 64) -> WaveProfile:
    """The constant state tau = tau0 as a degenerate WaveProfile."""
    c = tau0 ** -1.5 / F        # the neutral (Hopf) wave speed
    q = tau0 ** -0.5 + c * tau0
    params = PhysicalParams(F=F, nu=nu, q=q, c=c, X=X, tau0=tau0)
    tau = np.full(n, tau0)
    return WaveProfile(params=params, n=n, tau=tau, dtau=np.zeros(n),
                       residual_norm=float(np.max(np.abs(ode_residual(tau, params)))),
                       provenance="equilibrium")


_NEWTON_MAX_ITER = 60


def _newton(tau: np.ndarray, params: PhysicalParams, seed_tau: np.ndarray,
            seed_dtau: np.ndarray, tol: float):
    """Newton iteration for (tau, c) at fixed (F, nu, q, X)."""
    n = len(tau)
    F, nu, X = params.F, params.nu, params.X
    c, q = params.c, params.q
    D1 = fourier.diff_matrix(n, X, 1)

    def residual(tau, c):
        G = ode_residual(tau, params.with_(c=c))
        phase = float(np.mean((tau - seed_tau) * seed_dtau))
        return G, phase

    def norm(G, phase):
        return max(float(np.max(np.abs(G))), abs(phase))

    G, phase = residual(tau, c)
    err = norm(G, phase)
    for _ in range(_NEWTON_MAX_ITER):
        if err <= tol:
            break
        if np.min(tau) <= 0.0:
            raise NonConvergence("profile left the physical region tau > 0", err)
        dt = fourier.deriv(tau, X)
        J = np.zeros((n + 1, n + 1))
        dG_dtau = (c * c * D1
                   - (1.0 / (F * F * tau ** 3))[:, None] * D1
                   + np.diag(3.0 * dt / (F * F * tau ** 4)
                             + (q - c * tau) ** 2
                             - 2.0 * c * tau * (q - c * tau))
                   + c * nu * ((D1 * (tau ** -2)[None, :]) @ D1
                               - 2.0 * D1 * (tau ** -3 * dt)[None, :]))
        J[:n, :n] = dG_dtau
        J[:n, n] = (2.0 * c * dt - 2.0 * tau ** 2 * (q - c * tau)
                    + nu * fourier.deriv(tau ** -2 * dt, X))
        J[n, :n] = seed_dtau / n
        try:
            step = np.linalg.solve(J, np.concatenate([G, [phase]]))
        except np.linalg.LinAlgError as exc:
            raise DegenerateJacobian(str(exc)) from None
        if not np.all(np.isfinite(step)):
            raise DegenerateJacobian("non-finite Newton step")

        lam = 1.0
        for _ in range(10):
            tau_new = tau - lam * step[:n]
            c_new = c - lam * step[n]
            if np.min(tau_new) > 0.0:
                G_new, phase_new = residual(tau_new, c_new)
                if norm(G_new, phase_new) < err:
                    tau, c = tau_new, c_new
                    G, phase = G_new, phase_new
                    err = norm(G, phase)
                    break
            lam *= 0.5
        else:
            raise NonConvergence(
                f"line search stalled at residual {err:.3e}", err)
    else:
        raise NonConvergence(f"no convergence after {_NEWTON_MAX_ITER} "
                             f"iterations, residual {err:.3e}", err)
    return tau, c, err


def solve_profile(params: PhysicalParams, seed_tau: np.ndarray,
                  tol: float = 1e-8) -> WaveProfile:
    """Converge a periodic profile at fixed (F, nu, q, X) with c free.

    `params.c` is the initial guess for the speed.
    """
    seed_tau = np.asarray(seed_tau, dtype=float)
    if np.min(seed_tau) <= 0.0:
        raise DomainError("seed profile must be strictly positive")
    seed_dtau = fourier.deriv(seed_tau, params.X)
    tau, c, err = _newton(seed_tau.copy(), params, seed_tau, seed_dtau, tol)
    out_params = params.with_(c=c)
    return WaveProfile(params=out_params, n=len(tau), tau=tau,
                       dtau=fourier.deriv(tau, out_params.X),
                       residual_norm=err, provenance="newton")


_MIN_STEP = 1e-6        # smallest continuation step, as a share of the segment


def continue_profile(start: WaveProfile, tol: float = 1e-8,
                     **targets) -> WaveProfile:
    """Continue a converged wave to new values of F, nu, q and/or X.

    Moves along the straight segment in parameter space with adaptive step
    halving (and doubling after successes); the previous two converged
    profiles supply a secant predictor.  Raises ContinuationStalled when the
    step falls below _MIN_STEP of the segment.
    """
    for key in targets:
        if key not in ("F", "nu", "q", "X"):
            raise DomainError(f"cannot continue in parameter {key!r}")
    p0 = start.params
    begin = {k: getattr(p0, k) for k in targets}
    current = start
    prev: WaveProfile | None = None
    s, ds = 0.0, 1.0
    while s < 1.0:
        step = min(ds, 1.0 - s)
        s_try = s + step
        vals = {k: begin[k] + s_try * (targets[k] - begin[k]) for k in targets}
        guess_tau = current.tau
        if prev is not None and ds > 0.0:
            # secant predictor along the path parameter
            guess_tau = current.tau + (current.tau - prev.tau) * (step / max(ds, 1e-30))
            if np.min(guess_tau) <= 0.0:
                guess_tau = current.tau
        try:
            params = current.params.with_(**vals)
            nxt = solve_profile(params, guess_tau, tol=tol)
            amp_old = float(np.ptp(current.tau))
            amp_new = float(np.ptp(nxt.tau))
            if amp_old > 1e-3 * np.mean(current.tau) and amp_new < 0.2 * amp_old:
                # Newton fell onto the constant branch; treat as a failed step.
                raise NonConvergence("amplitude collapse", amp_new)
        except (NonConvergence, DegenerateJacobian):
            ds = 0.5 * step
            if ds < _MIN_STEP:
                raise ContinuationStalled(
                    f"continuation stalled at s={s:.6f} of {targets}") from None
            continue
        prev, current = current, nxt
        s = s_try
        ds = min(2.0 * step, 1.0)
    return current


@dataclass(frozen=True)
class LimitProfile:
    """Periodic wave of the alpha = -2 large-F limit on [0, X0)."""

    q0: float
    X0: float
    nu: float
    c0: float
    n: int
    a: np.ndarray
    da: np.ndarray
    residual_norm: float


def _limit_jacobian_block(a: np.ndarray, da: np.ndarray, c0: float, nu: float,
                          q0: float, D1: np.ndarray) -> np.ndarray:
    n = len(a)
    return (c0 * c0 * D1 - (a ** -3)[:, None] * D1
            + np.diag(3.0 * a ** -4 * da)
            + nu * c0 * ((D1 * (a ** -2)[None, :]) @ D1
                         - 2.0 * D1 * (a ** -3 * da)[None, :])
            + q0 * q0 * np.eye(n))


def limit_ode_residual(a: np.ndarray, q0: float, c0: float, X0: float,
                       nu: float) -> np.ndarray:
    """Residual of the alpha = -2 limiting profile equation."""
    da = fourier.deriv(a, X0)
    return (c0 * c0 * da - a ** -3 * da + nu * c0 * fourier.deriv(a ** -2 * da, X0)
            + q0 * q0 * a - 1.0)


def _limit_pinned(a: np.ndarray, q0: float, c0: float, X0: float, nu: float,
                  A: float, tol: float):
    """Newton with the first cosine coefficient pinned to A and X0 free.

    Used to walk onto the bifurcated branch near onset, where natural Newton
    falls back to the constant state.  Translation is fixed by zeroing the
    first sine coefficient.
    """
    n = len(a)
    j = np.arange(n)
    cosw = np.cos(2.0 * np.pi * j / n)
    sinw = np.sin(2.0 * np.pi * j / n)

    def full_res(a, c0, X0):
        G = limit_ode_residual(a, q0, c0, X0, nu)
        pin = 2.0 * float(np.mean(a * cosw)) - A
        phs = 2.0 * float(np.mean(a * sinw))
        return G, pin, phs

    for _ in range(_NEWTON_MAX_ITER):
        G, pin, phs = full_res(a, c0, X0)
        err = max(float(np.max(np.abs(G))), abs(pin), abs(phs))
        if err <= tol:
            return a, float(c0), float(X0)
        D1 = fourier.diff_matrix(n, X0, 1)
        da = fourier.deriv(a, X0)
        J = np.zeros((n + 2, n + 2))
        J[:n, :n] = _limit_jacobian_block(a, da, c0, nu, q0, D1)
        J[:n, n] = 2.0 * c0 * da + nu * fourier.deriv(a ** -2 * da, X0)
        h = 1e-7 * X0
        J[:n, n + 1] = (limit_ode_residual(a, q0, c0, X0 + h, nu)
                        - limit_ode_residual(a, q0, c0, X0 - h, nu)) / (2.0 * h)
        J[n, :n] = 2.0 * cosw / n
        J[n + 1, :n] = 2.0 * sinw / n
        try:
            step = np.linalg.solve(J, np.concatenate([G, [pin, phs]]))
        except np.linalg.LinAlgError as exc:
            raise DegenerateJacobian(str(exc)) from None
        a = a - step[:n]
        c0 = c0 - step[n]
        X0 = X0 - step[n + 1]
        if np.min(a) <= 0.0 or X0 <= 0.0:
            raise NonConvergence("pinned step left the physical region", err)
    raise NonConvergence(f"pinned Newton stalled at residual {err:.3e}", err)


_LIMIT_TOL = 1e-10      # final residual of the limiting wave


def limit_profile_alpha_m2(q0: float, X0: float, nu: float = 0.1,
                           n: int = 256) -> LimitProfile:
    """Converge the alpha = -2 limiting wave with period X0 at fixed q0.

    Walks onto the branch bifurcating at X_onset = 2 pi sqrt(nu) q0^{5/2}
    by amplitude-pinned continuation (period free), then continues in the
    period to the requested X0.  The speed c0 is always a Newton unknown.
    """
    if q0 <= 0.0 or X0 <= 0.0:
        raise DomainError("q0 and X0 must be positive")
    a_star = q0 ** -2
    X_onset = 2.0 * np.pi * np.sqrt(nu) * q0 ** 2.5
    if X0 <= X_onset:
        raise DomainError(
            f"limiting waves exist only for X0 > {X_onset:.6g}, got {X0}")

    def tail_ratio(a: np.ndarray) -> float:
        ahat = np.abs(np.fft.fft(a))
        m = len(a) // 2
        return float(np.max(ahat[m - 1:m + 2]) / np.max(ahat))

    def refine(prof: "LimitProfile", m: int, tol_r: float) -> "LimitProfile":
        a_seed = np.maximum(fourier.resample(prof.a, m),
                            0.05 * np.min(prof.a))
        return _limit_newton(a_seed, q0, prof.c0, prof.X0, nu, tol_r)

    # walk onto the bifurcated branch at coarse resolution; stop early if
    # the spectral tail outgrows the grid (deep waves need refinement first)
    n0 = min(n, 256)
    rough = 1e-8        # continuation residual; the last solve tightens it
    x = fourier.grid(n0, 1.0)
    A = 0.01 * a_star
    a = a_star + A * np.cos(2.0 * np.pi * x)
    c0, X_cur = q0 ** 3, X_onset * 1.0001
    while True:
        try:
            a, c0, X_cur = _limit_pinned(a, q0, c0, X_cur, nu, A, rough)
        except (NonConvergence, DegenerateJacobian):
            # amplitude stepping broke down (profile close to a = 0);
            # fall back to natural continuation in X0 from the last wave
            break
        if X_cur >= X0 or A > 2.0 * a_star or tail_ratio(a) > 1e-3:
            break
        A *= 1.3
    prof = _limit_newton(a, q0, c0, min(X_cur, X0), nu, rough)

    # continue in X0, doubling the grid whenever the tail is unresolved;
    # a converged-but-unresolved iterate is a spurious discrete solution
    while True:
        while tail_ratio(prof.a) > 1e-4 and prof.n < 8192:
            prof = refine(prof, 2 * prof.n, rough)
        if prof.X0 >= X0:
            break
        X_next = min(X0, prof.X0 * 1.2)
        while True:
            try:
                nxt = _limit_newton(prof.a.copy(), q0, prof.c0, X_next,
                                    nu, rough)
                break
            except NonConvergence:
                X_next = 0.5 * (prof.X0 + X_next)
                if X_next - prof.X0 < 1e-8 * X0:
                    raise ContinuationStalled(
                        f"limit-profile continuation stalled at "
                        f"X0={prof.X0}") from None
        prof = nxt

    # requested resolution (never coarsened below what convergence needed)
    while prof.n < n:
        prof = refine(prof, min(2 * prof.n, n), rough)
    if prof.residual_norm > _LIMIT_TOL:
        try:
            prof = _limit_newton(prof.a.copy(), q0, prof.c0, X0, nu,
                                 _LIMIT_TOL)
        except NonConvergence:
            pass        # at the rounding floor of the discretization
    return prof


def _limit_newton(a: np.ndarray, q0: float, c0: float, X0: float, nu: float,
                  tol: float) -> LimitProfile:
    n = len(a)
    seed, dseed = a.copy(), fourier.deriv(a, X0)
    D1 = fourier.diff_matrix(n, X0, 1)
    err = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        G = limit_ode_residual(a, q0, c0, X0, nu)
        phase = float(np.mean((a - seed) * dseed))
        err = max(float(np.max(np.abs(G))), abs(phase))
        if err <= tol:
            break
        da = fourier.deriv(a, X0)
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = _limit_jacobian_block(a, da, c0, nu, q0, D1)
        J[:n, n] = 2.0 * c0 * da + nu * fourier.deriv(a ** -2 * da, X0)
        J[n, :n] = dseed / n
        try:
            step = np.linalg.solve(J, np.concatenate([G, [phase]]))
        except np.linalg.LinAlgError as exc:
            raise DegenerateJacobian(str(exc)) from None
        if np.max(np.abs(step)) < 1e-13 * max(1.0, np.max(np.abs(a))):
            # rounding floor of the spectral residual; keep the iterate
            break
        a_new = a - step[:n]
        for _ in range(12):
            if np.min(a_new) > 0.0:
                break
            step *= 0.5
            a_new = a - step[:n]
        else:
            raise NonConvergence("limit profile left a > 0", err)
        a = a_new
        c0 = c0 - step[n]
    # the attainable residual floor grows with the squared node count
    # (spectral second derivatives amplify rounding)
    if err > max(tol, 1e-8 * max(1.0, (n / 256.0) ** 2)):
        raise NonConvergence(f"limit profile Newton stalled at {err:.3e}", err)
    return LimitProfile(q0=q0, X0=X0, nu=nu, c0=float(c0), n=n, a=a,
                        da=fourier.deriv(a, X0), residual_norm=err)


_F_START = 100.0        # Froude number where the descent from the limit starts


def profile_from_limit(q0: float, X0: float, F: float, nu: float = 0.1,
                       n: int = 1024, tol: float = 1e-8) -> WaveProfile:
    """Physical wave on the alpha = -2 family (q = q0 F, X = X0 F^2).

    Solves the F = infinity limiting profile, seeds the physical problem at
    _F_START where the O(1/F) model error is small, and descends to the
    target F adaptively in log F, carrying the wave in the scaled variable
    a = tau F^2.
    """
    if F <= 0.0:
        raise DomainError(f"F must be positive, got {F}")
    lp = limit_profile_alpha_m2(q0, X0, nu=nu, n=n)
    a_cur, c_cur = lp.a, lp.c0
    F_cur = max(F, _F_START)
    w = None

    def solve_at(Fv, a_seed, c_seed):
        params = PhysicalParams(F=Fv, nu=nu, q=q0 * Fv, c=c_seed * Fv ** 2,
                                X=X0 * Fv ** 2)
        return solve_profile(params, a_seed / Fv ** 2, tol=tol)

    w = solve_at(F_cur, a_cur, c_cur)
    a_cur, c_cur = w.tau * F_cur ** 2, w.params.c / F_cur ** 2
    step = 0.35
    s = np.log(F_cur)
    s_end = np.log(F)
    while s > s_end + 1e-12:
        ds = min(step, s - s_end)
        F_try = np.exp(s - ds)
        try:
            w_try = solve_at(F_try, a_cur, c_cur)
            # converging onto the coexisting constant state is a failure,
            # not a continuation step
            if np.ptp(w_try.tau) * F_try ** 2 < 0.1 * np.ptp(a_cur):
                raise NonConvergence(
                    f"amplitude collapsed at F={F_try:.4g}")
        except (NonConvergence, DegenerateJacobian):
            step = 0.5 * ds
            if step < 1e-4:
                raise ContinuationStalled(
                    f"descent in F stalled at F={np.exp(s):.4g}") from None
            continue
        w = w_try
        s = s - ds
        a_cur, c_cur = w.tau * F_try ** 2, w.params.c / F_try ** 2
        step = min(1.3 * ds, 0.7)
    return w


@dataclass(frozen=True)
class HamOrbit:
    """Periodic orbit of the Hamiltonian alpha > -2 limit h'' = 1/h - 1."""

    h_minus: float
    h_plus: float
    mu: float
    X_mu: float
    n: int
    h: np.ndarray
    dh: np.ndarray


def _ham_potential(x: float | np.ndarray, mu: float):
    return mu - x + np.log(x)


def ham_orbit(h_minus: float, n: int = 512) -> HamOrbit:
    """Periodic orbit through the turning point h_minus in (0, 1).

    The invariant is mu = h - ln h + (h')^2 / 2; the conjugate turning point
    h_plus > 1 solves h - ln h = mu by bisection, and the period

        X_mu = sqrt(2) * int_{h-}^{h+} (mu - x + ln x)^{-1/2} dx

    is evaluated after the substitution x = h_- + (h_+ - h_-) sin^2(t), which
    removes both square-root endpoint singularities.
    """
    if not 0.0 < h_minus < 1.0:
        raise DomainError(f"turning point must lie in (0, 1), got {h_minus}")
    mu = h_minus - np.log(h_minus)
    # h - ln h decreases on (0,1), increases on (1,inf); find the right root.
    lo, hi = 1.0, 2.0
    while hi - np.log(hi) < mu:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - np.log(mid) < mu:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, mid):
            break
    h_plus = 0.5 * (lo + hi)

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
                    X_mu=X_mu, n=n, h=h, dh=dh)


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
