"""Weakly unstable limit F -> 2+: selected cnoidal waves of KdV-KS.

In the scaled variables the wave equation is the Korteweg-de Vries /
Kuramoto-Sivashinsky traveling-wave problem, integrated once,

    T^2/2 - sigma T + T'' + delta (T' + T''') = C,

whose delta -> 0 solutions are the KdV cnoidal waves (baseline zero)

    T0(theta) = 12 k^2 kappa^2 cn^2(kappa theta, k),
    sigma0 = 4 kappa^2 (2 k^2 - 1),

with period X = 2 K(k) / kappa.  The singular perturbation selects the scale
kappa = G(k); the first corrector T1 solves L0 T1 = -(T0' + T0''') where
L0 = d^2 + T0 - sigma0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, hill
from .elliptic import elliptic_K, jacobi_cn, selection_kappa
from .linearize import OperatorForm, SpectralProblem, Terms
from .model import DomainError, NumericalFailure, PhysicalParams
from .profile import WaveProfile, _newton_solve, ode_residual


class SolvabilityError(NumericalFailure):
    """A corrector equation violated its Fredholm solvability condition."""


def period_of_k(k: float, mc: float | None = None) -> float:
    """Period X(k) = 2 K(k) / G(k) of the selected cnoidal wave."""
    return 2.0 * elliptic_K(k, mc) / selection_kappa(k, mc)


def k_of_period(X: float) -> float:
    """Invert X(k) = 2K(k)/G(k) by the Illinois method.

    X(k) increases from 2*pi (k -> 0) to infinity (k -> 1); the root is
    sought in t = log(1 - k^2) so waves with k within 1e-12 of 1 stay
    resolvable.  The Illinois variant of regula falsi halves the stored
    value at an end that survives twice, which keeps its convergence
    superlinear (Dowell & Jarratt, BIT 11, 1971).
    """
    if X <= 2.0 * np.pi:
        raise DomainError(f"selected periods satisfy X > 2*pi, got X={X}")

    def f(t: float) -> float:
        mc = np.exp(t)
        k = np.sqrt(max(1.0 - mc, 0.0))
        return period_of_k(k, mc) - X

    lo, hi = -80.0, np.log(1.0 - 1e-8)
    flo = f(lo)
    if flo < 0.0:
        raise DomainError(f"period X={X} out of reachable range")
    fhi = f(hi)
    while fhi > 0.0:
        hi *= 0.5
        if hi > -1e-15:
            raise DomainError(f"period X={X} out of reachable range")
        fhi = f(hi)
    side = 0
    for _ in range(100):
        t = (lo * fhi - hi * flo) / (fhi - flo)
        ft = f(t)
        if ft > 0.0:
            lo, flo, fhi = t, ft, fhi * (0.5 if side > 0 else 1.0)
            side = 1
        else:
            hi, fhi, flo = t, ft, flo * (0.5 if side < 0 else 1.0)
            side = -1
        if ft == 0.0 or hi - lo <= 4.0 * np.finfo(float).eps * -lo:
            break
    k = float(np.sqrt(1.0 - np.exp(t)))
    # t resolves X far below the spacing of double k near k = 1; snap to
    # whichever representable neighbor reproduces X best.
    best, err = k, np.inf
    for cand in (np.nextafter(k, 0.0), k, np.nextafter(k, 1.0)):
        if not 0.0 < cand < 1.0:
            continue
        e = abs(period_of_k(cand) - X)
        if e < err:
            best, err = float(cand), e
    return best


@dataclass(frozen=True)
class CnoidalWave:
    """A selected cnoidal wave sampled on a uniform periodic grid."""

    k: float
    kappa: float
    sigma0: float
    qtilde: float
    X: float
    n: int
    T0: np.ndarray


def cnoidal_profile(k: float, n: int = 256) -> CnoidalWave:
    """Sample the selected cnoidal wave with modulus k."""
    kappa = selection_kappa(k)
    X = 2.0 * elliptic_K(k) / kappa
    theta = fourier.grid(n, X)
    T0 = 12.0 * k * k * kappa * kappa * jacobi_cn(kappa * theta, k) ** 2
    sigma0 = 4.0 * kappa * kappa * (2.0 * k * k - 1.0)
    qtilde = 24.0 * k * k * (1.0 - k * k) * kappa ** 4
    return CnoidalWave(k=k, kappa=kappa, sigma0=sigma0, qtilde=qtilde, X=X,
                       n=n, T0=np.asarray(T0))


def selection_residual(wave: CnoidalWave) -> float:
    """Persistence integral int T0 (T0'' + T0'''') d theta over one period.

    Vanishes exactly at kappa = G(k); used as an independent check of the
    closed-form selection constant.
    """
    d2 = fourier.deriv(wave.T0, wave.X, 2)
    d4 = fourier.deriv(wave.T0, wave.X, 4)
    return fourier.quad(wave.T0 * (d2 + d4), wave.X)


def _derivative_floor(n: int, X: float, scale: float) -> float:
    """Rounding floor of a spectral third derivative on n nodes.

    The third is the highest order of the integrated KdV-KS equation.  Each
    Fourier mode of relative size eps is amplified by up to (pi n / X)^3, so
    its residuals cannot be driven below this level however consistent the
    equation is.
    """
    return 64.0 * np.finfo(float).eps * (np.pi * n / X) ** 3 * max(1.0, scale)


def _kdvks_operator(n: int, delta: float, X: float) -> np.ndarray:
    """Collocated D2 + delta (D1 + D3): the linearization of the integrated
    wave equation about T, less its diagonal T - sigma."""
    D2 = fourier.diff_matrix(n, X, 2)
    if delta == 0.0:
        return D2
    return D2 + delta * (fourier.diff_matrix(n, X, 1)
                         + fourier.diff_matrix(n, X, 3))


def _bordered(A: np.ndarray, W: np.ndarray, cols: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
    """The square matrix [[A + diag(W), cols], [rows, 0]]."""
    n, b = len(W), len(rows)
    M = np.zeros((n + b, n + b))
    M[:n, :n] = A
    M[np.diag_indices(n)] += W
    M[:n, n:] = cols
    M[n:, :n] = rows
    return M


def corrector_T1(wave: CnoidalWave) -> np.ndarray:
    """First corrector: L0 T1 = -(T0' + T0''') with <T0', T1> = 0.

    L0 = d^2 + T0 - sigma0 is symmetric with kernel T0', so the bordered
    system L0 T1 + s T0' = -(T0' + T0'''), <T0', T1> = 0 is nonsingular and
    its multiplier s is the Fredholm residual, which the selection kappa =
    G(k) makes vanish.  The right side is odd about the crest and L0 keeps
    parity, so T1 is odd.  Raises SolvabilityError when s T0' is above the
    rounding floor.
    """
    n, X = wave.n, wave.X
    d = fourier.deriv(wave.T0, X)
    rhs = -(d + fourier.deriv(wave.T0, X, 3))
    M = _bordered(_kdvks_operator(n, 0.0, X), wave.T0 - wave.sigma0,
                  d[:, None], d[None, :])
    x = np.linalg.solve(M, np.append(rhs, 0.0))
    resid = abs(x[n]) * np.max(np.abs(d))
    scale = np.max(np.abs(rhs))
    if resid > max(1e-6 * max(scale, 1.0), _derivative_floor(n, X, scale)):
        raise SolvabilityError(
            f"corrector equation inconsistent: multiplier residual "
            f"{resid:.3e}")
    return x[:n]


def asymptotic_rollwave(delta: float, k: float, nu: float, n: int = 256):
    """Approximate roll wave of the full system at F = 2 + delta^2, tau0 = 1.

    Returns a WaveProfile built from the two-term KdV-KS expansion
    T0 + delta_tilde * T1 mapped back through the weakly nonlinear scalings;
    its stored residual is the actual traveling-wave residual, O(delta^4).
    """
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    F = 2.0 + delta * delta
    wave = cnoidal_profile(k, n=n)
    dtil = delta / (2.0 * np.sqrt(nu))
    T1 = corrector_T1(wave)
    tau_tilde = -(wave.T0 + dtil * T1)

    X = np.sqrt(nu) * wave.X / delta
    tau = 1.0 + delta * delta * (1.0 / 3.0) * tau_tilde
    c = 1.0 / F + delta * delta * wave.sigma0 / 4.0
    q = 1.0 + c + delta * delta * wave.qtilde / 12.0

    params = PhysicalParams(F=F, nu=nu, q=q, c=c, X=X, tau0=1.0)
    res = float(np.max(np.abs(ode_residual(tau, params))))
    return WaveProfile(params=params, tau=tau, residual_norm=res)


# The KdV-KS classification: the wave's grid and the Floquet grid, whose 48
# solved rows are xi = -pi/X and j pi/(48 X), j = 1..47; `hill.checked_scan`
# picks the Hill truncation.
_KDVKS_WAVE_N = 512
_KDVKS_XI = 96

# Largest growth rate that still counts as stable.  It absorbs the
# numerically neutral xi -> 0 tangency of the critical Bloch curves, which
# sits at the wave's residual floor (~1e-10).
STABLE_GROWTH_TOL = 1e-7


def kdvks_wave(delta: float,
               k: float) -> tuple[CnoidalWave, np.ndarray, float]:
    """Newton-converged KdV-KS wave of period X(k) on _KDVKS_WAVE_N nodes.

    Seeds with the two-term expansion T0 + delta_tilde T1 and solves the
    integrated equation for (T, sigma, C), bordered by two rows against the
    seed: a phase condition, and the mean of T, which pins the Galilean
    shift (T + a, sigma + a).  Returns (cnoidal seed, converged samples T,
    converged speed sigma).  Converging the wave matters: the Bloch spectrum
    about the truncated expansion splits the defective translation pair by
    O(delta), drowning the O(delta^2) stability information.  Raises
    DomainError for delta <= 0, and NonConvergence when Newton stops above
    16 times the rounding floor.
    """
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    n = _KDVKS_WAVE_N
    wave = cnoidal_profile(k, n=n)
    X = wave.X
    seed = wave.T0 + delta * corrector_T1(wave)
    border = np.vstack([fourier.deriv(seed, X), np.ones(n)]) / n

    def residual(x):
        T, sigma, C = x[:n], x[n], x[n + 1]
        res = (0.5 * T * T - sigma * T + fourier.deriv(T, X, 2)
               + delta * (fourier.deriv(T, X) + fourier.deriv(T, X, 3)) - C)
        return np.concatenate([res, border @ (T - seed)])

    A = _kdvks_operator(n, delta, X)

    def jacobian(x):
        T, sigma = x[:n], x[n]
        return _bordered(A, T - sigma, -np.column_stack([T, np.ones(n)]),
                         border)

    tol = max(1e-11, 16.0 * _derivative_floor(n, X, np.max(np.abs(seed))))
    x, _ = _newton_solve(residual, jacobian,
                         np.concatenate([seed, [wave.sigma0, 0.0]]), tol,
                         lambda x: True)
    return wave, x[:n], float(x[n])


def _kdvks_problem(delta: float, X: float) -> SpectralProblem:
    """Linearization Lambda z = -(W z)' - z''' - delta (z'' + z''''),
    W = T - sigma, about the converged KdV-KS wave of period X."""
    wave, T, sigma = kdvks_wave(delta, k_of_period(X))
    W = T - sigma
    M1: Terms = {(0, 0): [(1, -W), (0, -fourier.deriv(W, wave.X)), (3, -1.0),
                          (2, -delta), (4, -delta)]}
    return SpectralProblem(kind="kdvks", period=wave.X,
                           operator=OperatorForm(m=1, M1=M1))


def kdvks_spectrum(delta: float, X: float) -> hill.SpectralCloud:
    """Bloch spectrum of the period-X wave on the classification's grid at
    the checked scan's first N; the benchmark's tracer wraps it."""
    problem = _kdvks_problem(delta, X)
    return hill.spectrum(problem, hill._truncation_size(problem), _KDVKS_XI)


def kdvks_scan(delta: float, X: float) -> hill.HillScan:
    """`hill.checked_scan` of the period-X wave against STABLE_GROWTH_TOL;
    raises hill.TruncationUnresolved with the reason of an unresolved one."""
    scan = hill.checked_scan(_kdvks_problem(delta, X), _KDVKS_XI, 0.0,
                             STABLE_GROWTH_TOL)
    if scan.reason is not None:
        raise hill.TruncationUnresolved(scan.reason)
    return scan


def kdvks_stable(delta: float, X: float) -> bool:
    """Spectral stability verdict for the period-X wave at the given delta.

    The scan drops non-finite eigenvalues, but none can arise: `kdvks_wave`'s
    Newton raises on a NaN iterate, and `np.linalg.eigvals` raises LinAlgError
    on a non-finite matrix.
    """
    return kdvks_scan(delta, X).mu <= STABLE_GROWTH_TOL
