"""Weakly unstable limit F -> 2+: selected cnoidal waves of KdV-KS.

In the scaled variables the wave equation is the Korteweg-de Vries /
Kuramoto-Sivashinsky traveling-wave problem

    (T^2/2 - sigma T)' + T''' + delta (T'' + T'''') = 0,

whose delta -> 0 solutions are the KdV cnoidal waves (baseline zero)

    T0(theta) = 12 k^2 kappa^2 cn^2(kappa theta, k),
    sigma0 = 4 kappa^2 (2 k^2 - 1),

with period X = 2 K(k) / kappa.  The singular perturbation selects the scale
kappa = G(k); the first corrector T1 solves L0 T1 = T0'' + T0'''' where
L0 = -d^3 - d((T0 - sigma0) . ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, hill
from .elliptic import elliptic_K, jacobi_cn, selection_kappa
from .linearize import OperatorForm, SpectralProblem, Terms
from .model import DomainError, PhysicalParams
from .profile import WaveProfile, _newton_solve, ode_residual


class SolvabilityError(RuntimeError):
    """A corrector equation violated its Fredholm solvability condition."""


def period_of_k(k: float, mc: float | None = None) -> float:
    """Period X(k) = 2 K(k) / G(k) of the selected cnoidal wave."""
    return 2.0 * elliptic_K(k, mc) / selection_kappa(k, mc)


def k_of_period(X: float) -> float:
    """Invert X(k) = 2K(k)/G(k) by bisection.

    X(k) increases from 2*pi (k -> 0) to infinity (k -> 1); the bisection runs
    in t = log(1 - k^2) so waves with k within 1e-12 of 1 stay resolvable.
    """
    if X <= 2.0 * np.pi:
        raise DomainError(f"selected periods satisfy X > 2*pi, got X={X}")

    def f(t: float) -> float:
        mc = np.exp(t)
        k = np.sqrt(max(1.0 - mc, 0.0))
        return period_of_k(k, mc) - X

    lo, hi = -80.0, np.log(1.0 - 1e-8)
    if f(lo) < 0.0:
        raise DomainError(f"period X={X} out of reachable range")
    while f(hi) > 0.0:
        hi = hi + 0.5 * (0.0 - hi)
        if hi > -1e-15:
            raise DomainError(f"period X={X} out of reachable range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(fm) <= 1e-13 or hi - lo < 1e-16 * max(1.0, abs(mid)):
            break
    k = float(np.sqrt(1.0 - np.exp(0.5 * (lo + hi))))
    # The bisection variable resolves X far below the spacing of double k near
    # k = 1; snap to whichever representable neighbor reproduces X best.
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

    @property
    def theta(self) -> np.ndarray:
        return fourier.grid(self.n, self.X)


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
    """Rounding floor of a spectral fourth derivative on n nodes.

    Each Fourier mode of relative size eps is amplified by up to
    (2 pi n / X)^4, so least-squares residuals of corrector equations
    cannot be driven below this level however consistent the equation is.
    """
    return 64.0 * np.finfo(float).eps * (np.pi * n / X) ** 4 * max(1.0, scale)


def _drop_nyquist(f: np.ndarray) -> np.ndarray:
    """Remove the unpaired Nyquist mode from a real sample vector.

    The collocated third-derivative matrix annihilates the Nyquist mode, so
    least-squares corrector solves leave it undetermined up to rounding;
    even-order derivatives later amplify that noise by (pi n / X)^4.
    """
    n = len(f)
    if n % 2:
        return f
    c = np.fft.fft(f)
    c[n // 2] = 0.0
    return np.real(np.fft.ifft(c))


def corrector_T1(wave: CnoidalWave) -> np.ndarray:
    """First corrector: solves L0 T1 = T0'' + T0'''' orthogonal to ker L0.

    The right side is even about the crest and L0 exchanges parities, so the
    minimum-norm least-squares solution is the odd corrector with no kernel
    (translation) component.  Raises SolvabilityError when the residual of the
    least-squares solve shows the compatibility condition fails.
    """
    D1 = fourier.diff_matrix(wave.n, wave.X, 1)
    D3 = fourier.diff_matrix(wave.n, wave.X, 3)
    A = -D3 - D1 * (wave.T0 - wave.sigma0)[None, :]     # collocated L0
    rhs = fourier.deriv(wave.T0, wave.X, 2) + fourier.deriv(wave.T0, wave.X, 4)
    T1, _, _, sv = np.linalg.lstsq(A, rhs, rcond=1e-10)
    T1 = _drop_nyquist(T1)
    resid = np.max(np.abs(A @ T1 - rhs))
    scale = np.max(np.abs(rhs))
    if resid > max(1e-6 * max(scale, 1.0),
                   _derivative_floor(wave.n, wave.X, scale)):
        raise SolvabilityError(
            f"corrector equation inconsistent: residual {resid:.3e}")
    return T1


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
    dtau = fourier.deriv(tau, X)
    res = float(np.max(np.abs(ode_residual(tau, params))))
    return WaveProfile(params=params, n=n, tau=tau, dtau=dtau,
                       residual_norm=res)


# The KdV-KS classification: the wave's grid, the Hill truncation (modes
# |j| <= N) and the Floquet grid, whose 48 solved rows are xi = -pi/X and
# j pi/(48 X), j = 1..47.
_KDVKS_WAVE_N = 512
_KDVKS_N = 40
_KDVKS_XI = 96

# Largest growth rate that still counts as stable.  It absorbs the
# numerically neutral xi -> 0 tangency of the critical Bloch curves, which
# sits at the wave's residual floor (~1e-10).
STABLE_GROWTH_TOL = 1e-7


def kdvks_wave(delta: float,
               k: float) -> tuple[CnoidalWave, np.ndarray, float]:
    """Newton-converged KdV-KS wave of period X(k) on _KDVKS_WAVE_N nodes.

    Seeds with the two-term expansion T0 + delta_tilde T1 and solves

        (T^2/2 - sigma T)' + T''' + delta (T'' + T'''') = 0

    with free speed sigma and a phase condition against the seed.  Returns
    (cnoidal seed, converged samples T, converged speed sigma).  Converging
    the wave matters: the Bloch spectrum about the truncated expansion splits
    the defective translation pair by O(delta), drowning the O(delta^2)
    stability information.  Raises NonConvergence when Newton stops above
    its tolerance, the rounding floor of the fourth derivative.
    """
    n = _KDVKS_WAVE_N
    wave = cnoidal_profile(k, n=n)
    X = wave.X
    seed = wave.T0 + delta * corrector_T1(wave)
    dseed = fourier.deriv(seed, X)

    D1 = fourier.diff_matrix(n, X, 1)
    D2 = fourier.diff_matrix(n, X, 2)
    D3 = fourier.diff_matrix(n, X, 3)
    D4 = fourier.diff_matrix(n, X, 4)
    Dvisc = D3 + delta * (D2 + D4)

    def residual(x):
        T, sigma = x[:n], x[n]
        res = (fourier.deriv(0.5 * T * T - sigma * T, X)
               + fourier.deriv(T, X, 3) + delta * (fourier.deriv(T, X, 2)
                                                   + fourier.deriv(T, X, 4)))
        return np.concatenate([res, [float(np.mean((T - seed) * dseed))]])

    def jacobian(x):
        T, sigma = x[:n], x[n]
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = D1 * (T - sigma)[None, :] + Dvisc
        J[:n, n] = -fourier.deriv(T, X)
        J[n, :n] = dseed / n
        return J

    # Fourth derivatives amplify rounding by (2 pi n / X)^4; the attainable
    # residual floor scales accordingly.
    tol = max(1e-11, 64.0 * np.finfo(float).eps * (2.0 * np.pi * n / X) ** 4
              * max(1.0, np.max(np.abs(seed))))
    x, _ = _newton_solve(residual, jacobian, np.append(seed, wave.sigma0), tol,
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
    """Bloch spectrum of the period-X wave on the classification's grid;
    no classification calls it, but the benchmark's tracer wraps it."""
    return hill.spectrum(_kdvks_problem(delta, X), _KDVKS_N, _KDVKS_XI)


def kdvks_scan(delta: float, X: float) -> tuple[float, int]:
    """(mu, solves) of `hill.first_unstable` on the period-X wave: the
    largest growth rate over the rows solved until one exceeds
    STABLE_GROWTH_TOL, and the number of those rows."""
    return hill.first_unstable(_kdvks_problem(delta, X), _KDVKS_N, _KDVKS_XI,
                               0.0, STABLE_GROWTH_TOL)


def kdvks_stable(delta: float, X: float) -> bool:
    """Spectral stability verdict for the period-X wave at the given delta.

    The scan drops non-finite eigenvalues, but none can arise: `kdvks_wave`'s
    Newton raises on a NaN iterate, and `np.linalg.eigvals` raises LinAlgError
    on a non-finite matrix.
    """
    return kdvks_scan(delta, X)[0] <= STABLE_GROWTH_TOL
