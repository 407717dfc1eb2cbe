"""Weakly unstable limit F -> 2+: selected cnoidal waves of KdV-KS.

In the scaled variables the wave equation is the Korteweg-de Vries /
Kuramoto-Sivashinsky traveling-wave problem

    (T^2/2 - sigma T)' + T''' + delta (T'' + T'''') = 0,

whose delta -> 0 solutions are the KdV cnoidal waves

    T0(theta) = a0 + 12 k^2 kappa^2 cn^2(kappa theta, k),
    sigma0 = a0 + 4 kappa^2 (2 k^2 - 1),

with period X = 2 K(k) / kappa.  The singular perturbation selects the scale
kappa = G(k); the first corrector T1 solves L0 T1 = T0'' + T0'''' where
L0 = -d^3 - d((T0 - sigma0) . ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, hill
from .elliptic import elliptic_E, elliptic_K, jacobi_cn, selection_kappa
from .linearize import OperatorForm, SpectralProblem, Terms
from .model import DomainError, PhysicalParams
from .profile import WaveProfile, _newton_solve, ode_residual

__all__ = [
    "elliptic_K", "elliptic_E", "jacobi_cn", "selection_kappa",
    "CnoidalWave", "cnoidal_profile", "period_of_k", "k_of_period",
    "selection_residual", "SolvabilityError", "corrector_T1",
    "asymptotic_rollwave", "kdvks_spectrum", "kdvks_max_growth",
]


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

    a0: float
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


def cnoidal_profile(k: float, a0: float = 0.0, n: int = 256) -> CnoidalWave:
    """Sample the selected cnoidal wave with modulus k and baseline a0."""
    kappa = selection_kappa(k)
    X = 2.0 * elliptic_K(k) / kappa
    theta = fourier.grid(n, X)
    T0 = a0 + 12.0 * k * k * kappa * kappa * jacobi_cn(kappa * theta, k) ** 2
    sigma0 = a0 + 4.0 * kappa * kappa * (2.0 * k * k - 1.0)
    qtilde = (24.0 * k * k * (1.0 - k * k) * kappa ** 4
              - a0 * (0.5 * a0 + 4.0 * kappa * kappa * (2.0 * k * k - 1.0)))
    return CnoidalWave(a0=a0, k=k, kappa=kappa, sigma0=sigma0,
                       qtilde=qtilde, X=X, n=n, T0=np.asarray(T0))


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
    A = -D3 - D1 @ np.diag(wave.T0 - wave.sigma0)       # collocated L0
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


def asymptotic_rollwave(delta: float, k: float, nu: float,
                        tau0: float = 1.0, a0: float = 0.0, n: int = 256):
    """Approximate roll wave of the full system at F = 2 + delta^2.

    Returns a WaveProfile built from the two-term KdV-KS expansion
    T0 + delta_tilde * T1 mapped back through the weakly nonlinear scalings;
    its stored residual is the actual traveling-wave residual, O(delta^4).
    """
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    F = 2.0 + delta * delta
    wave = cnoidal_profile(k, a0=a0, n=n)
    dtil = delta / (2.0 * tau0 ** 0.25 * np.sqrt(nu))
    T1 = corrector_T1(wave)
    tau_tilde = -(wave.T0 + dtil * T1)

    X = np.sqrt(nu) * wave.X / (tau0 ** 1.25 * delta)
    tau = tau0 + delta * delta * (tau0 / 3.0) * tau_tilde
    c = tau0 ** -1.5 / F + delta * delta * wave.sigma0 / (4.0 * tau0 ** 1.5)
    u0 = tau0 ** -0.5
    q = u0 + c * tau0 + delta * delta * wave.qtilde / (12.0 * np.sqrt(tau0))

    params = PhysicalParams(F=F, nu=nu, q=q, c=c, X=X, tau0=tau0)
    dtau = fourier.deriv(tau, X)
    res = float(np.max(np.abs(ode_residual(tau, params))))
    return WaveProfile(params=params, n=n, tau=tau, dtau=dtau,
                       residual_norm=res)


def kdvks_wave(delta: float, k: float, a0: float = 0.0,
               n: int = 256) -> tuple[CnoidalWave, np.ndarray, float]:
    """Newton-converged KdV-KS wave of period X(k) at finite delta.

    Seeds with the two-term expansion T0 + delta_tilde T1 and solves

        (T^2/2 - sigma T)' + T''' + delta (T'' + T'''') = 0

    with free speed sigma and a phase condition against the seed.  Returns
    (cnoidal seed, converged samples T, converged speed sigma).  Converging
    the wave matters: the Bloch spectrum about the truncated expansion splits
    the defective translation pair by O(delta), drowning the O(delta^2)
    stability information.  Raises NonConvergence when Newton stops above
    a residual of 1e-4.
    """
    wave = cnoidal_profile(k, a0=a0, n=n)
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
        J[:n, :n] = D1 @ np.diag(T - sigma) + Dvisc
        J[:n, n] = -fourier.deriv(T, X)
        J[n, :n] = dseed / n
        return J

    # Fourth derivatives amplify rounding by (2 pi n / X)^4; the attainable
    # residual floor scales accordingly.
    tol = max(1e-11, 64.0 * np.finfo(float).eps * (2.0 * np.pi * n / X) ** 4
              * max(1.0, np.max(np.abs(seed))))
    x, _ = _newton_solve(residual, jacobian, np.append(seed, wave.sigma0), tol,
                         lambda x: True, floor=1e-4)
    return wave, x[:n], float(x[n])


def kdvks_spectrum(delta: float, k: float, N: int = 40,
                   n_xi: int = 48, a0: float = 0.0) -> dict[float, np.ndarray]:
    """Bloch spectrum of KdV-KS linearized about the converged wave.

    For each Floquet exponent xi in (0, pi/X] returns the Hill eigenvalues
    (modes |j| <= N) of Lambda z = -(W z)' - z''' - delta (z'' + z''''),
    W = T - sigma.
    """
    wave, T, sigma = kdvks_wave(delta, k, a0=a0, n=max(512, 4 * N + 2))
    X = wave.X
    W = T - sigma
    M1: Terms = {(0, 0): [(1, -W), (0, -fourier.deriv(W, X)), (3, -1.0),
                          (2, -delta), (4, -delta)]}
    problem = SpectralProblem(kind="kdvks", period=X,
                              operator=OperatorForm(m=1, M1=M1))
    trunc = hill.truncate(problem, N)
    return {float(xi): hill.eigenvalues(trunc, N, xi)
            for xi in np.linspace(np.pi / X / n_xi, np.pi / X, n_xi)}


def kdvks_max_growth(delta: float, X: float, N: int = 40) -> float:
    """Largest Bloch growth rate of the selected wave with period X."""
    k = k_of_period(X)
    cloud = kdvks_spectrum(delta, k, N=N)
    return max(float(np.max(eigs.real)) for eigs in cloud.values())


# Largest growth rate that still counts as stable.  It absorbs the
# numerically neutral xi -> 0 tangency of the critical Bloch curves, which
# sits at the wave's residual floor (~1e-10).
STABLE_GROWTH_TOL = 1e-7


def kdvks_stable(delta: float, X: float) -> bool:
    """Spectral stability verdict for the period-X wave at the given delta."""
    return kdvks_max_growth(delta, X) <= STABLE_GROWTH_TOL
