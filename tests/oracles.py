"""Oracles the tests compare the solvers against.

None of them feeds a stability answer: each is an exact solution, an
identity or a solve by another method that an independent route must
reproduce.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from rollwave import fourier
from rollwave.kdv_limit import CnoidalWave
from rollwave.model import PhysicalParams
from rollwave.profile import HamOrbit, WaveProfile


def equilibrium(F: float, nu: float, tau0: float = 1.0,
                X: float = 2.0 * np.pi, n: int = 64) -> WaveProfile:
    """The constant state tau = tau0 as a degenerate WaveProfile."""
    c = tau0 ** -1.5 / F        # the neutral (Hopf) wave speed
    q = tau0 ** -0.5 + c * tau0
    params = PhysicalParams(F=F, nu=nu, q=q, c=c, X=X, tau0=tau0)
    return WaveProfile(params=params, tau=np.full(n, tau0))


def constant_dispersion(params: PhysicalParams, tau0: float,
                        eta: np.ndarray | float) -> np.ndarray:
    """Closed-form dispersion of the constant state tau = tau0.

    Returns, for each wavenumber eta, the two roots of the quadratic symbol
    of the linearized system; the Bloch spectrum of the constant profile must
    reproduce these exactly.  Oracle for both Hill and Evans.
    """
    p = params
    u0 = p.q - p.c * tau0
    ab0 = tau0 ** -3 / p.F ** 2
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    out = np.empty((len(eta), 2), dtype=complex)
    for i, e in enumerate(eta):
        ie = 1j * e
        M = np.array([
            [p.c * ie, ie],
            [ab0 * ie - u0 ** 2,
             p.nu * tau0 ** -2 * ie * ie + p.c * ie - 2.0 * u0 * tau0],
        ])
        out[i] = np.linalg.eigvals(M)
    return out


def selection_residual(wave: CnoidalWave) -> float:
    """Persistence integral int T0 (T0'' + T0'''') d theta over one period.

    Vanishes exactly at kappa = G(k); used as an independent check of the
    closed-form selection constant.
    """
    d2 = fourier.deriv(wave.T0, wave.X, 2)
    d4 = fourier.deriv(wave.T0, wave.X, 4)
    return fourier.quad(wave.T0 * (d2 + d4), wave.X)


def ham_pencil_eigenvalues(orbit: HamOrbit, N: int,
                           xi: float) -> np.ndarray:
    """Eigenvalues of the Hamiltonian pencil (h^-2 + d^2) v = Lambda d v
    truncated to the modes |l| <= N at Floquet parameter xi.

    M1 = conv(h^-2) + diag((ik)^2) and M2 = diag(ik), k = xi + 2 pi l / X_mu,
    from the FFT of the orbit's samples, solved as a generalized problem by
    QZ; the reference for Hill's standard form of the same problem.
    """
    g = orbit.h ** -2
    ghat = np.fft.fft(g) / len(g)
    ls = np.arange(-N, N + 1)
    ik = 1j * (xi + 2.0 * np.pi * ls / orbit.X_mu)
    M1 = ghat[(ls[:, None] - ls[None, :]) % len(g)] + np.diag(ik ** 2)
    M2 = np.diag(ik)
    return scipy.linalg.eigvals(M1, M2)
