"""Linearized Bloch spectral problems about periodic waves.

Every spectral problem is carried in up to two equivalent representations:

* its *terms* for Hill's method — the operator of the eigenvalue problem
  lambda z = L z, where each block (i, j) of L is a sum of terms
  coeff(x) d^order acting on component j, with coefficients sampled on a
  uniform periodic grid (an order below zero is an inverse derivative);
  the largest block index gives the number of components;
* a *first-order form* for the Evans function — Z' = (A0(x) + lambda A1(x)) Z
  with matrix samples on the same grid.

All alpha = -2 problems live on [0, X0) with plain d/dx (each derivative of
the rescaled equations carries exactly one factor k0 = 1/X0, absorbed by
working on the X0-periodic domain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .profile import HamOrbit, LimitProfile, WaveProfile

Terms = dict[tuple[int, int], list[tuple[int, np.ndarray | float]]]


@dataclass(frozen=True)
class FirstOrderForm:
    """Z' = (A0 + lambda A1) Z with periodic sampled coefficients."""

    A0: np.ndarray               # (n, dim, dim)
    A1: np.ndarray               # (n, dim, dim)


@dataclass(frozen=True)
class SpectralProblem:
    """A Bloch spectral problem: Hill's terms and (optionally) Evans' form."""

    kind: str
    period: float
    terms: Terms
    first_order: FirstOrderForm | None = None


def _st_venant(kind: str, T: np.ndarray, dT: np.ndarray, c: float, K: float,
               eps: float, nu: float, q: float, X: float) -> SpectralProblem:
    """Both spectral forms of St. Venant linearized about a wave T of
    profile._equation with coefficients (K, eps), on [0, X).

    With ubar = q - eps c T and alphabar = T^-3 (1/K + 2 c nu T'), the
    components (tau, u) obey lambda tau = c tau' + u' and
    lambda u = nu (T^-2 u')' + c u' + alphabar tau'
               + (alphabar' - ubar^2) tau - 2 eps ubar T u.
    The first-order form acts on Z = (tau, u, T^-2 u').
    """
    u = q - eps * c * T
    AB = T ** -3 * (1.0 / K + 2.0 * c * nu * dT)
    C = -2.0 * eps * u * T
    inv2 = T ** -2
    V = fourier.deriv(AB, X) - u ** 2
    terms: Terms = {
        (0, 0): [(1, c)],
        (0, 1): [(1, 1.0)],
        (1, 0): [(1, AB), (0, V)],
        (1, 1): [(2, nu * inv2), (1, c + nu * fourier.deriv(inv2, X)),
                 (0, C)],
    }

    n = len(T)
    A0 = np.zeros((n, 3, 3))
    A1 = np.zeros((n, 3, 3))
    t2 = T ** 2
    A0[:, 0, 2] = -t2 / c
    A0[:, 1, 2] = t2
    A0[:, 2, 0] = -V / nu
    A0[:, 2, 1] = -C / nu
    A0[:, 2, 2] = (AB / c - c) * t2 / nu
    A1[:, 0, 0] = 1.0 / c
    A1[:, 2, 0] = -AB / (c * nu)
    A1[:, 2, 1] = 1.0 / nu
    return SpectralProblem(kind=kind, period=X, terms=terms,
                           first_order=FirstOrderForm(A0=A0, A1=A1))


def bloch_coeffs(profile: WaveProfile) -> SpectralProblem:
    """Linearization of the viscous St. Venant system about a physical wave:
    (K, eps) = (F^2, 1)."""
    p = profile.params
    return _st_venant("physical", profile.tau, profile.dtau, p.c, p.F * p.F,
                      1.0, p.nu, p.q, p.X)


def limit_matrices_alpha_m2(lp: LimitProfile) -> SpectralProblem:
    """Limiting (F = infinity) spectral problem of the alpha = -2 family:
    (K, eps) = (1, 0) on [0, X0) in (a, bcheck), so q0 stands for ubar and
    nothing couples u."""
    return _st_venant("alpha_m2_limit", lp.a, lp.da, lp.c0, 1.0, 0.0, lp.nu,
                      lp.q0, lp.X0)


def ham_limit_operator(orbit: HamOrbit) -> SpectralProblem:
    """Spectral problem of the Hamiltonian alpha > -2 limit on one orbit.

    Scalar problem Lambda w = (h^-2 d^-1 + d) w on the X_mu-periodic domain:
    the pencil (h^-2 + d^2) v = Lambda d v written for w = d v, so it has
    the pencil's eigenvalues.  d^-1 is singular at a zero Bloch wavenumber,
    which Hill's method refuses (xi = 0 here).
    """
    return SpectralProblem(kind="ham_limit", period=orbit.X_mu,
                           terms={(0, 0): [(-1, orbit.h ** -2), (1, 1.0)]})
