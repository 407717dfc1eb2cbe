"""Linearized Bloch spectral problems about periodic waves.

Every spectral problem is carried in up to two equivalent representations:

* an *operator form* for Hill's method — a generalized eigenvalue problem
  M1 z = lambda M2 z, where each block (i, j) of M1/M2 is a sum of terms
  coeff(x) d^order acting on component j, with coefficients sampled on a
  uniform periodic grid;
* a *first-order form* for the Evans function — Z' = (A0(x) + lambda A1(x)) Z
  with matrix samples on the same grid.

All alpha = -2 problems live on [0, X0) with plain d/dx (each derivative of
the rescaled equations carries exactly one factor k0 = 1/X0, absorbed by
working on the X0-periodic domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .model import DomainError, PhysicalParams
from .profile import HamOrbit, LimitProfile, WaveProfile

Terms = dict[tuple[int, int], list[tuple[int, np.ndarray | float]]]


@dataclass(frozen=True)
class OperatorForm:
    """Blockwise differential operator with periodic sampled coefficients."""

    m: int                       # number of components
    n: int                       # coefficient sample count
    period: float
    M1: Terms
    M2: Terms | None = None      # None means the identity


@dataclass(frozen=True)
class FirstOrderForm:
    """Z' = (A0 + lambda A1) Z with X-periodic sampled coefficients."""

    dim: int
    n: int
    period: float
    A0: np.ndarray               # (n, dim, dim)
    A1: np.ndarray               # (n, dim, dim)


@dataclass(frozen=True)
class SpectralProblem:
    """A Bloch spectral problem with Hill and Evans representations."""

    kind: str
    period: float
    operator: OperatorForm | None = None
    first_order: FirstOrderForm | None = None
    meta: dict = field(default_factory=dict)


def _alpha_bar(profile: WaveProfile) -> np.ndarray:
    """alpha-bar = tau^-3 (F^-2 + 2 c nu tau') from the first-order system."""
    p = profile.params
    return profile.tau ** -3 * (p.F ** -2 + 2.0 * p.c * p.nu * profile.dtau)


def bloch_coeffs(profile: WaveProfile) -> SpectralProblem:
    """Linearization of the viscous St. Venant system about a physical wave.

    Components (tau, u); lambda tau = c tau' + u' and
    lambda u = nu (taubar^-2 u')' + c u' + alphabar tau'
               + (alphabar' - ubar^2) tau - 2 ubar taubar u.
    """
    p = profile.params
    X, n = p.X, profile.n
    tau, u = profile.tau, profile.u
    ab = _alpha_bar(profile)
    dab = fourier.deriv(ab, X)
    inv2 = tau ** -2
    dinv2 = fourier.deriv(inv2, X)

    M1: Terms = {
        (0, 0): [(1, p.c)],
        (0, 1): [(1, 1.0)],
        (1, 0): [(1, ab), (0, dab - u ** 2)],
        (1, 1): [(2, p.nu * inv2), (1, p.c + p.nu * dinv2), (0, -2.0 * u * tau)],
    }
    op = OperatorForm(m=2, n=n, period=X, M1=M1)

    A0 = np.zeros((n, 3, 3))
    A1 = np.zeros((n, 3, 3))
    t2 = tau ** 2
    A0[:, 0, 2] = -t2 / p.c
    A0[:, 1, 2] = t2
    A0[:, 2, 0] = (u ** 2 - dab) / p.nu
    A0[:, 2, 1] = 2.0 * tau * u / p.nu
    A0[:, 2, 2] = (ab / p.c - p.c) * t2 / p.nu
    A1[:, 0, 0] = 1.0 / p.c
    A1[:, 2, 0] = -ab / (p.c * p.nu)
    A1[:, 2, 1] = 1.0 / p.nu
    fo = FirstOrderForm(dim=3, n=n, period=X, A0=A0, A1=A1)

    return SpectralProblem(kind="physical", period=X, operator=op,
                           first_order=fo, meta={"params": p})


def limit_matrices_alpha_m2(lp: LimitProfile,
                            F: float | None = None) -> SpectralProblem:
    """Spectral problem of the alpha = -2 scaling family on [0, X0).

    F=None gives the limiting (F = infinity) problem in (a, bcheck);
    finite F keeps the O(1/F) coupling terms with bbar = q0 - c0 a / F.
    """
    q0, c0, nu, X0, n = lp.q0, lp.c0, lp.nu, lp.X0, lp.n
    a, da = lp.a, lp.da
    g = a ** -3
    G2 = 2.0 * c0 * nu * a ** -3 * da
    dg = fourier.deriv(g, X0)
    dG2 = fourier.deriv(G2, X0)
    inv2 = a ** -2
    dinv2 = fourier.deriv(inv2, X0)

    if F is None:
        bbar = np.full(n, q0)
        coupling = np.zeros(n)
        kind = "alpha_m2_limit"
    else:
        if F <= 0.0:
            raise DomainError(f"F must be positive, got {F}")
        bbar = q0 - c0 * a / F
        coupling = -2.0 * a * bbar / F
        kind = "alpha_m2_finiteF"

    M1: Terms = {
        (0, 0): [(1, c0)],
        (0, 1): [(1, 1.0)],
        (1, 0): [(1, g + G2), (0, dg + dG2 - bbar ** 2)],
        (1, 1): [(2, nu * inv2), (1, c0 + nu * dinv2), (0, coupling)],
    }
    op = OperatorForm(m=2, n=n, period=X0, M1=M1)

    A0 = np.zeros((n, 3, 3))
    A1 = np.zeros((n, 3, 3))
    a2 = a ** 2
    A0[:, 0, 2] = -a2 / c0
    A0[:, 1, 2] = a2
    A0[:, 2, 0] = (bbar ** 2 - dg - dG2) / nu
    A0[:, 2, 1] = -coupling / nu
    A0[:, 2, 2] = ((g + G2) / c0 - c0) * a2 / nu
    A1[:, 0, 0] = 1.0 / c0
    A1[:, 2, 0] = -(g + G2) / (c0 * nu)
    A1[:, 2, 1] = 1.0 / nu
    fo = FirstOrderForm(dim=3, n=n, period=X0, A0=A0, A1=A1)

    return SpectralProblem(kind=kind, period=X0, operator=op, first_order=fo,
                           meta={"q0": q0, "c0": c0, "nu": nu, "F": F})


def ham_limit_operator(orbit: HamOrbit) -> SpectralProblem:
    """Spectral problem of the Hamiltonian alpha > -2 limit on one orbit.

    Scalar pencil (h^-2 + d^2) v = Lambda d v on the X_mu-periodic domain;
    the right side is singular at xi = 0, which Hill's method must exclude.
    """
    M1: Terms = {(0, 0): [(0, orbit.h ** -2), (2, 1.0)]}
    M2: Terms = {(0, 0): [(1, 1.0)]}
    op = OperatorForm(m=1, n=orbit.n, period=orbit.X_mu, M1=M1, M2=M2)
    return SpectralProblem(kind="ham_limit", period=orbit.X_mu, operator=op,
                           meta={"h_minus": orbit.h_minus})


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
