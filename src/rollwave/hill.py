"""Hill's method: Fourier truncation of Bloch spectral problems.

Coefficients are expanded in Fourier series on at least 4N + 2 samples so
products with the 2N + 1 retained modes are alias-free; each block becomes a
Toeplitz-like convolution matrix weighted by the Bloch symbol
(i (xi + 2 pi l / X))^order of its derivative factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fourier
from .linearize import OperatorForm, SpectralProblem
from .model import DomainError


def _coefficient_spectrum(coeff: np.ndarray | float,
                          n_min: int) -> np.ndarray | None:
    """FFT coefficients of a sampled coefficient, resampled to >= n_min nodes."""
    if np.isscalar(coeff):
        return None
    arr = np.asarray(coeff)
    if len(arr) < n_min:
        arr = fourier.resample(arr, int(2 ** np.ceil(np.log2(n_min))))
    return fourier.fourier_coeffs(arr)


def _assemble_terms(terms, m: int, N: int, xi: float,
                    period: float) -> np.ndarray:
    size = 2 * N + 1
    js = np.arange(-N, N + 1)
    kl = xi + 2.0 * np.pi * js / period
    M = np.zeros((m * size, m * size), dtype=complex)
    n_min = 4 * N + 2
    for (i, j), termlist in terms.items():
        block = np.zeros((size, size), dtype=complex)
        for order, coeff in termlist:
            sym = (1j * kl) ** order
            chat = _coefficient_spectrum(coeff, n_min)
            if chat is None:
                block += np.diag(coeff * sym)
            else:
                nc = len(chat)
                conv = chat[(js[:, None] - js[None, :]) % nc]
                block += conv * sym[None, :]
        M[i * size:(i + 1) * size, j * size:(j + 1) * size] += block
    return M


def assemble(problem: SpectralProblem, N: int,
             xi: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Truncated matrices (M1, M2) at Floquet parameter xi; M2 None = identity."""
    op = problem.operator
    M1 = _assemble_terms(op.M1, op.m, N, xi, problem.period)
    M2 = None
    if op.M2 is not None:
        M2 = _assemble_terms(op.M2, op.m, N, xi, problem.period)
    return M1, M2


def eigenvalues(problem: SpectralProblem, N: int, xi: float) -> np.ndarray:
    """Bloch eigenvalues at one xi, sorted by descending real part.

    Generalized pencils may be singular (the ham-limit right side is a bare
    derivative, singular in the mean mode at xi = 0); non-finite eigenvalues
    are dropped.
    """
    if problem.kind == "ham_limit" and xi == 0.0:
        raise DomainError("the ham-limit pencil is singular at xi = 0; "
                          "use a nonzero Floquet parameter")
    M1, M2 = assemble(problem, N, xi)
    if M2 is None:
        ev = np.linalg.eigvals(M1)
    else:
        ev = scipy.linalg.eigvals(M1, M2)
        ev = ev[np.isfinite(ev)]
    return ev[np.lexsort((ev.imag, -ev.real))]


@dataclass(frozen=True)
class SpectralCloud:
    """Bloch eigenvalues over a grid of Floquet parameters."""

    kind: str
    N: int
    xi: np.ndarray
    eigs: list[np.ndarray] = field(repr=False)

    def to_csv(self) -> str:
        lines = ["xi,re,im"]
        for x, evs in zip(self.xi, self.eigs):
            for ev in evs:
                lines.append(f"{x:.17g},{ev.real:.17g},{ev.imag:.17g}")
        return "\n".join(lines) + "\n"


def default_xi_grid(period: float, n_xi: int = 64) -> np.ndarray:
    """Nonzero Floquet parameters in the fundamental interval [-pi/X, pi/X)."""
    xi = -np.pi / period + 2.0 * np.pi / period * np.arange(n_xi) / n_xi
    return xi[np.abs(xi) > 1e-14]


def spectrum(problem: SpectralProblem, N: int, n_xi: int = 64) -> SpectralCloud:
    """Bloch spectrum over default_xi_grid, one dense eigensolve per xi.

    Deterministic: eigenvalues per xi are sorted, xi order preserved.
    """
    xi_grid = default_xi_grid(problem.period, n_xi)
    eigs = [eigenvalues(problem, N, x) for x in xi_grid]
    return SpectralCloud(kind=problem.kind, N=N, xi=xi_grid, eigs=eigs)


def double_period(problem: SpectralProblem) -> SpectralProblem:
    """The same operator on the doubled period (subharmonic perturbations).

    Tiles every sampled coefficient twice; xi then ranges over half the
    fundamental interval of the original wave.  The result has no
    first-order form, so it is a Hill-only problem.
    """
    op = problem.operator

    def tile(terms):
        if terms is None:
            return None
        return {key: [(order, coeff if np.isscalar(coeff)
                       else np.concatenate([coeff, coeff]))
                      for order, coeff in termlist]
                for key, termlist in terms.items()}

    return SpectralProblem(kind=problem.kind, period=2.0 * problem.period,
                           operator=OperatorForm(m=op.m, M1=tile(op.M1),
                                                 M2=tile(op.M2)))


def max_unstable(cloud: SpectralCloud, r0: float = 0.0) -> float:
    """Largest real part over the cloud, excluding |lambda| <= r0.

    With r0 > 0 this implements the away-from-origin part of condition (D1);
    the origin neighborhood is the business of the Evans Taylor expansion.
    """
    best = -np.inf
    for evs in cloud.eigs:
        keep = evs[np.abs(evs) > r0]
        if len(keep):
            best = max(best, float(np.max(keep.real)))
    return best
