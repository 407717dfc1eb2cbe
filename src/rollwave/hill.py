"""Hill's method: Fourier truncation of Bloch spectral problems.

Coefficients are expanded in Fourier series on at least 4N + 2 samples so
products with the 2N + 1 retained modes are alias-free; each block becomes a
Toeplitz-like convolution matrix weighted by the Bloch symbol
(i (xi + 2 pi l / X))^order of its derivative factor.  The convolution
matrices do not depend on xi and are built once per truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fourier
from .linearize import OperatorForm, SpectralProblem
from .model import DomainError


def _convolution(coeff: np.ndarray | float, N: int) -> np.ndarray | float:
    """Convolution matrix c_{j-l}, |j|, |l| <= N, of a sampled coefficient.

    The coefficient is resampled to >= 4N + 2 nodes first, so products with
    the retained modes are alias-free; a scalar is returned as it is.
    """
    if np.isscalar(coeff):
        return coeff
    arr = np.asarray(coeff)
    if len(arr) < 4 * N + 2:
        arr = fourier.resample(arr, int(2 ** np.ceil(np.log2(4 * N + 2))))
    chat = fourier.fourier_coeffs(arr)
    js = np.arange(-N, N + 1)
    return chat[(js[:, None] - js[None, :]) % len(chat)]


def _convolution_terms(terms, N: int):
    if terms is None:
        return None
    return {key: [(order, _convolution(coeff, N)) for order, coeff in termlist]
            for key, termlist in terms.items()}


@dataclass(frozen=True)
class Truncation:
    """A Bloch problem truncated to the modes |l| <= N, before xi enters.

    Sampled coefficients are held as (2N + 1)^2 convolution matrices, so a
    matrix at one xi only multiplies in the Bloch symbols and sums.
    """

    kind: str
    period: float
    N: int
    m: int
    M1: dict = field(repr=False)
    M2: dict | None = field(repr=False)


def truncate(problem: SpectralProblem | Truncation, N: int) -> Truncation:
    """The xi-independent part of the Hill matrices of problem at N modes."""
    if isinstance(problem, Truncation):
        if problem.N != N:
            raise DomainError(f"truncation has N = {problem.N}, asked for {N}")
        return problem
    op = problem.operator
    return Truncation(kind=problem.kind, period=problem.period, N=N, m=op.m,
                      M1=_convolution_terms(op.M1, N),
                      M2=_convolution_terms(op.M2, N))


def _assemble_terms(terms, m: int, N: int, xi: float,
                    period: float) -> np.ndarray:
    size = 2 * N + 1
    kl = xi + 2.0 * np.pi * np.arange(-N, N + 1) / period
    M = np.zeros((m * size, m * size), dtype=complex)
    for (i, j), termlist in terms.items():
        block = np.zeros((size, size), dtype=complex)
        for order, coeff in termlist:
            sym = (1j * kl) ** order
            if np.isscalar(coeff):
                block += np.diag(coeff * sym)
            else:
                block += coeff * sym[None, :]
        M[i * size:(i + 1) * size, j * size:(j + 1) * size] += block
    return M


def assemble(problem: SpectralProblem | Truncation, N: int,
             xi: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Truncated matrices (M1, M2) at Floquet parameter xi; M2 None = identity."""
    t = truncate(problem, N)
    M1 = _assemble_terms(t.M1, t.m, N, xi, t.period)
    M2 = None
    if t.M2 is not None:
        M2 = _assemble_terms(t.M2, t.m, N, xi, t.period)
    return M1, M2


def eigenvalues(problem: SpectralProblem | Truncation, N: int,
                xi: float) -> np.ndarray:
    """Bloch eigenvalues at one xi, sorted by descending real part.

    Generalized pencils may be singular (the ham-limit right side is a bare
    derivative, singular in the mean mode at xi = 0); non-finite eigenvalues
    are dropped.  A Truncation from `truncate` gives the same eigenvalues as
    its problem without redoing the xi-independent work.
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
    return _sorted(ev)


def _sorted(ev: np.ndarray) -> np.ndarray:
    return ev[np.lexsort((ev.imag, -ev.real))]


@dataclass(frozen=True)
class SpectralCloud:
    """Bloch eigenvalues over a grid of Floquet parameters."""

    kind: str
    N: int
    xi: np.ndarray
    eigs: list[np.ndarray] = field(repr=False)
    eigensolves: int             # rows solved; the others are mirrored

    def to_csv(self) -> str:
        lines = ["xi,re,im"]
        for x, evs in zip(self.xi, self.eigs):
            for ev in evs:
                lines.append(f"{x:.17g},{ev.real:.17g},{ev.imag:.17g}")
        return "\n".join(lines) + "\n"


def _xi_indices(n_xi: int) -> np.ndarray:
    """Grid indices k of default_xi_grid; k = n_xi / 2 would be xi = 0."""
    k = np.arange(n_xi)
    return k[2 * k != n_xi]


def default_xi_grid(period: float, n_xi: int = 64) -> np.ndarray:
    """Nonzero Floquet parameters in the fundamental interval [-pi/X, pi/X).

    xi_k = -pi/X + 2 pi k / (n_xi X), so xi_k and xi_{n_xi - k} are each
    other's negatives; xi_0 = -pi/X has no partner.
    """
    return -np.pi / period + 2.0 * np.pi / period * _xi_indices(n_xi) / n_xi


def _require_real(op: OperatorForm) -> None:
    for terms in (op.M1, op.M2 or {}):
        for termlist in terms.values():
            for _, coeff in termlist:
                if np.any(np.imag(coeff) != 0.0):
                    raise DomainError(
                        "Hill spectrum mirrors xi < 0 from xi > 0, which "
                        "needs real coefficients; got a complex one")


def _solved_rows(problem: SpectralProblem, N: int, n_xi: int):
    """(k, eigenvalues) of each row `spectrum` eigensolves, in its order.

    Row k = 0 (xi = -pi/X) comes first, then xi > 0 ascending; the rows
    with xi < 0 are left to mirroring, which needs real coefficients.
    """
    _require_real(problem.operator)
    trunc = truncate(problem, N)
    for k, x in zip(_xi_indices(n_xi), default_xi_grid(problem.period, n_xi)):
        if k == 0 or 2 * k > n_xi:
            yield k, eigenvalues(trunc, N, x)


def spectrum(problem: SpectralProblem, N: int, n_xi: int = 64) -> SpectralCloud:
    """Bloch spectrum over default_xi_grid.

    With real coefficients the matrix at -xi is a permuted complex conjugate
    of the one at xi, so only xi > 0 and xi_0 = -pi/X are eigensolved; row
    xi_{n_xi - k} holds the conjugates of row k.  Deterministic: eigenvalues
    per xi are sorted, xi order preserved.
    """
    solved = dict(_solved_rows(problem, N, n_xi))
    eigs = [solved[k] if k in solved else _sorted(np.conj(solved[n_xi - k]))
            for k in _xi_indices(n_xi)]
    return SpectralCloud(kind=problem.kind, N=N,
                         xi=default_xi_grid(problem.period, n_xi), eigs=eigs,
                         eigensolves=len(solved))


def _max_real(evs: np.ndarray, r0: float) -> float:
    keep = evs[np.abs(evs) > r0]
    return float(np.max(keep.real)) if len(keep) else -np.inf


def max_unstable(cloud: SpectralCloud, r0: float = 0.0) -> float:
    """Largest real part over the cloud, excluding |lambda| <= r0.

    With r0 > 0 this implements the away-from-origin part of condition (D1);
    the origin neighborhood is the business of the Evans Taylor expansion.
    """
    best = -np.inf
    for evs in cloud.eigs:
        best = max(best, _max_real(evs, r0))
    return best


def first_unstable(problem: SpectralProblem, N: int, n_xi: int, r0: float,
                   tol: float) -> tuple[float, int]:
    """(mu, solves): `max_unstable` over the rows solved until one exceeds tol.

    Rows are solved in `spectrum`'s order and the scan stops after the
    first whose largest real part (|lambda| > r0) is above tol.  A mirrored
    row has its partner's moduli and real parts, so on a spectrum with no
    such row mu is bitwise max_unstable(spectrum(problem, N, n_xi), r0)
    and solves is that spectrum's eigensolves.
    """
    best, solves = -np.inf, 0
    for _, evs in _solved_rows(problem, N, n_xi):
        solves += 1
        best = max(best, _max_real(evs, r0))
        if best > tol:
            break
    return best, solves
