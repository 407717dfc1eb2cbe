"""Hill's method: Fourier truncation of Bloch spectral problems.

Coefficients are expanded in Fourier series on at least 4N + 2 samples so
products with the 2N + 1 retained modes are alias-free; each block becomes a
Toeplitz-like convolution matrix weighted by the Bloch symbol
(i (xi + 2 pi l / X))^order of its derivative factor.  The convolution
matrices do not depend on xi and are built once per truncation.

`checked_scan` picks the truncation from the wave for both stability
answers, the St. Venant verdict and the KdV-KS check: N covers half the last
Fourier mode of any coefficient above _TAIL_TOL of that coefficient's
largest (the convolution matrices carry the modes |j - l| <= 2N), and the
deciding Floquet row is re-solved at 3N/2 to check the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .linearize import OperatorForm, SpectralProblem
from .model import DomainError, NumericalFailure


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
        from scipy.linalg import eigvals
        ev = eigvals(M1, M2)
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
    """(k, xi, eigenvalues) of each row `spectrum` eigensolves, in its order.

    Row k = 0 (xi = -pi/X) comes first, then xi > 0 ascending; the rows
    with xi < 0 are left to mirroring, which needs real coefficients.
    """
    _require_real(problem.operator)
    trunc = truncate(problem, N)
    for k, x in zip(_xi_indices(n_xi), default_xi_grid(problem.period, n_xi)):
        if k == 0 or 2 * k > n_xi:
            yield k, x, eigenvalues(trunc, N, x)


def spectrum(problem: SpectralProblem, N: int, n_xi: int = 64) -> SpectralCloud:
    """Bloch spectrum over default_xi_grid.

    With real coefficients the matrix at -xi is a permuted complex conjugate
    of the one at xi, so only xi > 0 and xi_0 = -pi/X are eigensolved; row
    xi_{n_xi - k} holds the conjugates of row k.  Deterministic: eigenvalues
    per xi are sorted, xi order preserved.
    """
    solved = {k: evs for k, _, evs in _solved_rows(problem, N, n_xi)}
    eigs = [solved[k] if k in solved else _sorted(np.conj(solved[n_xi - k]))
            for k in _xi_indices(n_xi)]
    return SpectralCloud(kind=problem.kind, N=N,
                         xi=default_xi_grid(problem.period, n_xi), eigs=eigs,
                         eigensolves=len(solved))


def _max_real(evs: np.ndarray, r0: float) -> float:
    keep = evs[np.abs(evs) > r0]
    return float(np.max(keep.real)) if len(keep) else -np.inf


def first_unstable(problem: SpectralProblem, N: int, n_xi: int, r0: float,
                   tol: float) -> tuple[float, int, float]:
    """(mu, solves, xi): the largest Re lambda, |lambda| > r0, over the rows
    solved until one exceeds tol; their number; the xi of mu's row.

    Rows are solved in `spectrum`'s order.  A mirrored row has its
    partner's moduli and real parts, so with tol = inf, mu is bitwise the
    largest over spectrum(problem, N, n_xi).  Only `checked_scan` calls it.
    """
    best, solves, xi_best = -np.inf, 0, None
    for _, x, evs in _solved_rows(problem, N, n_xi):
        solves += 1
        row = _max_real(evs, r0)
        if xi_best is None or row > best:
            best, xi_best = row, float(x)
        if best > tol:
            break
    return best, solves, xi_best


# The truncation rule of `checked_scan`, for both the St. Venant verdict
# and the KdV-KS check: the last Fourier mode kept in a coefficient's tail,
# relative to its largest mode; the least and the most modes |l| <= N a
# scan may use; the agreement with the row re-solved at 3N/2 that accepts
# N, relative to max(|mu|, tol).
_TAIL_TOL = 1e-8
_N_FLOOR = 16
_N_CAP = 120
_CHECK_TOL = 1e-3


def _tail_mode(coeff: np.ndarray) -> int:
    """Last Fourier mode |k| of a sampled coefficient above _TAIL_TOL of
    its largest mode; 0 for a coefficient that is zero."""
    chat = np.abs(fourier.fourier_coeffs(np.asarray(coeff)))
    if not chat.max() > 0.0:
        return 0
    k = np.abs(np.rint(np.fft.fftfreq(len(chat), d=1.0 / len(chat))))
    return int(k[chat > _TAIL_TOL * chat.max()].max())


def _truncation_size(problem: SpectralProblem) -> int:
    """Starting N of `checked_scan`: half the largest `_tail_mode` of the
    operator's sampled coefficients, rounded up to a multiple of 4 and
    held within [_N_FLOOR, _N_CAP]."""
    op = problem.operator
    K = max((_tail_mode(coeff) for terms in (op.M1, op.M2 or {})
             for termlist in terms.values() for _, coeff in termlist
             if not np.isscalar(coeff)), default=0)
    N = 4 * -(-K // 8)
    return min(max(N, _N_FLOOR), _N_CAP)


@dataclass(frozen=True)
class HillScan:
    """A `first_unstable` scan at N with its deciding row re-solved at 3N/2.

    reason is None when the two agree; otherwise it says why no N up to
    _N_CAP gave a checked answer, and N is the last one scanned.
    """

    mu: float
    N: int
    check: float                 # mu of the deciding row at 3N/2
    solves: int                  # every eigensolve: scans and checks
    reason: str | None = None


class TruncationUnresolved(NumericalFailure):
    """No Hill truncation up to _N_CAP gave a checked answer."""


def checked_scan(problem: SpectralProblem, n_xi: int, r0: float,
                 tol: float) -> HillScan:
    """`first_unstable` at the truncation the wave needs, checked.

    Starts at _truncation_size(problem) and re-solves the deciding row (the
    first unstable one, else the row of mu) at 3N/2.  The answer is
    accepted when that row's mu agrees to _CHECK_TOL of max(|mu|, tol) (a
    mu at the noise floor, as a stable KdV-KS wave's xi -> 0 tangency, can
    do no better) and lies on the same side of tol; otherwise the scan is
    repeated at 3N/2.  Once N would pass _N_CAP the scan gives up, with a
    reason naming both mu and both N.  Every eigensolve goes through
    `eigenvalues`.
    """
    N, solves = _truncation_size(problem), 0
    while True:
        mu, rows, xi = first_unstable(problem, N, n_xi, r0, tol)
        M = 3 * N // 2
        check = _max_real(eigenvalues(problem, M, xi), r0)
        solves += rows + 1
        if abs(mu - check) <= _CHECK_TOL * max(abs(mu), tol) and \
                (mu > tol) == (check > tol):
            return HillScan(mu=mu, N=N, check=check, solves=solves)
        if M > _N_CAP:
            return HillScan(
                mu=mu, N=N, check=check, solves=solves,
                reason=f"Hill truncation unresolved: max Re lambda "
                       f"{mu:.6e} at N = {N} against {check:.6e} at N = {M} "
                       f"(xi = {xi:.6g}), and N = {M} passes the cap "
                       f"{_N_CAP}")
        N = M
