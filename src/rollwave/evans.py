"""The periodic Evans function.

Monodromy matrices of the first-order Bloch systems Z' = (A0 + lambda A1) Z
are propagated by the sixth-order, three-commutator Magnus stepper of Blanes,
Casas & Ros (BIT 40, 2000; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009,
sec. 4) on three Gauss-Legendre nodes per step.  Each step exponent is a
polynomial of degree 5 in lambda, expanded once per step grid and evaluated
by Horner's rule.  The steps are spread by the local coefficient magnitude
and their cap is calibrated until D stops moving.  The frame is
re-orthogonalized by QR every _QR_STRIDE steps, or sooner where it could grow
past _NORM_CAP, and the radial growth extracted into a running log-scale.
A batch of lambda shares one QR schedule, whose segments are cut into chunks
of at most _BLOCK steps.  The step exponentials of a chunk are truncated
Taylor series (Paterson-Stockmeyer, no linear solve) of the lowest degree
the chunk's norm bounds allow, built in a (d, d, steps, lambda) layout and
multiplied there pairwise as a tree, so the sequential loop applies one
product per chunk and one QR per segment.
The Evans determinant

    D(lambda, xi) = det(Psi(X, lambda) - e^{i xi X} Id)

is therefore carried as a (mantissa, exponent) pair and never materialized
at full magnitude; winding numbers, the Taylor expansion at the origin, and
root polishing all consume only ratios and argument increments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .hill import checked_scan
from .hill import spectrum  # unused; bench/tracing.py wraps evans.spectrum
from .linearize import SpectralProblem, bloch_coeffs
from .model import (DomainError, NumericalFailure, require_positive,
                    slope_margin)
from .profile import WaveProfile


class EvansError(NumericalFailure):
    """Base class for Evans-function failures."""


class StepSizeUnderflow(EvansError):
    """The adaptive step grid could not meet the tolerance."""


class NoConvergence(EvansError):
    """Root polishing failed to converge."""


class MaxPointsExceeded(EvansError):
    """Adaptive contour refinement exceeded the point budget."""


class ZeroOnContour(EvansError):
    """A contour point landed on (or too near) a root of D."""


class WrongRootCountAtR(EvansError):
    """D(. , 0) does not have exactly the double origin root inside |lambda|=R."""


class DegenerateQuadratic(EvansError):
    """|c20| too small to define the origin quadratic."""


class UntrustedFrames(EvansError):
    """A monodromy frame missed Liouville's identity by more than
    _LIOUVILLE_TOL."""


class InaccurateExpansion(EvansError):
    """The origin expansion misses its held-out sample of D by more than
    _REPRESENTATION_TOL, or puts its double root off the origin."""


_QR_STRIDE = 256        # Magnus steps between re-orthogonalizations
_NORM_CAP = 1e8         # ... or sooner, once the frame could grow past this
_BATCH = 64             # lambda carried through one step loop at most
_BLOCK = 64             # Magnus steps exponentiated and multiplied at a time
_BALANCE_SWEEPS = 20    # passes of the diagonal balancing at most
_LIOUVILLE_TOL = 1e-6   # Liouville error above which frames are not trusted
_CALIBRATION_TOL = 1e-8  # relative change of D that ends the calibration

# Taylor degree m of the step exponential and the bound theta_m on the 1-norm
# up to which the degree-m truncated series is exact to unit roundoff: the
# largest theta with theta^(m+1) / (m+1)! e^(2 theta) <= 2^-53, a bound on
# the relative truncation error since ||e^A|| >= e^-||A||.  Rounded down.
_TAYLOR = ((6, 1.768062661e-2), (9, 1.123969815e-1), (12, 3.197188032e-1),
           (18, 1.029093919))
_INV_FACT = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR[-1][0] + 1))


# ----------------------------------------------------------------------------
# scaled values and frames


@dataclass(frozen=True)
class EvansValue:
    """A complex value stored as mantissa * exp(exponent)."""

    mantissa: complex
    exponent: float

    @property
    def log_abs(self) -> float:
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.exponent

    def ratio(self, other: "EvansValue") -> complex:
        """self / other without materializing either magnitude."""
        if other.mantissa == 0.0:
            raise ZeroDivisionError("ratio with a zero Evans value")
        de = self.exponent - other.exponent
        try:
            return self.mantissa / other.mantissa * math.exp(de)
        except OverflowError:
            raise OverflowError(
                f"Evans ratio exp({de:.1f}) is beyond the double range"
            ) from None


@dataclass(frozen=True)
class ScaledFrame:
    """Balanced monodromy B^-1 Psi B = Q diag(exp(row_scales)) U with Q
    unitary, U upper triangular with unit row maxima, and B the evaluator's
    diagonal `balance`.

    Per-row log scales keep every Floquet mode at its own magnitude, so the
    representation survives exponent spreads far beyond the double range.
    liouville_error is |det Psi / exp(integral of tr A) - 1|, computed from
    the accumulated complex log of det Psi and well defined because exp
    kills any 2 pi i branch mismatch in the accumulation.
    """

    lam: complex
    Q: np.ndarray
    U: np.ndarray
    row_scales: np.ndarray
    liouville_error: float
    n_steps: int


def _balance_diag(M: np.ndarray) -> np.ndarray:
    """Diagonal d minimizing row/column imbalance of d^-1_i M_ij d_j."""
    dim = M.shape[0]
    d = np.ones(dim)
    for _ in range(_BALANCE_SWEEPS):
        moved = 0.0
        for i in range(dim):
            r = sum(M[i, j] * d[j] / d[i] for j in range(dim) if j != i)
            c = sum(M[j, i] * d[i] / d[j] for j in range(dim) if j != i)
            if r > 0.0 and c > 0.0:
                f = math.sqrt(r / c)
                d[i] *= f
                moved = max(moved, abs(math.log(f)))
        if moved < 1e-3:
            break
    return d


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Products of two matrix stacks in the (d, d, ...) layout.

    The matrix indices lead, so each term of sum_k A[:, k] B[k, :] is one
    elementwise product over the whole stack.
    """
    C = A[:, 0, None] * B[None, 0]
    for k in range(1, A.shape[1]):
        C += A[:, k, None] * B[None, k]
    return C


def _horner(P, x):
    """sum_k x^k P[k] by Horner's rule over every coefficient P holds."""
    acc = P[-1]
    for c in P[-2::-1]:
        acc = c + x * acc
    return acc


def _pad(P: np.ndarray, k: int) -> np.ndarray:
    """The lambda-polynomial P, a stack of coefficients, padded to k terms."""
    return np.concatenate([P, np.zeros((k - len(P),) + P.shape[1:], P.dtype)])


def _commute(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The commutator [P, Q] of two lambda-polynomials of matrix stacks.

    P and Q hold their coefficients along the first axis, each a stack of
    (..., d, d) matrices; the result holds len(P) + len(Q) - 1 of them.
    """
    C = P[:, None] @ Q[None] - Q[None] @ P[:, None]
    out = np.zeros((len(P) + len(Q) - 1,) + C.shape[2:], C.dtype)
    for i in range(len(P)):
        out[i:i + len(Q)] += C[i]
    return out


def _expm_stack(M: np.ndarray, nmax: float) -> np.ndarray:
    """Matrix exponential of a (d, d, ...) stack with 1-norms at most nmax.

    The truncated Taylor series of the smallest degree m in _TAYLOR whose
    theta_m covers nmax, summed by Paterson-Stockmeyer: the powers A^2..A^p
    with p = ceil(sqrt(m)), then a Horner recursion in A^p over blocks of p
    coefficients, p - 1 + ceil(m / p) - 1 products in all and no linear
    solve.  Past theta_18 the stack is scaled by 2^-s and the degree-18
    result squared s times.
    """
    for m, theta in _TAYLOR:
        if nmax <= theta:
            break
    s = 0 if nmax <= theta else math.ceil(math.log2(nmax / theta))
    A = M / 2.0 ** s if s else M
    diag = np.arange(M.shape[0])
    p = math.isqrt(m - 1) + 1
    powers = [None, A]
    for _ in range(p - 1):
        powers.append(_matmul(powers[-1], A))

    def block(lo: int, hi: int) -> np.ndarray:
        # sum of A^(k - lo) / k! for k = lo..hi
        B = _INV_FACT[lo + 1] * powers[1]
        for j in range(2, hi - lo + 1):
            B += _INV_FACT[lo + j] * powers[j]
        B[diag, diag] += _INV_FACT[lo]
        return B

    top = (m - 1) // p
    E = block(top * p, m)
    for i in range(top - 1, -1, -1):
        E = _matmul(E, powers[p])
        E += block(i * p, i * p + p - 1)
    for _ in range(s):
        E = _matmul(E, E)
    return E


def _qr_schedule(bounds: list[float], d: int) -> list[int]:
    """Start of every QR segment of a step loop, then len(bounds).

    A segment ends after _QR_STRIDE steps, or sooner where the running
    bound on every frame would pass _NORM_CAP: ||Q||_1 <= sqrt(d) after a
    QR, and step j multiplies ||Y||_1 (which bounds max|Y|) by at most
    exp(bounds[j]).  Every segment holds at least one step.
    """
    log_fresh = 0.5 * math.log(d)
    log_cap = math.log(_NORM_CAP)
    starts = [0]
    growth = log_fresh
    for j, nj in enumerate(bounds):
        if j > starts[-1] and (j - starts[-1] >= _QR_STRIDE
                               or growth + nj > log_cap):
            starts.append(j)
            growth = log_fresh
        growth += nj
    starts.append(len(bounds))
    return starts


class EvansEvaluator:
    """Caches monodromy frames of one spectral problem across lambda.

    The frame at a given lambda is xi-independent, so winding sweeps over
    many Floquet parameters and the origin Taylor expansion reuse each
    monodromy; `frames_computed` counts the distinct integrations done.
    """

    def __init__(self, problem: SpectralProblem):
        fo = problem.first_order
        if fo is None:
            raise DomainError(
                f"problem kind {problem.kind!r} has no first-order form")
        self.X = float(problem.period)
        self.n, self.dim = fo.A0.shape[:2]
        self._frames: dict[complex, ScaledFrame] = {}
        # constant diagonal balancing D^-1 A D: a similarity leaves D(lambda,
        # xi), the multipliers, and the trace untouched but can shrink the
        # integrated coefficient norm (hence the step count) enormously
        self.balance = _balance_diag(np.maximum(np.abs(fo.A0).max(axis=0),
                                                np.abs(fo.A1).max(axis=0)))
        scale = np.outer(1.0 / self.balance, self.balance)
        self._A0 = fo.A0 * scale[None, :, :]
        self._A1 = fo.A1 * scale[None, :, :]
        self._tr0 = complex(np.mean(np.trace(fo.A0, axis1=1, axis2=2)))
        self._tr1 = complex(np.mean(np.trace(fo.A1, axis1=1, axis2=2)))
        self.cap, self._grid = self._calibrate()
        self.n_steps = self._grid[0].shape[-1]

    # -- step grid -------------------------------------------------------

    def _step_grid(self, cap: float):
        """Magnus exponents on step edges adapted to the coefficient magnitude.

        Each step carries at most `cap` units of the integrated 1-norm of
        A0 + A1, so no single Magnus step spans a dynamic range the QR
        extraction cannot absorb.  Step j's exponent is the sixth-order,
        three-commutator Magnus exponent of Blanes, Casas & Ros (BIT 40,
        2000; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009, sec. 4) on
        the three Gauss-Legendre nodes of the step.  Its alphas are linear
        in lambda, so it is a polynomial sum_k lambda^k W_k[j] of degree 5.
        Returns the coefficients as one (6, d, d, n_steps) array W, with
        W[k] the stack W_k in the (d, d, ...) layout of _matmul, and their
        per-step 1-norms as a (6, n_steps) array.
        """
        omega = (np.abs(self._A0).sum(axis=2).max(axis=1)
                 + np.abs(self._A1).sum(axis=2).max(axis=1))
        # step density: the fifth root of ||A||^2 ||A''||, with h * ||A||
        # bounded as well so no single step spans a huge range.  It only
        # spreads the steps over the period; the calibration sets the cap
        d2 = fourier.deriv(self._A0 + self._A1, self.X, 2)
        curv = np.abs(d2).sum(axis=2).max(axis=1)
        dens = (omega ** 2 * curv) ** 0.2
        # cap-independent floor so halving the cap always refines the grid
        floor = 16.0 / self.X
        rate = np.maximum(np.maximum(dens, omega / 3.0), floor)
        xg = np.linspace(0.0, self.X, self.n + 1)
        rate_ext = np.append(rate, rate[0])
        dx = self.X / self.n
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (rate_ext[:-1] + rate_ext[1:]) * dx)])
        n_steps = max(int(np.ceil(cum[-1] / cap)), 64)
        if n_steps > 2_000_000:
            raise StepSizeUnderflow(
                f"adaptive grid needs {n_steps} steps at cap {cap}")
        targets = np.linspace(0.0, cum[-1], n_steps + 1)
        edges = np.interp(targets, cum, xg)
        edges[0], edges[-1] = 0.0, self.X
        h = np.diff(edges)
        root = math.sqrt(15.0) / 10.0
        A = np.stack([self._A0, self._A1], axis=1)
        # h A_i at Gauss node i as a lambda-polynomial: the stacks of h A0
        # and h A1 along the first axis, (2, n_steps, d, d)
        B1, B2, B3 = (h[:, None, None] * np.moveaxis(
            fourier.interp(A, self.X, edges[:-1] + c * h), 1, 0)
            for c in (0.5 - root, 0.5, 0.5 + root))
        # Omega = a1 + a3/12 + [-20 a1 - a3 + c1, a2 + c2] / 240
        a1 = B2
        a2 = (math.sqrt(15.0) / 3.0) * (B3 - B1)
        a3 = (10.0 / 3.0) * (B3 - 2.0 * B2 + B1)
        c1 = _commute(a1, a2)
        c2 = _commute(a1, 2.0 * _pad(a3, 3) + c1) / -60.0
        W = (_commute(_pad(-20.0 * a1 - a3, 3) + c1, _pad(a2, 4) + c2) / 240.0
             + _pad(a1 + a3 / 12.0, 6))
        W = np.ascontiguousarray(W.transpose(0, 2, 3, 1))
        return W, np.abs(W).sum(axis=1).max(axis=1)

    # -- monodromy -------------------------------------------------------

    def _propagate(self, lams: list[complex], grid) -> list[ScaledFrame]:
        """Monodromy frames of every lambda in `lams` through one step loop
        on `grid`, the exponents and norms of _step_grid.

        The batch shares one QR schedule (_qr_schedule).  Each segment of it
        is cut into chunks of at most _BLOCK steps from its start; a chunk's
        step exponentials are built and multiplied together for the whole
        batch at once (_chunk_product).  The sequential loop applies one
        product per chunk and one re-orthogonalization per segment.
        """
        W, norms = grid
        lam = np.asarray(lams, dtype=complex)
        d, n_steps = self.dim, W.shape[-1]
        Y = np.broadcast_to(np.eye(d, dtype=complex), (len(lam), d, d)).copy()
        U = Y.copy()
        g = np.zeros((len(lam), d))
        logdet = np.zeros(len(lam), dtype=complex)
        # ||omega||_1 <= sum_k r^k ||W_k||_1 for every member, with r the
        # batch's largest |lambda|
        bounds = _horner(norms, float(np.abs(lam).max()))
        starts = _qr_schedule(bounds.tolist(), d)
        for s, t in zip(starts, starts[1:]):
            for a in range(s, t, _BLOCK):
                b = min(a + _BLOCK, t)
                Y = _chunk_product(W[..., a:b, None], lam,
                                   float(bounds[a:b].max())) @ Y
            Y, U, g, logdet = _qr_extract(Y, U, g, logdet)
        logdet = logdet + np.log(np.linalg.det(Y))

        frames = []
        for k, z in enumerate(lam):
            w = logdet[k] - self.X * (self._tr0 + z * self._tr1)
            w = complex(w.real, math.remainder(w.imag, 2.0 * math.pi))
            if abs(w.real) > 650.0:
                liou = math.inf
            else:
                liou = abs(cmath.exp(w) - 1.0)
            frames.append(ScaledFrame(
                lam=complex(z), Q=Y[k], U=U[k], row_scales=g[k],
                liouville_error=liou, n_steps=n_steps))
        return frames

    def _calibrate(self):
        """(cap, grid): the first cap, halving from 8, at which D at two
        probes moves by at most _CALIBRATION_TOL relative from the last
        grid's, and the step grid at that cap."""
        s = 2.0 * np.pi / self.X
        probes = [0.5j * s, 0.05 * s * (1.0 + 1.0j)]
        xi_probe = np.pi / self.X
        rho = cmath.exp(1j * xi_probe * self.X)
        cap = 8.0
        prev = None
        prev_n = -1
        while cap >= 1e-3:
            grid = self._step_grid(cap)
            n = grid[0].shape[-1]
            if n == prev_n:
                # the step-count floor made this grid identical to the last;
                # a comparison would be vacuous
                cap *= 0.5
                continue
            vals = [_det_scaled(fr, rho)
                    for fr in self._propagate(probes, grid)]
            if prev is not None:
                try:
                    err = max(abs(v.ratio(p) - 1.0) if p.mantissa != 0.0
                              else 1.0 for v, p in zip(vals, prev))
                except OverflowError:
                    err = math.inf      # a probe moved past the double range
                if err <= _CALIBRATION_TOL:
                    return cap, grid
            prev = vals
            prev_n = n
            cap *= 0.5
        raise StepSizeUnderflow(
            "monodromy failed to converge while refining the step grid")

    def frame(self, lam: complex) -> ScaledFrame:
        return self.frames([lam])[0]

    def frames(self, lams) -> list[ScaledFrame]:
        """Frames for many lambda; each distinct lambda is integrated once.

        The lambda not yet cached go through the step loop _BATCH at a time.
        Raises UntrustedFrames when a frame asked for, cached or new, misses
        Liouville's identity by more than _LIOUVILLE_TOL; new frames are
        cached first, so liouville_max covers the bad one.
        """
        lams = [complex(z) for z in lams]
        missing = list(dict.fromkeys(z for z in lams if z not in self._frames))
        for k in range(0, len(missing), _BATCH):
            chunk = missing[k:k + _BATCH]
            self._frames.update(zip(chunk, self._propagate(chunk, self._grid)))
        out = [self._frames[z] for z in lams]
        errors = [fr.liouville_error for fr in out]
        if not all(e <= _LIOUVILLE_TOL for e in errors):    # a NaN fails too
            raise UntrustedFrames(
                f"Liouville check failed: worst frame error {max(errors):.3e}")
        return out

    @property
    def frames_computed(self) -> int:
        return len(self._frames)

    @property
    def liouville_max(self) -> float:
        """Worst Liouville error over the cached frames (0 when none)."""
        return max((fr.liouville_error for fr in self._frames.values()),
                   default=0.0)

    def value(self, lam: complex, xi: float) -> EvansValue:
        rho = cmath.exp(1j * complex(xi) * self.X)
        return _det_scaled(self.frame(lam), rho)


def _chunk_product(W: np.ndarray, lam: np.ndarray,
                   nmax: float) -> np.ndarray:
    """Product E_last ... E_first of the step exponentials of one chunk.

    W holds the chunk's step exponents as a (6, d, d, steps, 1) slice of
    _step_grid's array and nmax bounds the 1-norm of every step's omega.
    The steps are multiplied pairwise as a tree, later factor on the left,
    one stacked product per level (an odd last factor is carried up a
    level), so a width-w chunk takes ceil(log2 w) stacked products.
    Returns an (L, d, d) array.
    """
    P = _expm_stack(_horner(W, lam), nmax)
    while P.shape[2] > 1:
        half = P.shape[2] // 2
        pairs = _matmul(P[:, :, 1:2 * half:2], P[:, :, 0:2 * half:2])
        if P.shape[2] % 2:
            pairs = np.concatenate([pairs, P[:, :, -1:]], axis=2)
        P = pairs
    return np.ascontiguousarray(P[:, :, 0].transpose(2, 0, 1))


def _qr_extract(Y, U, g, logdet):
    """One re-orthogonalization step of a batch of scaled frames.

    Input state per batch member is Psi_sofar = Y diag(e^g) U with U upper
    triangular, unit row maxima.  Y is QR-factored, the triangular part
    folded into the scaled triangular product row by row so that widely
    separated Floquet exponents never mix through the floating-point
    exponent range.  logdet accumulates log det R segment by segment (R
    entries are moderate), so it always tracks the true determinant of the
    product.  Y, U are (L, d, d), g is (L, d) and logdet is (L,).
    """
    Q, R = np.linalg.qr(Y)
    logdet = logdet + np.log(np.diagonal(R, axis1=1, axis2=2)).sum(axis=1)
    # suffix maxima of g: row i of R only touches rows k >= i of diag(e^g) U,
    # so row i is scaled by e^{h_i} and R_ik e^{g_k - h_i} never overflows
    h = np.maximum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.triu(R * np.exp(g[:, None, :] - h[:, :, None]))
    rows = W @ U
    m = np.abs(rows).max(axis=2, keepdims=True)
    live = m > 0.0
    # a vanished row stays zero with scale -inf
    with np.errstate(divide="ignore"):
        g_new = h + np.log(m[:, :, 0])
    return Q, rows / np.where(live, m, 1.0), g_new, logdet


def _det_scaled(frame: ScaledFrame, rho: complex) -> EvansValue:
    """det(Psi - rho I) as an EvansValue, row-scaled against overflow.

    With Psi = Q diag(e^g) U, det(Psi - rho I) = det(Q) det(D_g U - rho Q*);
    each row of that matrix is scaled by max(e^{g_i}, |rho|) and the scales
    collected into the exponent; |rho| = 1 for real xi, so none exceeds 1.
    """
    Q, U, g = frame.Q, frame.U, frame.row_scales
    d = U.shape[0]
    Qh = Q.conj().T
    log_rho = math.log(abs(rho))
    exponent = 0.0
    M = np.empty((d, d), dtype=complex)
    for i in range(d):
        ls = max(g[i], log_rho)
        M[i] = U[i] * math.exp(g[i] - ls) - rho * math.exp(-ls) * Qh[i]
        exponent += ls
    mant = np.linalg.det(Q) * np.linalg.det(M)
    return EvansValue(mantissa=complex(mant), exponent=exponent)


# -- contours ----------------------------------------------------------------


@dataclass(frozen=True)
class Contour:
    """A closed contour: right-half-plane semicircle or a circle."""

    kind: str                    # "semicircle" | "circle"
    radius: float
    center: complex = 0.0 + 0.0j

    def point(self, t: float) -> complex:
        """Counterclockwise parametrization on t in [0, 1)."""
        R, c = self.radius, self.center
        if self.kind == "circle":
            return c + R * cmath.exp(2j * np.pi * t)
        if self.kind == "semicircle":
            if t < 0.5:
                # right arc from -iR to +iR
                return c + R * cmath.exp(1j * np.pi * (2.0 * t - 0.5))
            # imaginary-axis diameter from +iR down to -iR
            return c + 1j * R * (1.0 - 4.0 * (t - 0.5))
        raise DomainError(f"unknown contour kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "circle":
            return f"circle:c={self.center:g},r={self.radius:g}"
        return f"semicircle:R={self.radius:g}"

    @classmethod
    def parse(cls, text: str) -> "Contour":
        """`semicircle:R=...` or `circle:c=...,r=...` (c defaults to 0); a
        missing or non-numeric field, a radius that is not finite and > 0,
        or a centre that is not finite raises DomainError."""
        kind, _, rest = text.partition(":")
        kv = {}
        for item in rest.split(","):
            if item:
                key, _, val = item.partition("=")
                kv[key.strip()] = val.strip()
        if kind not in ("semicircle", "circle"):
            raise DomainError(f"unknown contour spec {text!r}")
        try:
            radius = float(kv["R" if kind == "semicircle" else "r"])
            center = complex(kv.get("c", "0")) if kind == "circle" else 0j
        except (KeyError, ValueError) as err:
            raise DomainError(f"malformed contour spec {text!r}: "
                              f"{err!r}") from None
        require_positive("contour radius", radius)
        if not cmath.isfinite(center):
            raise DomainError(f"a contour needs a finite centre, got {text!r}")
        return cls(kind=kind, radius=radius, center=center)


@dataclass(frozen=True)
class ContourReport:
    """Accepted adaptive contour with its winding number."""

    contour: Contour
    xi: float
    lam: np.ndarray
    values: list[EvansValue] = field(repr=False)
    winding: int = 0
    winding_error: float = 0.0   # |w - winding| of the accumulated argument
    max_jump: float = 0.0
    refinements: int = 0
    perturbed: bool = False

    def to_dict(self) -> dict:
        return {
            "contour": self.contour.describe(),
            "xi": self.xi,
            "points": [[z.real, z.imag] for z in self.lam],
            "values": [[v.mantissa.real, v.mantissa.imag, v.exponent]
                       for v in self.values],
            "winding": self.winding,
            "winding_error": self.winding_error,
            "max_jump": self.max_jump,
            "refinements": self.refinements,
            "perturbed": self.perturbed,
        }


def _relative_jump(a: EvansValue, b: EvansValue) -> float:
    if a.mantissa == 0.0 or b.mantissa == 0.0:
        return math.inf
    try:
        r = b.ratio(a)
    except OverflowError:
        return math.inf
    mag = abs(r)
    if mag == 0.0 or not math.isfinite(mag):
        return math.inf
    return abs(r - 1.0) / min(1.0, mag)


_CONTOUR_NODES = 32     # equispaced starting points of every contour
_MAX_POINTS = 4000      # refinement budget per contour
_REL_JUMP = 0.2         # largest relative jump of D between contour neighbours


def winding_number(evaluator: EvansEvaluator, contour: Contour,
                   xi: float) -> ContourReport:
    """Adaptive winding number of D(., xi) along the contour.

    Starting from _CONTOUR_NODES equispaced parameters, points are inserted
    at parameter midpoints until every consecutive relative jump is at most
    _REL_JUMP (Rouche criterion); the accumulated argument must round to an
    integer with margin >= 0.25.  A contour on which D vanishes is tried
    once more with its radius 1e-3 larger (the report's `perturbed`).
    """
    try:
        return _winding_once(evaluator, contour, xi, False)
    except ZeroOnContour:
        pass
    contour = Contour(kind=contour.kind, radius=contour.radius * (1.0 + 1e-3),
                      center=contour.center)
    return _winding_once(evaluator, contour, xi, True)


def _contour_points(evaluator: EvansEvaluator, contour: Contour, xi: float,
                    ts: list[float]) -> list[tuple]:
    """(t, lambda, D(lambda, xi)) at each parameter in `ts`; the frames go
    through one batch."""
    lam = [contour.point(t) for t in ts]
    evaluator.frames(lam)
    return [(t, z, evaluator.value(z, xi)) for t, z in zip(ts, lam)]


def _winding_once(evaluator: EvansEvaluator, contour: Contour, xi: float,
                  perturbed: bool) -> ContourReport:
    points = _contour_points(
        evaluator, contour, xi,
        list(np.linspace(0.0, 1.0, _CONTOUR_NODES, endpoint=False)))
    refinements = 0
    while True:
        vals = [v for _, _, v in points]
        if any(v.mantissa == 0.0 for v in vals):
            raise ZeroOnContour(f"D vanished on the contour at xi={xi:g}")
        pairs = list(zip(vals, vals[1:] + vals[:1]))   # neighbours, closed
        jumps = [_relative_jump(a, b) for a, b in pairs]
        bad = [i for i, j in enumerate(jumps) if j > _REL_JUMP]
        if not bad:
            break
        if len(points) + len(bad) > _MAX_POINTS:
            scale_log = max(v.log_abs for v in vals)
            if min(v.log_abs for v in vals) < scale_log - 30.0:
                raise ZeroOnContour(
                    f"|D| collapses on the contour at xi={xi:g} while "
                    f"refining past {_MAX_POINTS} points")
            raise MaxPointsExceeded(
                f"contour refinement exceeded {_MAX_POINTS} points")
        # t = 0 stays the first point, so the last gap ends at t = 1 and
        # every midpoint merges in right after the start of its gap
        mids = [0.5 * (points[i][0] + (points[i + 1][0] if i + 1 < len(points)
                                       else 1.0)) for i in bad]
        new = dict(zip(bad, _contour_points(evaluator, contour, xi, mids)))
        points = [q for i, p in enumerate(points)
                  for q in ((p, new[i]) if i in new else (p,))]
        refinements += 1
    total = sum(cmath.phase(b.ratio(a)) for a, b in pairs)
    w = total / (2.0 * np.pi)
    wi = round(w)
    if abs(w - wi) > 0.25:
        raise MaxPointsExceeded(
            f"winding {w:.3f} did not round to an integer with margin 0.25")
    return ContourReport(contour=contour, xi=xi,
                         lam=np.asarray([z for _, z, _ in points]),
                         values=vals, winding=int(wi),
                         winding_error=abs(w - wi), max_jump=max(jumps),
                         refinements=refinements, perturbed=perturbed)


# -- origin Taylor expansion -------------------------------------------------


@dataclass(frozen=True)
class OriginExpansion:
    """Taylor data of D(lambda, xi) at the origin through total order 3.

    c[a, b] e^{log_scale} multiplies lambda^a xi^b.  alpha solves
    c20 a^2 + c11 a + c02 = 0 (the two spectral curves lambda ~ alpha xi
    + beta xi^2), beta is the second-order coefficient; both are ordered
    by Im alpha where the real (alpha1 - alpha2)^2 < 0 (both on the
    imaginary axis), else by Re alpha (+-a + ib).  Nearly coincident alpha
    are returned too: verdict decides H1, and `rollwave taylor` writes them.
    """

    c: np.ndarray                # (4, 4) complex, c[a, b] for a + b <= 3
    alpha: np.ndarray            # (2,)
    beta: np.ndarray             # (2,)
    R: float
    reality_error: float
    representation_residual: float
    log_scale: float = 0.0

    def to_dict(self) -> dict:
        return {
            "c": [[[self.c[a, b].real, self.c[a, b].imag]
                   for b in range(4)] for a in range(4)],
            "alpha": [[z.real, z.imag] for z in self.alpha],
            "beta": [[z.real, z.imag] for z in self.beta],
            "R": self.R,
            "reality_error": self.reality_error,
            "representation_residual": self.representation_residual,
            "log_scale": self.log_scale,
        }


_TAYLOR_ORDER = 3       # total order of the origin expansion
_MAX_SHRINK = 6         # halvings of R allowed to find the double root alone
_REPRESENTATION_TOL = 1e-4  # relative miss of the held-out D refused
_DOUBLE_ROOT_TOL = 1e-6     # c00, c10 and c01 past this times |c20| put the
                            # double root off the origin


def _off_origin(c: np.ndarray) -> float:
    """The largest of |c00|, |c10| and |c01|: zero for a double root of D
    at (lambda, xi) = (0, 0)."""
    return max(abs(c[0, 0]), abs(c[1, 0]), abs(c[0, 1]))


def _origin_radius(X: float) -> float:
    """Starting radius of the origin expansion's circle: 1 % of 2 pi / X."""
    return 1e-2 * (2.0 * np.pi / X)


def _taylor_circle(vals: np.ndarray, R: float) -> np.ndarray:
    """Taylor coefficients d_j, j = 0.._TAYLOR_ORDER, at 0 from values on a
    circle.

    `vals` sit at lambda_k = R e^{2 pi i k / n}.  The trapezoid rule on
    that circle, exponentially accurate for the periodic analytic
    integrand, turns the Cauchy integrals into one FFT:
    d_j = R^-j fft(vals)_j / n.
    """
    j = np.arange(_TAYLOR_ORDER + 1)
    return np.fft.fft(vals)[j] / len(vals) * R ** (-j)


def origin_taylor(evaluator: EvansEvaluator) -> OriginExpansion:
    """Origin expansion c_{a,b}, alpha_j, beta_j of the Evans function.

    The xi-dependence is exactly a degree-d polynomial in e^{i xi X}, so
    K + 1 Floquet samples at the (K+1)-th roots of unity of e^{i xi X}
    determine it; the lambda Taylor coefficients per sample come from
    Cauchy integrals on |lambda| = R, evaluated on the _CONTOUR_NODES
    frames the winding check on that circle has already computed.  R starts
    at _origin_radius(X) and halves, at most _MAX_SHRINK times, while the
    circle holds more than the double root at the origin; a circle that
    holds fewer than two roots raises WrongRootCountAtR at once, since a
    smaller one cannot gain a root.  Every
    D is divided by one common e^{log_scale} before it leaves the scaled
    form, so no magnitude past the double range is formed; alpha, beta and
    the checks are ratios of the c_{a,b}, which that factor leaves alone.
    Raises InaccurateExpansion when the expansion misses D at a held-out
    (lambda, xi) by more than _REPRESENTATION_TOL relative, or when
    max(|c00|, |c10|, |c01|) is above _DOUBLE_ROOT_TOL |c20|: for an exact
    wave, translation and conservation of mass make the origin a root of
    D(., 0) of multiplicity at least 2, and a higher one raises
    DegenerateQuadratic.
    """
    X = evaluator.X
    R = _origin_radius(X)
    for _ in range(_MAX_SHRINK + 1):
        rep = winding_number(evaluator, Contour("circle", R), 0.0)
        if rep.winding <= 2:
            break
        R *= 0.5
    if rep.winding != 2:
        raise WrongRootCountAtR(
            f"winding of D(., 0) on |lambda|=R is {rep.winding}, expected 2")

    # a ZeroOnContour retry perturbs the radius: use the accepted circle
    R = rep.contour.radius
    frames = evaluator.frames([rep.contour.point(k / _CONTOUR_NODES)
                               for k in range(_CONTOUR_NODES)])
    K = _TAYLOR_ORDER
    m = K + 1
    xis = np.pi * 2.0 * np.arange(m) / (m * X)       # rho at m-th roots of 1
    # held-out Floquet sample; lambda well inside the circle so the order-K
    # lambda truncation does not pollute the rho-basis check
    xi_h = np.pi / (3.0 * X)
    rho_h = cmath.exp(1j * xi_h * X)
    lam_h = 0.1 * R * cmath.exp(0.7j)
    held = evaluator.value(lam_h, xi_h)
    D = [[_det_scaled(fr, cmath.exp(1j * x * X)) for fr in frames]
         for x in xis]
    log_scale = max(held.exponent, *(v.exponent for row in D for v in row))

    def unscaled(v: EvansValue) -> complex:
        return v.mantissa * math.exp(v.exponent - log_scale)

    d = np.array([_taylor_circle(np.array([unscaled(v) for v in row]), R)
                  for row in D])
    # d[r, j] = sum_k f[k, j] rho_r^k with rho_r = exp(+2 pi i r / m), so the
    # inverse transform is the *forward* FFT (numpy's fft kernel carries the
    # minus sign) divided by m.
    f = np.fft.fft(d, axis=0) / m

    c = np.zeros((K + 1, K + 1), dtype=complex)
    ks = np.arange(m)
    for b in range(K + 1):
        wk = (1j * ks * X) ** b / math.factorial(b)
        for a in range(K + 1 - b):
            c[a, b] = np.dot(wk, f[:, a])

    # reality structure from conjugation symmetry
    scale = max(abs(c).max(), 1e-300)
    rerr = 0.0
    for a in range(K + 1):
        for b in range(K + 1 - a):
            bad = abs(c[a, b].imag) if b % 2 == 0 else abs(c[a, b].real)
            rerr = max(rerr, bad / scale)

    pred = sum((sum(f[k, j] * lam_h ** j for j in range(K + 1))) * rho_h ** k
               for k in range(m))
    truth = unscaled(held)
    rep_res = abs(pred - truth) / max(abs(truth), 1e-300)
    if not rep_res <= _REPRESENTATION_TOL:
        raise InaccurateExpansion(
            f"representation residual {rep_res:.3e} at the held-out sample "
            f"above {_REPRESENTATION_TOL:g}")

    c20 = c[2, 0]
    if abs(c20) < 1e-10 * scale:
        raise DegenerateQuadratic(
            f"|c20| = {abs(c20):.3e} is below the degeneracy floor")
    if not _off_origin(c) <= _DOUBLE_ROOT_TOL * abs(c20):
        raise InaccurateExpansion(
            f"double root off the origin: max(|c00|, |c10|, |c01|) is "
            f"{_off_origin(c) / abs(c20):.3e} of |c20|, above "
            f"{_DOUBLE_ROOT_TOL:g}")
    disc = cmath.sqrt(c[1, 1] ** 2 - 4.0 * c20 * c[0, 2])
    # a fixed order, since the sign of the square root follows roundoff
    # (both alpha imaginary put the discriminant on its branch cut); the
    # conjugation symmetry makes (alpha1 - alpha2)^2 real
    alpha = [(-c[1, 1] + disc) / (2.0 * c20), (-c[1, 1] - disc) / (2.0 * c20)]
    on_axis = ((alpha[0] - alpha[1]) ** 2).real < 0.0
    alpha = np.array(sorted(alpha,
                            key=lambda z: z.imag if on_axis else z.real))
    beta = np.array([
        -(c[3, 0] * a ** 3 + c[2, 1] * a ** 2 + c[1, 2] * a + c[0, 3])
        / (2.0 * c20 * a + c[1, 1]) for a in alpha])
    return OriginExpansion(c=c, alpha=alpha, beta=beta, R=R,
                           reality_error=rerr,
                           representation_residual=rep_res,
                           log_scale=log_scale)


# -- root polishing ----------------------------------------------------------


_POLISH_TOL = 1e-10     # |D| reduction that counts as a root
_POLISH_MAX_ITER = 40


def polish_root(evaluator: EvansEvaluator, lam0: complex,
                xi: float) -> complex:
    """Polish a root seed of D(., xi) by Mueller's method.

    Converges when |D| falls below _POLISH_TOL times the local scale (the
    largest |D| seen among the initial points).  Near the origin, where the
    seeds already sit on |D| values at the evaluation noise floor, a
    stagnating step with a large |D| reduction is also accepted.
    """
    lam0 = complex(lam0)
    h0 = 1e-5 * max(abs(lam0), 2.0 * np.pi / evaluator.X * 1e-2)
    zs = [lam0 + h0, lam0 - h0, lam0]
    evaluator.frames(zs)
    vs = [evaluator.value(z, xi) for z in zs]
    eref = max(v.exponent for v in vs)
    fs = [v.mantissa * math.exp(v.exponent - eref) for v in vs]
    scale_log = max(v.log_abs for v in vs)
    target_log = scale_log + math.log(_POLISH_TOL)
    best_z, best_log = zs[-1], vs[-1].log_abs
    for _ in range(_POLISH_MAX_ITER):
        if vs[-1].log_abs <= target_log:
            return zs[-1]
        z0, z1, z2 = zs[-3:]
        f0, f1, f2 = fs[-3:]
        h1, h2 = z1 - z0, z2 - z1
        if h1 == 0 or h2 == 0 or (h1 + h2) == 0:
            break
        d1 = (f1 - f0) / h1
        d2 = (f2 - f1) / h2
        a = (d2 - d1) / (h1 + h2)
        b = a * h2 + d2
        disc = cmath.sqrt(b * b - 4.0 * f2 * a)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        if den == 0:
            break
        z3 = z2 - 2.0 * f2 / den
        v3 = evaluator.value(z3, xi)
        zs.append(z3)
        vs.append(v3)
        try:
            f3 = v3.mantissa * math.exp(v3.exponent - eref)
        except OverflowError:
            f3 = math.inf
        if not cmath.isfinite(f3):
            raise NoConvergence(f"polish from {lam0}: |D({z3})| is beyond "
                                f"the double range of the seeds' scale")
        fs.append(f3)
        if v3.log_abs < best_log:
            best_z, best_log = z3, v3.log_abs
        if abs(z3 - z2) <= 1e-13 * max(abs(z3), h0):
            break
    if best_log <= target_log:
        return best_z
    if best_log <= scale_log + math.log(1e-2):
        # stagnation or noise-floor bouncing after a clear |D| reduction
        # |D| fell by 1e4 from the seed scale and the iteration stagnated:
        # the residual floor of the monodromy, not the root, is the limit
        return best_z
    raise NoConvergence(
        f"polish from {lam0} stalled at |D| exponent {best_log:.2f} "
        f"(target {target_log:.2f})")


# -- verdict -----------------------------------------------------------------


_N_XI_WINDING = 6       # Floquet subsample for the winding check
_DISTINCT_TOL = 1e-4    # relative |alpha1 - alpha2| below which H1 is undecided
_BETA_MARGIN = 1e-8     # |Re beta| below this is indeterminate
_HILL_XI = 48           # Floquet samples of the Hill scan
_WINDING_R = 0.2        # radius of the right-half-plane winding semicircle


@dataclass(frozen=True)
class StabilityVerdict:
    """Composite diffusive spectral stability verdict."""

    overall: str                      # "stable" | "unstable" | "indeterminate"
    conditions: dict                  # name -> True/False/None
    witness: str | None = None
    reason: str | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"overall": self.overall, "conditions": dict(self.conditions),
                "witness": self.witness, "reason": self.reason,
                "diagnostics": dict(self.diagnostics)}


def verdict(profile: WaveProfile) -> StabilityVerdict:
    """Stability classification of a periodic wave.

    Combines the Hill scan (`hill.checked_scan` on _HILL_XI Floquet samples)
    outside twice _origin_radius(X), plus right-half-plane winding checks
    on the semicircle of radius _WINDING_R (D1), the origin Taylor
    expansion (D2: Re beta < 0 with alpha on the imaginary axis; D3: double
    root at the origin), and slope distinctness (H1).  One number judges
    the alpha pair: with delta = alpha1 - alpha2, H1 is undecided, and the
    answer indeterminate, when |delta| < _DISTINCT_TOL max|alpha|; past
    that, delta^2 > 0 (a pair +-a + ib) fails D2.  The Hill scan picks its
    truncation N from the coefficients' Fourier tails and stops at its first
    unstable row; the deciding row is re-solved at 3N/2, and the scan is
    repeated at 3N/2 until the two agree; the diagnostics carry its
    HillScan.diagnostics.  When N would pass hill._N_CAP first, the answer
    is indeterminate with both mu and both N in the reason.  The technical
    slope condition 2 nu u_x < F^-2 is evaluated and reported but does not
    enter the overall spectral verdict: it concerns the nonlinear
    (Kawashima-type damping) argument and fails for every wave once F is
    moderately large.  A wave whose residual is above its residual_bound,
    the bound its solver accepts, gets no answer but indeterminate, with
    the residual, the bound and n in the reason.
    Every failed self-check of the Evans stage is indeterminate with the
    reason "Evans failure: " and the error's class and message: an
    EvansError (the step-grid calibration, a frame's Liouville check, the
    origin expansion's root count, quadratic, held-out sample and double
    root, a zero on a winding contour or the contour's point budget) or an
    OverflowError.  D3, the double root at the origin, holds once the
    expansion exists.  Once Evans runs, the diagnostics carry its
    step cap, steps per frame and worst Liouville error, and
    after the winding checks their refinement rounds (summed over xi),
    largest relative jump and largest distance of a winding from its
    integer (winding_max_error, below 0.25 on every accepted contour).
    """
    conditions: dict[str, bool | None] = {
        "D1": None, "D2": None, "D3": None, "H1": None, "slope": None}
    diag: dict = {}
    evaluator = None

    def answer(overall: str, **text) -> StabilityVerdict:
        if evaluator is not None:
            diag["liouville_max"] = evaluator.liouville_max
        return StabilityVerdict(overall=overall, conditions=conditions,
                                diagnostics=diag, **text)

    residual, bound = profile.residual_norm, profile.residual_bound
    if not residual <= bound:
        return answer("indeterminate",
                      reason=f"wave not converged: residual {residual:.3e} "
                             f"above {bound:.1e}, the bound its solver "
                             f"accepts on n = {profile.n} nodes")

    problem = bloch_coeffs(profile)
    margin = slope_margin(profile)
    diag["slope_margin"] = margin
    conditions["slope"] = margin > 0.0

    X = problem.period
    scan = checked_scan(problem, _HILL_XI, 2.0 * _origin_radius(X))
    diag.update(scan.diagnostics)
    if scan.reason is not None:
        return answer("indeterminate", reason=scan.reason)
    if scan.unstable:
        conditions["D1"] = False
        return answer("unstable",
                      witness=f"Hill eigenvalue with Re lambda = "
                              f"{scan.mu:.3e} away from the origin")

    try:
        evaluator = EvansEvaluator(problem)
        diag["evans_cap"] = evaluator.cap
        diag["evans_steps_per_frame"] = evaluator.n_steps
        exp = origin_taylor(evaluator)
        diag["alpha"] = [[z.real, z.imag] for z in exp.alpha]
        diag["beta"] = [[z.real, z.imag] for z in exp.beta]
        delta = exp.alpha[0] - exp.alpha[1]
        amax = max(*abs(exp.alpha), 1e-300)
        if abs(delta) < _DISTINCT_TOL * amax:
            return answer("indeterminate",
                          reason=f"near-coincident origin slopes: "
                                 f"|alpha1 - alpha2| = {abs(delta):.3e} "
                                 f"< {_DISTINCT_TOL:g} * {amax:.3e}")
        conditions["H1"] = True
        conditions["D3"] = True
        re_beta = exp.beta.real.tolist()
        # (alpha1 - alpha2)^2 > 0: a pair +-a + ib off the imaginary axis
        if (delta * delta).real > 0.0 or any(rb > _BETA_MARGIN
                                             for rb in re_beta):
            conditions["D2"] = False
            return answer("unstable",
                          witness=f"origin expansion: alpha = "
                                  f"{exp.alpha.tolist()}, Re beta = {re_beta}")
        if any(abs(rb) <= _BETA_MARGIN for rb in re_beta):
            return answer("indeterminate",
                          reason=f"Re beta = {re_beta} within margin of zero")
        conditions["D2"] = True

        xi_w = np.pi / X * np.linspace(0.1, 1.0, _N_XI_WINDING)
        contour = Contour("semicircle", _WINDING_R)
        reports = [winding_number(evaluator, contour, float(x)) for x in xi_w]
    except (EvansError, OverflowError) as err:
        return answer("indeterminate",
                      reason=f"Evans failure: {type(err).__name__}: {err}")
    windings = [rep.winding for rep in reports]
    diag["windings"] = windings
    diag["winding_refinements"] = sum(rep.refinements for rep in reports)
    diag["winding_max_jump"] = max(rep.max_jump for rep in reports)
    diag["winding_max_error"] = max(rep.winding_error for rep in reports)
    diag["frames_computed"] = evaluator.frames_computed
    if any(w != 0 for w in windings):
        conditions["D1"] = False
        return answer("unstable",
                      witness=f"nonzero right-half-plane winding {windings}")
    conditions["D1"] = True
    return answer("stable")
