"""The periodic Evans function.

Monodromy matrices of the first-order Bloch systems Z' = (A0 + lambda A1) Z
are propagated by a fourth-order Magnus (commutator-corrected midpoint)
stepper on a step grid adapted to the local coefficient magnitude, with the
frame periodically re-orthogonalized by QR and the radial growth extracted
into a running log-scale.  A batch of lambda shares one step loop, and each
block of step exponentials uses the lowest Pade degree its norm allows.
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
from .hill import max_unstable, spectrum
from .linearize import SpectralProblem, bloch_coeffs
from .model import DomainError, slope_margin
from .profile import WaveProfile


class EvansError(Exception):
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


class NearDoubleAlpha(EvansError):
    """The two origin slopes alpha_j are too close to distinguish."""


_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_QR_STRIDE = 16         # Magnus steps between re-orthogonalizations
_NORM_CAP = 1e8         # ... or sooner, once the frame could grow past this
_BATCH = 64             # lambda carried through one step loop at most
_BLOCK = 256            # Magnus steps exponentiated at a time
_BALANCE_SWEEPS = 20    # passes of the diagonal balancing at most

# Pade degree m, Higham's bound theta_m on the 1-norm up to which the
# degree-m approximant is exact to unit roundoff (Higham 2005, "The scaling
# and squaring method for the matrix exponential revisited"), and the
# numerator coefficients b_0..b_m.
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1,
     (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (13, 5.371920351148152,
     (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0,
      670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
      960960.0, 16380.0, 182.0, 1.0)),
)


# ----------------------------------------------------------------------------
# scaled values and frames


@dataclass(frozen=True)
class EvansValue:
    """A complex value stored as mantissa * exp(exponent)."""

    mantissa: complex
    exponent: float

    def __complex__(self) -> complex:
        if self.mantissa == 0.0:
            return 0.0 + 0.0j
        try:
            return self.mantissa * math.exp(self.exponent)
        except OverflowError:
            raise OverflowError(
                f"Evans value exp({self.exponent:.1f}) is beyond the double "
                f"range") from None

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
        if de > 700.0:
            de = 700.0
        return self.mantissa / other.mantissa * math.exp(de)


@dataclass(frozen=True)
class ScaledFrame:
    """Monodromy Psi = Q diag(exp(row_scales)) U with Q unitary, U upper
    triangular with unit row maxima.

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
    untrusted: bool
    n_steps: int
    balance: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        s = np.exp(np.minimum(self.row_scales, 700.0))
        M = self.Q @ (s[:, None] * self.U)
        if self.balance is not None:
            b = self.balance
            M = b[:, None] * M / b[None, :]
        return M


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


def _norm1(M: np.ndarray) -> np.ndarray:
    """1-norms (largest column sums) of a stack of matrices."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


def _expm_stack(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of small matrices.

    The Pade degree is the smallest in _PADE whose theta_m bounds the
    largest 1-norm in the stack; past theta_13 the stack is scaled by 2^-s
    and the Pade-13 result squared s times.
    """
    nmax = float(_norm1(M).max()) if M.size else 0.0
    for m, theta, b in _PADE:
        if nmax <= theta:
            break
    s = max(0, int(np.ceil(np.log2(max(nmax, 1e-300) / theta))))
    A = M / (2.0 ** s)
    ident = np.broadcast_to(np.eye(A.shape[-1], dtype=A.dtype), A.shape)
    A2 = A @ A
    if m == 3:
        u = b[3] * A2 + b[1] * ident
        v = b[2] * A2 + b[0] * ident
    elif m == 5:
        A4 = A2 @ A2
        u = b[5] * A4 + b[3] * A2 + b[1] * ident
        v = b[4] * A4 + b[2] * A2 + b[0] * ident
    else:
        A4 = A2 @ A2
        A6 = A2 @ A4
        u = (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        v = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    U = A @ u
    E = np.linalg.solve(v - U, v + U)
    for _ in range(s):
        E = E @ E
    return E


class EvansEvaluator:
    """Caches monodromy frames of one spectral problem across lambda.

    The frame at a given lambda is xi-independent, so winding sweeps over
    many Floquet parameters and the origin Taylor expansion reuse each
    monodromy; `frames_computed` counts the distinct integrations done.
    """

    def __init__(self, problem: SpectralProblem, tol: float = 1e-10):
        fo = problem.first_order
        if fo is None:
            raise DomainError(
                f"problem kind {problem.kind!r} has no first-order form")
        self.X = float(problem.period)
        self.n, self.dim = fo.A0.shape[:2]
        self.tol = tol
        self._frames: dict[complex, ScaledFrame] = {}
        self._grids: dict[float, tuple] = {}
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
        self.cap = self._calibrate()

    # -- step grid -------------------------------------------------------

    def _step_grid(self, cap: float):
        """Magnus exponents on step edges adapted to the coefficient magnitude.

        Each step carries at most `cap` units of the integrated 1-norm of
        A0 + A1, so no single Magnus step spans a dynamic range the QR
        extraction cannot absorb.  Step j's fourth-order exponent is
        W0[j] + lambda W1[j] + lambda^2 W2[j]: the midpoint term and the
        commutator of the Gauss-node values B1, B2 of A0 + lambda A1,
        expanded in lambda; returns (W0, W1, W2).
        """
        if cap in self._grids:
            return self._grids[cap]
        omega = (np.abs(self._A0).sum(axis=2).max(axis=1)
                 + np.abs(self._A1).sum(axis=2).max(axis=1))
        # Magnus error density: the fourth-order local error scales like
        # h^5 ||A||^2 ||A''||, so equidistribute its fifth root; keep
        # h * ||A|| bounded as well so no single step spans a huge range
        k = fourier.wavenumbers(self.n, self.X)
        d2 = np.fft.ifft(-(k ** 2)[:, None, None]
                         * np.fft.fft(self._A0 + self._A1, axis=0),
                         axis=0).real
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
        nodes1 = edges[:-1] + _GAUSS[0] * h
        nodes2 = edges[:-1] + _GAUSS[1] * h
        A = np.stack([self._A0, self._A1], axis=1)
        B1 = fourier.interp(A, self.X, nodes1)
        B2 = fourier.interp(A, self.X, nodes2)
        G1, G2, H1, H2 = B1[:, 0], B2[:, 0], B1[:, 1], B2[:, 1]
        hc = h[:, None, None]
        c = (math.sqrt(3.0) / 12.0) * hc * hc
        grid = (0.5 * hc * (G1 + G2) + c * (G2 @ G1 - G1 @ G2),
                0.5 * hc * (H1 + H2) + c * (G2 @ H1 - H1 @ G2
                                            + H2 @ G1 - G1 @ H2),
                c * (H2 @ H1 - H1 @ H2))
        self._grids[cap] = grid
        return grid

    # -- monodromy -------------------------------------------------------

    def _propagate(self, lams: list[complex], cap: float) -> list[ScaledFrame]:
        """Monodromy frames of every lambda in `lams` through one step loop.

        The Magnus exponents are built and exponentiated _BLOCK steps at a
        time for the whole batch.  The batch shares one QR schedule: every
        _QR_STRIDE steps, or sooner where the running bound exp(sum of the
        step 1-norms) on any member's frame would pass _NORM_CAP.
        """
        W0, W1, W2 = self._step_grid(cap)
        lam = np.asarray(lams, dtype=complex)
        lam4 = lam[None, :, None, None]
        d = self.dim
        Y = np.broadcast_to(np.eye(d, dtype=complex), (len(lam), d, d)).copy()
        U = Y.copy()
        g = np.zeros((len(lam), d))
        logdet = np.zeros(len(lam), dtype=complex)
        # growth is the log of a bound on every member's ||Y||_1 (which
        # bounds max|Y|): ||Q||_1 <= sqrt(d) after a QR, each step multiplies
        # by at most exp(||omega||_1), and ||omega||_1 <= ||W0||_1
        # + r ||W1||_1 + r^2 ||W2||_1 with r the batch's largest |lambda|
        r = float(np.abs(lam).max())
        bounds = (_norm1(W0) + r * (_norm1(W1) + r * _norm1(W2))).tolist()
        log_fresh = 0.5 * math.log(d)
        log_cap = math.log(_NORM_CAP)
        growth = log_fresh
        since_qr = 0
        for start in range(0, len(W0), _BLOCK):
            blk = slice(start, start + _BLOCK)
            omega = W0[blk, None] + lam4 * (W1[blk, None]
                                            + lam4 * W2[blk, None])
            E = _expm_stack(omega)
            for Ej, nj in zip(E, bounds[blk]):
                if since_qr >= _QR_STRIDE or growth + nj > log_cap:
                    Y, U, g, logdet = _qr_extract(Y, U, g, logdet)
                    since_qr = 0
                    growth = log_fresh
                Y = Ej @ Y
                since_qr += 1
                growth += nj
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
                liouville_error=liou, untrusted=not liou <= 1e-6,
                n_steps=len(W0), balance=self.balance))
        return frames

    def _calibrate(self) -> float:
        s = 2.0 * np.pi / self.X
        probes = [0.5j * s, 0.05 * s * (1.0 + 1.0j)]
        xi_probe = np.pi / self.X
        rho = cmath.exp(1j * xi_probe * self.X)
        cap = 8.0
        prev = None
        prev_n = -1
        target = max(100.0 * self.tol, 1e-12)
        while cap >= 1e-3:
            n = len(self._step_grid(cap)[0])
            if n == prev_n:
                # the step-count floor made this grid identical to the last;
                # a comparison would be vacuous
                cap *= 0.5
                continue
            vals = [_det_scaled(fr, rho)
                    for fr in self._propagate(probes, cap)]
            if prev is not None:
                err = max(abs(v.ratio(p) - 1.0) if p.mantissa != 0.0 else 1.0
                          for v, p in zip(vals, prev))
                if err <= target:
                    return cap
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
        """
        lams = [complex(z) for z in lams]
        missing = list(dict.fromkeys(z for z in lams if z not in self._frames))
        for k in range(0, len(missing), _BATCH):
            chunk = missing[k:k + _BATCH]
            self._frames.update(zip(chunk, self._propagate(chunk, self.cap)))
        return [self._frames[z] for z in lams]

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
    collected into the exponent.
    """
    Q, U, g = frame.Q, frame.U, frame.row_scales
    d = U.shape[0]
    Qh = Q.conj().T
    log_rho = math.log(abs(rho)) if rho != 0.0 else -math.inf
    exponent = 0.0
    M = np.empty((d, d), dtype=complex)
    for i in range(d):
        ls = max(g[i], log_rho)
        if ls == -math.inf:
            ls = 0.0
        M[i] = U[i] * math.exp(min(g[i] - ls, 700.0)) \
            - rho * math.exp(min(-ls, 700.0)) * Qh[i]
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
        kind, _, rest = text.partition(":")
        kv = {}
        for item in rest.split(","):
            if item:
                key, _, val = item.partition("=")
                kv[key.strip()] = val.strip()
        if kind == "semicircle":
            return cls(kind="semicircle", radius=float(kv["R"]))
        if kind == "circle":
            return cls(kind="circle", radius=float(kv["r"]),
                       center=complex(kv.get("c", "0")))
        raise DomainError(f"unknown contour spec {text!r}")


@dataclass(frozen=True)
class ContourReport:
    """Accepted adaptive contour with its winding number."""

    contour: Contour
    xi: float
    t: np.ndarray
    lam: np.ndarray
    values: list[EvansValue] = field(repr=False)
    winding: int = 0
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
            "max_jump": self.max_jump,
            "refinements": self.refinements,
            "perturbed": self.perturbed,
        }


def _relative_jump(a: EvansValue, b: EvansValue) -> float:
    if a.mantissa == 0.0 or b.mantissa == 0.0:
        return math.inf
    r = b.ratio(a)
    mag = abs(r)
    if mag == 0.0 or not math.isfinite(mag):
        return math.inf
    return abs(r - 1.0) / min(1.0, mag)


_CONTOUR_NODES = 32     # equispaced starting points of every contour
_MAX_POINTS = 4000      # refinement budget per contour


def winding_number(evaluator: EvansEvaluator, contour: Contour, xi: float,
                   rel_jump: float = 0.2) -> ContourReport:
    """Adaptive winding number of D(., xi) along the contour.

    Starting from _CONTOUR_NODES equispaced parameters, points are inserted
    at parameter midpoints until every consecutive relative jump is at most
    rel_jump (Rouche criterion); the accumulated argument must round to an
    integer with margin >= 0.25.
    """
    perturbed = False
    for attempt in range(2):
        try:
            return _winding_once(evaluator, contour, xi, rel_jump, perturbed)
        except ZeroOnContour:
            if attempt == 1:
                raise
            contour = Contour(kind=contour.kind,
                              radius=contour.radius * (1.0 + 1e-3),
                              center=contour.center)
            perturbed = True
    raise AssertionError("unreachable")


def _winding_once(evaluator: EvansEvaluator, contour: Contour, xi: float,
                  rel_jump: float, perturbed: bool) -> ContourReport:
    ts = list(np.linspace(0.0, 1.0, _CONTOUR_NODES, endpoint=False))
    lam = [contour.point(t) for t in ts]
    evaluator.frames(lam)
    vals = [evaluator.value(z, xi) for z in lam]
    refinements = 0
    while True:
        if any(v.mantissa == 0.0 for v in vals):
            raise ZeroOnContour(f"D vanished on the contour at xi={xi:g}")
        jumps = [_relative_jump(vals[i], vals[(i + 1) % len(vals)])
                 for i in range(len(vals))]
        bad = [i for i, j in enumerate(jumps) if j > rel_jump]
        if not bad:
            break
        if len(ts) + len(bad) > _MAX_POINTS:
            scale_log = max(v.log_abs for v in vals)
            if min(v.log_abs for v in vals) < scale_log - 30.0:
                raise ZeroOnContour(
                    f"|D| collapses on the contour at xi={xi:g} while "
                    f"refining past {_MAX_POINTS} points")
            raise MaxPointsExceeded(
                f"contour refinement exceeded {_MAX_POINTS} points")
        new_ts = []
        for i in bad:
            t0 = ts[i]
            t1 = ts[(i + 1) % len(ts)] + (1.0 if i + 1 == len(ts) else 0.0)
            new_ts.append(0.5 * (t0 + t1) % 1.0)
        new_lam = [contour.point(t) for t in new_ts]
        evaluator.frames(new_lam)
        for t, z in zip(new_ts, new_lam):
            vals.append(evaluator.value(z, xi))
            ts.append(t)
        order = np.argsort(ts)
        ts = [ts[i] for i in order]
        lam = [contour.point(t) for t in ts]
        vals = [vals[i] for i in order]
        refinements += 1
    total = 0.0
    max_jump = 0.0
    for i in range(len(vals)):
        r = vals[(i + 1) % len(vals)].ratio(vals[i])
        total += cmath.phase(r)
        max_jump = max(max_jump, _relative_jump(vals[i],
                                                vals[(i + 1) % len(vals)]))
    w = total / (2.0 * np.pi)
    wi = round(w)
    if abs(w - wi) > 0.25:
        raise MaxPointsExceeded(
            f"winding {w:.3f} did not round to an integer with margin 0.25")
    return ContourReport(contour=contour, xi=xi, t=np.asarray(ts),
                         lam=np.asarray(lam), values=vals, winding=int(wi),
                         max_jump=max_jump, refinements=refinements,
                         perturbed=perturbed)


def winding_sweep(evaluator: EvansEvaluator, contour: Contour, xis,
                  rel_jump: float = 0.2) -> list[ContourReport]:
    """Winding numbers over many Floquet parameters with shared monodromies.

    Frames depend only on lambda, so all xi values reuse one cache; the
    total integration count is evaluator.frames_computed afterwards.
    """
    return [winding_number(evaluator, contour, float(x), rel_jump=rel_jump)
            for x in np.atleast_1d(xis)]


# -- origin Taylor expansion -------------------------------------------------


@dataclass(frozen=True)
class OriginExpansion:
    """Taylor data of D(lambda, xi) at the origin through total order 3.

    c[a, b] multiplies lambda^a xi^b.  alpha solves
    c20 a^2 + c11 a + c02 = 0 (the two spectral curves lambda ~ alpha xi
    + beta xi^2), beta is the second-order coefficient; both are ordered
    by (Im alpha, Re alpha).
    """

    c: np.ndarray                # (4, 4) complex, c[a, b] for a + b <= 3
    alpha: np.ndarray            # (2,)
    beta: np.ndarray             # (2,)
    R: float
    reality_error: float
    representation_residual: float

    @property
    def double_root_ok(self) -> bool:
        s = abs(self.c[2, 0])
        return bool(abs(self.c[0, 0]) <= 1e-6 * s
                    and abs(self.c[1, 0]) <= 1e-6 * s
                    and abs(self.c[0, 1]) <= 1e-6 * s)

    def to_dict(self) -> dict:
        return {
            "c": [[[self.c[a, b].real, self.c[a, b].imag]
                   for b in range(4)] for a in range(4)],
            "alpha": [[z.real, z.imag] for z in self.alpha],
            "beta": [[z.real, z.imag] for z in self.beta],
            "R": self.R,
            "reality_error": self.reality_error,
            "representation_residual": self.representation_residual,
        }


_TAYLOR_ORDER = 3       # total order of the origin expansion
_MAX_SHRINK = 6         # halvings of R allowed to find the double root alone
_DISTINCT_TOL = 1e-4    # relative |alpha1 - alpha2| below which H1 is undecided


def _taylor_circle(frames: list[ScaledFrame], R: float, X: float,
                   xi: float) -> np.ndarray:
    """Taylor coefficients d_j, j = 0.._TAYLOR_ORDER, of D(., xi) at 0.

    `frames` sit at lambda_k = R e^{2 pi i k / n}.  The trapezoid rule on
    that circle, exponentially accurate for the periodic analytic
    integrand, turns the Cauchy integrals into one FFT:
    d_j = R^-j fft(D(lambda_k))_j / n.
    """
    rho = cmath.exp(1j * xi * X)
    vals = np.array([complex(_det_scaled(fr, rho)) for fr in frames])
    j = np.arange(_TAYLOR_ORDER + 1)
    return np.fft.fft(vals)[j] / len(vals) * R ** (-j)


def origin_taylor(evaluator: EvansEvaluator,
                  R: float | None = None) -> OriginExpansion:
    """Origin expansion c_{a,b}, alpha_j, beta_j of the Evans function.

    The xi-dependence is exactly a degree-d polynomial in e^{i xi X}, so
    K + 1 Floquet samples at the (K+1)-th roots of unity of e^{i xi X}
    determine it; the lambda Taylor coefficients per sample come from
    Cauchy integrals on |lambda| = R, evaluated on the _CONTOUR_NODES
    frames the winding check on that circle has already computed.
    """
    X = evaluator.X
    if R is None:
        R = 1e-2 * (2.0 * np.pi / X)

    for shrink in range(_MAX_SHRINK + 1):
        rep = winding_number(evaluator, Contour("circle", R), 0.0)
        if rep.winding == 2:
            break
        R *= 0.5
    else:
        raise WrongRootCountAtR(
            f"winding of D(., 0) on |lambda|=R is {rep.winding}, expected 2")

    # a ZeroOnContour retry perturbs the radius: use the accepted circle
    R = rep.contour.radius
    frames = evaluator.frames([rep.contour.point(k / _CONTOUR_NODES)
                               for k in range(_CONTOUR_NODES)])
    K = _TAYLOR_ORDER
    m = K + 1
    xis = np.pi * 2.0 * np.arange(m) / (m * X)       # rho at m-th roots of 1
    d = np.array([_taylor_circle(frames, R, X, x) for x in xis])
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

    # held-out Floquet sample; lambda well inside the circle so the order-K
    # lambda truncation does not pollute the rho-basis check
    xi_h = np.pi / (3.0 * X)
    rho_h = cmath.exp(1j * xi_h * X)
    lam_h = 0.1 * R * cmath.exp(0.7j)
    pred = sum((sum(f[k, j] * lam_h ** j for j in range(K + 1))) * rho_h ** k
               for k in range(m))
    truth = complex(evaluator.value(lam_h, xi_h))
    rep_res = abs(pred - truth) / max(abs(truth), 1e-300)

    c20 = c[2, 0]
    if abs(c20) < 1e-10 * scale:
        raise DegenerateQuadratic(
            f"|c20| = {abs(c20):.3e} is below the degeneracy floor")
    disc = cmath.sqrt(c[1, 1] ** 2 - 4.0 * c20 * c[0, 2])
    # sorted by (Im, Re): when both alpha are imaginary the discriminant
    # sits on the branch cut of sqrt, and roundoff alone would swap them
    alpha = np.array(sorted([(-c[1, 1] + disc) / (2.0 * c20),
                             (-c[1, 1] - disc) / (2.0 * c20)],
                            key=lambda z: (z.imag, z.real)))
    amax = max(abs(alpha[0]), abs(alpha[1]), 1e-300)
    if abs(alpha[0] - alpha[1]) < _DISTINCT_TOL * amax:
        raise NearDoubleAlpha(
            f"|alpha1 - alpha2| = {abs(alpha[0] - alpha[1]):.3e} "
            f"< {_DISTINCT_TOL:g} * {amax:.3e}")
    beta = np.array([
        -(c[3, 0] * a ** 3 + c[2, 1] * a ** 2 + c[1, 2] * a + c[0, 3])
        / (2.0 * c20 * a + c[1, 1]) for a in alpha])
    return OriginExpansion(c=c, alpha=alpha, beta=beta, R=R,
                           reality_error=rerr,
                           representation_residual=rep_res)


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
    fs = [v.mantissa * math.exp(min(v.exponent - eref, 700.0)) for v in vs]
    scale_log = max(v.log_abs for v in vs)
    target_log = scale_log + math.log(_POLISH_TOL)
    best_z, best_log = zs[-1], vs[-1].log_abs
    stagnated = False
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
        f3 = v3.mantissa * math.exp(min(v3.exponent - eref, 700.0))
        fs.append(f3)
        if v3.log_abs < best_log:
            best_z, best_log = z3, v3.log_abs
        if abs(z3 - z2) <= 1e-13 * max(abs(z3), h0):
            stagnated = True
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


_HILL_TOL = 1e-7        # Hill instability threshold away from the origin
_N_XI_WINDING = 6       # Floquet subsample for the winding check
_IMAG_TOL = 1e-4        # |Re alpha| / |alpha| for "alpha in iR"
_BETA_MARGIN = 1e-8     # |Re beta| below this is indeterminate


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


def verdict(profile: WaveProfile, *, N: int = 60, n_xi: int = 48,
            winding_R: float = 0.2,
            evans_tol: float = 1e-10) -> StabilityVerdict:
    """Stability classification of a periodic wave.

    Combines the Hill scan (truncation N, n_xi Floquet samples) away from
    the origin plus right-half-plane winding checks on the semicircle of
    radius winding_R (D1), the origin Taylor expansion (D2: Re beta < 0 with
    alpha on the imaginary axis; D3: double root at the origin), and slope
    distinctness (H1).  The technical slope condition 2 nu u_x < F^-2 is
    evaluated and reported but does not enter the overall spectral verdict:
    it concerns the nonlinear (Kawashima-type damping) argument and fails
    for every wave once F is moderately large.
    """
    conditions: dict[str, bool | None] = {
        "D1": None, "D2": None, "D3": None, "H1": None, "slope": None}
    diag: dict = {}

    problem = bloch_coeffs(profile)
    margin = slope_margin(profile)
    diag["slope_margin"] = margin
    conditions["slope"] = margin > 0.0

    X = problem.period
    R0 = 1e-2 * (2.0 * np.pi / X)
    cloud = spectrum(problem, N, n_xi=n_xi)
    mu = max_unstable(cloud, r0=2.0 * R0)
    diag["hill_max_real"] = mu
    diag["hill_eigensolves"] = cloud.eigensolves
    if mu > _HILL_TOL:
        conditions["D1"] = False
        return StabilityVerdict(
            overall="unstable", conditions=conditions,
            witness=f"Hill eigenvalue with Re lambda = {mu:.3e} "
                    f"away from the origin",
            diagnostics=diag)

    evaluator = EvansEvaluator(problem, tol=evans_tol)

    try:
        exp = origin_taylor(evaluator, R=R0)
    except NearDoubleAlpha as err:
        diag["liouville_max"] = evaluator.liouville_max
        return StabilityVerdict(
            overall="indeterminate", conditions=conditions,
            reason=f"near-coincident origin slopes: {err}", diagnostics=diag)
    except (WrongRootCountAtR, DegenerateQuadratic, OverflowError) as err:
        diag["liouville_max"] = evaluator.liouville_max
        return StabilityVerdict(
            overall="indeterminate", conditions=conditions,
            reason=f"origin expansion unavailable: {err}", diagnostics=diag)
    diag["liouville_max"] = evaluator.liouville_max
    diag["alpha"] = [[z.real, z.imag] for z in exp.alpha]
    diag["beta"] = [[z.real, z.imag] for z in exp.beta]
    conditions["D3"] = exp.double_root_ok
    conditions["H1"] = True
    amax = max(abs(z) for z in exp.alpha)
    alpha_imag = all(abs(z.real) <= _IMAG_TOL * max(abs(z), amax * 1e-3)
                     for z in exp.alpha)
    re_beta = [z.real for z in exp.beta]
    if any(rb > _BETA_MARGIN for rb in re_beta) or not alpha_imag:
        conditions["D2"] = False
        return StabilityVerdict(
            overall="unstable", conditions=conditions,
            witness=f"origin expansion: alpha = {exp.alpha.tolist()}, "
                    f"Re beta = {re_beta}",
            diagnostics=diag)
    if any(abs(rb) <= _BETA_MARGIN for rb in re_beta):
        conditions["D2"] = None
        return StabilityVerdict(
            overall="indeterminate", conditions=conditions,
            reason=f"Re beta = {re_beta} within margin of zero",
            diagnostics=diag)
    conditions["D2"] = True

    xi_w = np.pi / X * np.linspace(0.1, 1.0, _N_XI_WINDING)
    reports = winding_sweep(evaluator, Contour("semicircle", winding_R), xi_w)
    windings = [rep.winding for rep in reports]
    diag["windings"] = windings
    diag["frames_computed"] = evaluator.frames_computed
    diag["liouville_max"] = evaluator.liouville_max
    if any(w != 0 for w in windings):
        conditions["D1"] = False
        return StabilityVerdict(
            overall="unstable", conditions=conditions,
            witness=f"nonzero right-half-plane winding {windings}",
            diagnostics=diag)
    conditions["D1"] = True

    spectral = ("D1", "D2", "D3", "H1")
    if all(conditions[k] for k in spectral):
        return StabilityVerdict(overall="stable", conditions=conditions,
                                diagnostics=diag)
    failed = [k for k in spectral if conditions[k] is False]
    if failed:
        return StabilityVerdict(overall="unstable", conditions=conditions,
                                witness=f"conditions failed: {failed}",
                                diagnostics=diag)
    return StabilityVerdict(overall="indeterminate", conditions=conditions,
                            reason="some conditions undecided",
                            diagnostics=diag)
