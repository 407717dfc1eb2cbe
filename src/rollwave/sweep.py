"""Stability maps over (F, q, X), boundary bisection, and power-law fits.

Records are keyed by the physical parameter tuple (alpha, F, nu, q, X) and
persisted to an append-only JSON-lines store, one record per line, so an
interrupted sweep resumes by skipping keys already present.  Wall-clock
timings are carried on the in-memory records but excluded from the store so
that two runs of the same grid produce byte-identical files.  Maps and
bisection probes append to the same store, and boundary_points reads its
brackets back for powerlaw_fit.

One stability_map call, or one boundary_bisect call with all of its probes,
shares its F = infinity limit waves: each (q0, X0, nu, n) is solved once,
and a new X0 continues in the period, up or down, from the nearest one
solved (see profile.limit_profile_alpha_m2).  The waves are dropped when the
call returns.  A point whose X0 matches no wave solved before it therefore
depends, at the level of rounding, on the neighbour that seeded it; the same
grid in the same order replays byte-identical.

The alpha = -2 scaling family is parameterized by q0: the physical discharge
is q = q0 F and the physical period X = X0 F^2 for the rescaled period X0.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evans
from .model import DomainError, NumericalFailure
from .profile import WaveProfile, _limit_table, profile_from_limit

# Least grid points of every profile: profile_from_limit returns the larger
# of this and the grid its limit wave resolved on, so a record's meta n may
# be larger.
_PROFILE_N = 512


class NotBracketed(Exception):
    """The two bisection endpoints carry the same verdict."""


class ProbeFailed(Exception):
    """A bisection probe was decided neither stable nor unstable."""


@dataclass(frozen=True)
class SweepRecord:
    """Verdict of one wave in a stability map."""

    alpha: float
    F: float
    nu: float
    q: float
    X: float
    verdict: str                       # "stable" | "unstable" | "indeterminate" | "failed"
    witness: str | None = None
    conditions: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)   # q0, X0, n, residual, diagnostics

    @property
    def key(self) -> tuple:
        return (self.alpha, self.F, self.nu, self.q, self.X)

    def to_json(self) -> str:
        d = {"alpha": self.alpha, "F": self.F, "nu": self.nu, "q": self.q,
             "X": self.X, "verdict": self.verdict, "witness": self.witness,
             "conditions": dict(self.conditions), "meta": dict(self.meta)}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "SweepRecord":
        d = json.loads(line)
        try:
            return cls(alpha=d["alpha"], F=d["F"], nu=d["nu"], q=d["q"],
                       X=d["X"], verdict=d["verdict"],
                       witness=d.get("witness"),
                       conditions=d.get("conditions", {}),
                       meta=d.get("meta", {}))
        except (KeyError, TypeError) as err:
            raise DomainError(f"malformed sweep record: {err!r}") from None


class ResultStore:
    """Append-only JSON-lines store of SweepRecords with key-based resume.

    A sweep killed mid-append leaves a torn final line without its newline;
    loading drops it with a warning and truncates the file back to the last
    newline, so the next append starts a clean line.  A malformed line
    anywhere else raises.
    """

    def __init__(self, path=None):
        self.path = path
        self.records: list[SweepRecord] = []
        self._keys: set[tuple] = set()
        if path is not None:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                data = b""
            cut = data.rfind(b"\n") + 1
            tail = data[cut:]
            if tail.strip():
                try:
                    SweepRecord.from_json(tail.decode("utf-8"))
                except ValueError:
                    warnings.warn(f"{path}: dropping a torn final line of "
                                  f"{len(tail)} bytes", RuntimeWarning)
                    with open(path, "r+b") as fh:
                        fh.truncate(cut)
                    data = data[:cut]
                else:
                    with open(path, "ab") as fh:
                        fh.write(b"\n")
            for line in data.decode("utf-8").splitlines():
                if line.strip():
                    self._absorb(SweepRecord.from_json(line))

    def _absorb(self, rec: SweepRecord):
        if rec.key in self._keys:
            raise DomainError(f"duplicate sweep key {rec.key}")
        self.records.append(rec)
        self._keys.add(rec.key)

    def append(self, rec: SweepRecord):
        self._absorb(rec)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(rec.to_json() + "\n")
                fh.flush()


def _point_key(point: dict) -> tuple:
    """Store key of a grid point, the same tuple as SweepRecord.key."""
    return (point["alpha"], point["F"], point["nu"], point["q"], point["X"])


def _require_family(alpha: float):
    if alpha != -2.0:
        raise DomainError(f"only the alpha = -2 family is implemented, "
                          f"got alpha = {alpha}")


def family_point(alpha: float, F: float, nu: float, q0: float,
                 X: float) -> dict:
    """Physical parameter point of the alpha = -2 family at (F, q0, X)."""
    _require_family(alpha)
    return {"alpha": alpha, "F": F, "nu": nu, "q": q0 * F, "X": X,
            "q0": q0, "X0": X / F ** 2}


def enumerate_grid(spec: dict) -> list[dict]:
    """Expand a grid spec into an ordered list of parameter points.

    Keys: alpha (scalar, -2: the only family implemented), nu (scalar), F
    (scalar or list), X (scalar or list), and exactly one of q0 (scaling
    family, scalar) or q (explicit, scalar or list).  Points are ordered
    F-major, then q, then X.
    """
    known = {"alpha", "nu", "F", "X", "q0", "q"}
    unknown = set(spec) - known
    if unknown:
        raise DomainError(f"unknown grid keys: {sorted(unknown)}")
    if ("q0" in spec) == ("q" in spec):
        raise DomainError("grid spec needs exactly one of 'q0' or 'q'")

    def listify(v):
        return [float(x) for x in (v if isinstance(v, (list, tuple)) else [v])]

    alpha = float(spec.get("alpha", -2.0))
    _require_family(alpha)
    nu = float(spec.get("nu", 0.1))
    Fs = listify(spec["F"])
    Xs = listify(spec["X"])
    points = []
    for F in Fs:
        if "q0" in spec:
            for X in Xs:
                points.append(family_point(alpha, F, nu, float(spec["q0"]), X))
        else:
            for q in listify(spec["q"]):
                for X in Xs:
                    points.append({"alpha": alpha, "F": F, "nu": nu, "q": q,
                                   "X": X, "q0": q / F, "X0": X / F ** 2})
    return points


def default_solver(point: dict) -> WaveProfile:
    """Profile solve for one grid point on the alpha = -2 family."""
    _require_family(point["alpha"])
    return profile_from_limit(point["q0"], point["X0"], point["F"],
                              nu=point["nu"], n=_PROFILE_N, tol=1e-10)


def evaluate_point(point: dict, solver=None) -> SweepRecord:
    """Solve the wave at one grid point and classify its stability.

    A numeric failure (a NumericalFailure, a domain error or a failed linear
    solve) is recorded as a "failed" record; any other exception is a bug
    and propagates.  Meta's n is the grid the wave was solved on, or the
    requested _PROFILE_N on a failed record.
    """
    meta = {"q0": point.get("q0"), "X0": point.get("X0"), "n": _PROFILE_N}
    if solver is None:
        solver = default_solver
    try:
        wave = solver(point)
        v = evans.verdict(wave)
    except (NumericalFailure, DomainError, np.linalg.LinAlgError) as err:
        return SweepRecord(alpha=point["alpha"], F=point["F"], nu=point["nu"],
                           q=point["q"], X=point["X"], verdict="failed",
                           witness=f"{type(err).__name__}: {err}", meta=meta)
    meta["n"] = wave.n
    meta["residual_norm"] = wave.residual_norm
    meta["amplitude"] = float(np.ptp(wave.tau))
    meta.update(v.diagnostics)
    return SweepRecord(alpha=point["alpha"], F=point["F"], nu=point["nu"],
                       q=point["q"], X=point["X"], verdict=v.overall,
                       witness=v.witness or v.reason,
                       conditions=dict(v.conditions), meta=meta)


def stability_map(grid, store: ResultStore | str | None = None,
                  solver=None) -> list[SweepRecord]:
    """Stability verdicts over a grid, checkpointed and resumable.

    `grid` is a spec dict (see enumerate_grid) or an iterable of points,
    evaluated one after another.  Present keys are skipped; each new record
    is appended to the store as soon as it is done, in grid order, so a
    killed sweep resumes where it stopped and reruns are byte-identical.
    Returns the records of this grid in grid order.
    """
    points = enumerate_grid(grid) if isinstance(grid, dict) else list(grid)
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store)
    elif store is None:
        store = ResultStore()
    by_key = {r.key: r for r in store.records}
    with _limit_table():
        for p in points:
            if _point_key(p) not in by_key:
                rec = evaluate_point(p, solver=solver)
                store.append(rec)
                by_key[rec.key] = rec
    return [by_key[_point_key(p)] for p in points]


def _binary_class(rec: SweepRecord) -> bool:
    """True = stable side.  Indeterminate or failed probes abort bisection."""
    if rec.verdict == "stable":
        return True
    if rec.verdict == "unstable":
        return False
    raise ProbeFailed(f"probe at X = {rec.X:.6g} failed: verdict "
                      f"{rec.verdict!r}: {rec.witness}")


def _stable_above(which: str) -> bool:
    """Whether the stable side of a `which` boundary lies at the larger X."""
    if which not in ("lower", "upper"):
        raise DomainError(f"which must be 'lower' or 'upper', got {which!r}")
    return which == "lower"


def boundary_bisect(alpha: float, F: float, nu: float, q0: float,
                    X_lo: float, X_hi: float, which: str = "lower",
                    rel_tol: float = 1e-2,
                    store: ResultStore | None = None) -> float:
    """Bisect the period X across a stability boundary at fixed (F, q0).

    `which` declares the expected orientation: "lower" wants unstable at
    X_lo and stable at X_hi (modulational boundary, detected through the
    origin expansion / small-lambda spectrum inside the full verdict);
    "upper" wants the reverse (high-frequency boundary, detected through
    the Hill scan and right-half-plane winding).  Identical classifications
    at the endpoints raise NotBracketed.  Returns the midpoint of the final
    bracket, of relative width <= rel_tol.
    """
    want_hi_stable = _stable_above(which)
    if not (0.0 < X_lo < X_hi):
        raise DomainError(f"need 0 < X_lo < X_hi, got ({X_lo}, {X_hi})")

    def probe(X: float) -> bool:
        point = family_point(alpha, F, nu, q0, X)
        return _binary_class(stability_map([point], store=store)[0])

    with _limit_table():
        lo_stable = probe(X_lo)
        hi_stable = probe(X_hi)
        if lo_stable == hi_stable:
            raise NotBracketed(
                f"both endpoints {'stable' if lo_stable else 'unstable'} at "
                f"F = {F}, q0 = {q0}, X in ({X_lo}, {X_hi})")
        if hi_stable != want_hi_stable:
            raise NotBracketed(
                f"bracket orientation is inverted for the {which} boundary "
                f"at F = {F}: stable side is at "
                f"X_{'lo' if lo_stable else 'hi'}")

        while (X_hi - X_lo) > rel_tol * 0.5 * (X_hi + X_lo):
            X_mid = math.sqrt(X_lo * X_hi)
            if probe(X_mid) == hi_stable:
                X_hi = X_mid
            else:
                X_lo = X_mid
    return math.sqrt(X_lo * X_hi)


def boundary_points(records, which: str = "lower") -> list[tuple]:
    """(F, q, X) boundary estimates from stored verdicts, for powerlaw_fit.

    Stable and unstable records are grouped by (alpha, F, nu, q) and ordered
    by X; of the adjacent pairs that cross in the `which` orientation (see
    boundary_bisect), the narrowest in X_hi / X_lo gives sqrt(X_lo X_hi), as
    boundary_bisect does.  Indeterminate and failed records are skipped.
    """
    hi_stable = _stable_above(which)
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        if rec.verdict in ("stable", "unstable"):
            groups.setdefault(rec.key[:4], []).append(rec)
    points = []
    for (_, F, _, q), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r.X)
        pairs = [(a.X, b.X) for a, b in zip(recs, recs[1:])
                 if a.verdict != b.verdict
                 and (b.verdict == "stable") == hi_stable]
        if pairs:
            X_lo, X_hi = min(pairs, key=lambda p: p[1] / p[0])
            points.append((F, q, math.sqrt(X_lo * X_hi)))
    return points


@dataclass(frozen=True)
class BoundaryFit:
    """OLS fit log X = b1 log F + b2 log q + b3 over boundary points."""

    b1: float
    b2: float
    b3: float
    max_abs_error: float
    mean_abs_error: float
    max_rel_error: float
    mean_rel_error: float
    rank: int
    restricted: tuple[str, ...] = ()   # columns dropped as unidentifiable

    def to_dict(self) -> dict:
        return {**asdict(self), "restricted": list(self.restricted)}


def powerlaw_fit(points) -> BoundaryFit:
    """Fit log X = b1 log F + b2 log q + b3 to boundary points.

    `points` is an iterable of (F, q, X) triples.
    Requires >= 4 points spanning at least a factor 2 in F.  When the
    design matrix is rank deficient (q an exact power of F, single alpha),
    the fit is restricted to the identifiable subspace by dropping the
    log q column, with the restriction reported on the result.
    """
    rows = [tuple(float(v) for v in p) for p in points]
    if len(rows) < 4:
        raise DomainError(f"need >= 4 boundary points, got {len(rows)}")
    F = np.array([r[0] for r in rows])
    q = np.array([r[1] for r in rows])
    X = np.array([r[2] for r in rows])
    if np.max(F) < 2.0 * np.min(F):
        raise DomainError("boundary points must span a factor >= 2 in F")
    lF, lq, lX = np.log(F), np.log(q), np.log(X)

    A = np.column_stack([lF, lq, np.ones_like(lF)])
    rank = np.linalg.matrix_rank(A, tol=1e-10 * np.linalg.norm(A))
    restricted: tuple[str, ...] = ()
    if rank < 3:
        restricted = ("log q",)
        A2 = np.column_stack([lF, np.ones_like(lF)])
        coef2, *_ = np.linalg.lstsq(A2, lX, rcond=None)
        b = np.array([coef2[0], 0.0, coef2[1]])
    else:
        b, *_ = np.linalg.lstsq(A, lX, rcond=None)
    resid = lX - A @ b
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(resid) / np.maximum(np.abs(lX), 1e-300)
    return BoundaryFit(b1=float(b[0]), b2=float(b[1]), b3=float(b[2]),
                       max_abs_error=float(np.max(np.abs(resid))),
                       mean_abs_error=float(np.mean(np.abs(resid))),
                       max_rel_error=float(np.max(rel)),
                       mean_rel_error=float(np.mean(rel)),
                       rank=int(rank), restricted=restricted)
