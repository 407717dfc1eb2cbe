"""Command-line front end: profiles, spectra, Evans diagnostics, sweeps.

Every run resolves its configuration from defaults, an optional
`key = value` config file, and command-line flags (flags win), then writes
a manifest echoing the fully resolved configuration next to the primary
output.  Re-running with `rollwave --from-manifest manifest.json` replays
the run and reproduces byte-identical outputs.  All files are written to a
temporary name and atomically renamed, so no output is ever partial.

Exit codes: 0 success, 1 domain/validation error, 2 numerical
non-convergence, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import evans, hill, kdv_limit, linearize, sweep
from . import profile as profile_mod
from .model import DomainError, NumericalFailure
from .profile import (WaveProfile, ham_orbit, ham_selection_c0,
                      limit_profile_alpha_m2)


def _atomic_write(path: str, text: str):
    """Write text to path via a temp file + rename; never leaves a partial file."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".rollwave-", dir=d)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Option schema: name -> (caster, default, help).  Every value of a config
# file, a flag or a manifest goes through its caster before an input file
# is read, a flag's before the config file too; one that raises ValueError
# or TypeError is a validation error (exit 1).

def _float(value) -> float:
    """A finite float; float() alone would read nan, inf and -inf."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"not finite: {value!r}")
    return x


def _floats(value) -> list[float]:
    """Comma-separated text, or the list a manifest records: each a _float."""
    if isinstance(value, list):
        return [_float(v) for v in value]
    return [_float(v) for v in str(value).split(",") if v.strip()]


def _int(value) -> int:
    """An int >= 1, an integral float or the text of one; int() alone would
    truncate 256.7 and read True as 1."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    n = int(value)
    if n < 1:
        raise ValueError(f"not >= 1: {value!r}")
    return n


def _modes(value) -> int:
    """An odd _int >= 3: the 2N + 1 modes of a Hill truncation."""
    m = _int(value)
    if m < 3 or m % 2 == 0:
        raise ValueError(f"not an odd count >= 3: {value!r}")
    return m


def _choice(*names: str):
    """A caster that accepts one of names."""
    def cast(value) -> str:
        if value not in names:
            raise ValueError(f"not one of {'|'.join(names)}")
        return value
    return cast


def _contour(value) -> str:
    """A contour spec that evans.Contour.parse accepts, kept as its text."""
    evans.Contour.parse(str(value))
    return str(value)


_SCHEMAS: dict[str, dict[str, tuple]] = {
    "profile": {
        "F": (_float, None, "Froude number"),
        "nu": (_float, 0.1, "viscosity"),
        "q": (_float, None, "total outflow (physical seed route)"),
        "X": (_float, None, "Lagrangian period (physical seed route)"),
        "q0": (_float, None, "rescaled outflow (alpha=-2 family route)"),
        "X0": (_float, None, "rescaled period (alpha=-2 family route)"),
        "n": (_int, 256, "grid points"),
        "out": (str, None, "output profile JSON"),
    },
    "continue": {
        "in": (str, None, "input profile JSON"),
        "F": (_float, None, "target Froude number"),
        "nu": (_float, None, "target viscosity"),
        "q": (_float, None, "target outflow"),
        "X": (_float, None, "target period"),
        "out": (str, None, "output profile JSON"),
    },
    "spectrum": {
        "in": (str, None, "input profile JSON"),
        "modes": (_modes, 101, "Fourier modes 2N+1"),
        "xi-points": (_int, 21, "Floquet parameters"),
        "format": (_choice("csv", "json"), "csv", "csv|json"),
        "out": (str, None, "output spectrum file"),
    },
    "evans": {
        "in": (str, None, "input profile JSON"),
        "contour": (_contour, "semicircle:R=0.2", "contour spec"),
        "xi": (_floats, None, "comma-separated Floquet parameters"),
        "xi-band": (_int, None, "2n Floquet parameters in "
                               "+-[pi/(10X), pi/X]"),
        "format": (_choice("csv", "json"), "json", "csv|json"),
        "out": (str, None, "output winding report"),
    },
    "taylor": {
        "in": (str, None, "input profile JSON"),
        "out": (str, None, "output expansion JSON"),
    },
    "verdict": {
        "in": (str, None, "input profile JSON"),
        "report": (str, None, "output verdict JSON"),
    },
    "sweep": {
        "F": (_floats, None, "comma-separated Froude numbers"),
        "nu": (_float, 0.1, "viscosity"),
        "q0": (_float, None, "rescaled outflow (scaling family)"),
        "q": (_floats, None, "comma-separated explicit outflows"),
        "X": (_floats, None, "comma-separated periods"),
        "store": (str, None, "JSON-lines result store (appended, resumable)"),
    },
    "fit": {
        "in": (str, None, "sweep store (JSON lines) holding the brackets"),
        "which": (_choice("lower", "upper"), "lower", "lower|upper"),
        "out": (str, None, "output fit JSON"),
    },
    "kdv": {
        "X": (_float, None, "selected-wave period"),
        "k": (_float, None, "elliptic modulus (alternative input)"),
        "delta": (_float, None, "KdV-KS parameter for a stability check"),
        "out": (str, None, "output JSON"),
    },
    "limit-inf": {
        "q0": (_float, None, "rescaled outflow"),
        "X0": (_float, None, "rescaled period (alpha=-2 limit route)"),
        "h-minus": (_float, None, "orbit turning point (alpha>-2 ham route)"),
        "nu": (_float, 0.1, "viscosity (alpha=-2 route)"),
        "n": (_int, None, "grid points of the --h-minus orbit (default "
                          "256)"),
        "out": (str, None, "output JSON"),
    },
}

_PRIMARY_OUT = {"profile": "out", "continue": "out", "spectrum": "out",
                "evans": "out", "taylor": "out", "verdict": "report",
                "sweep": "store", "fit": "out", "kdv": "out",
                "limit-inf": "out"}

_COMMON = {
    "config": (str, None, "key = value config file (flags win)"),
    "manifest": (str, None, "manifest path (default <out>.manifest.json)"),
}


def _parse_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise DomainError(f"malformed config line: {raw!r}")
        values[key.strip()] = val.strip()
    return values


def _resolve(sub: str, *layers: dict) -> dict:
    """The defaults of `sub` overlaid by each layer in turn (a config file,
    the flags, a manifest's options).  Every non-None value is cast by the
    schema; a key outside it is an error."""
    if sub not in _SCHEMAS:
        raise DomainError(f"unknown subcommand {sub!r}")
    schema = {**_SCHEMAS[sub], **_COMMON}
    resolved = {k: spec[1] for k, spec in schema.items()}
    for layer in layers:
        for k, v in layer.items():
            if k not in schema:
                raise DomainError(f"unknown option: {k!r}")
            if v is not None:
                try:
                    resolved[k] = schema[k][0](v)
                except (TypeError, ValueError) as err:
                    raise DomainError(
                        f"bad value {v!r} for {k!r}: {err}") from None
    return resolved


def _require(opts: dict, *keys: str):
    missing = [k for k in keys if opts.get(k) is None]
    if missing:
        raise DomainError(f"missing required option(s): "
                          f"{', '.join('--' + k for k in missing)}")


def _load_profile(path: str) -> WaveProfile:
    return WaveProfile.from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each takes the resolved option dict and writes its
# outputs; the driver writes the manifest.

def _cmd_profile(o: dict):
    _require(o, "F", "out")
    F, nu, n = o["F"], o["nu"], o["n"]
    if o["q0"] is not None or o["X0"] is not None:
        _require(o, "q0", "X0")
        w = profile_mod.profile_from_limit(o["q0"], o["X0"], F, nu=nu, n=n)
    else:
        _require(o, "q", "X")
        delta = 0.3
        X_kdv = min(max(o["X"] * delta / np.sqrt(nu), 6.5), 45.0)
        w0 = kdv_limit.asymptotic_rollwave(
            delta, kdv_limit.k_of_period(X_kdv), nu, n=n)
        w = profile_mod.continue_profile(w0, F=F, q=o["q"], X=o["X"])
    _atomic_write(o["out"], w.to_json())


def _cmd_continue(o: dict):
    _require(o, "in", "out")
    w = _load_profile(o["in"])
    targets = {k: o[k] for k in ("F", "nu", "q", "X") if o[k] is not None}
    if not targets:
        raise DomainError("continue needs at least one of --F --nu --q --X")
    w2 = profile_mod.continue_profile(w, **targets)
    _atomic_write(o["out"], w2.to_json())


def _cmd_spectrum(o: dict):
    _require(o, "in", "out")
    w = _load_profile(o["in"])
    problem = linearize.bloch_coeffs(w)
    N = (o["modes"] - 1) // 2
    cloud = hill.spectrum(problem, N, n_xi=o["xi-points"])
    if o["format"] == "csv":
        _atomic_write(o["out"], cloud.to_csv())
    else:
        _atomic_write(o["out"], _json_text(
            {"kind": cloud.kind, "N": cloud.N, "xi": list(cloud.xi),
             "eigs": [[[ev.real, ev.imag] for ev in evs]
                      for evs in cloud.eigs]}))


def _xi_list(o: dict, X: float) -> list[float]:
    if (o["xi"] is None) == (o.get("xi-band") is None):
        raise DomainError("give exactly one of --xi or --xi-band")
    if o["xi"] is not None:
        return list(o["xi"])
    pos = np.linspace(np.pi / (10.0 * X), np.pi / X, o["xi-band"])
    return [float(v) for v in np.concatenate([-pos[::-1], pos])]


def _cmd_evans(o: dict):
    _require(o, "in", "out")
    w = _load_profile(o["in"])
    problem = linearize.bloch_coeffs(w)
    contour = evans.Contour.parse(o["contour"])
    xis = _xi_list(o, problem.period)
    ev = evans.EvansEvaluator(problem)
    reports = [evans.winding_number(ev, contour, float(x)) for x in xis]
    if o["format"] == "json":
        _atomic_write(o["out"], _json_text([r.to_dict() for r in reports]))
    else:
        lines = ["xi,winding,points,max_jump"]
        for r in reports:
            lines.append(f"{r.xi:.17g},{r.winding},{len(r.lam)},"
                         f"{r.max_jump:.17g}")
        _atomic_write(o["out"], "\n".join(lines) + "\n")


def _cmd_taylor(o: dict):
    _require(o, "in", "out")
    w = _load_profile(o["in"])
    exp = evans.origin_taylor(evans.EvansEvaluator(linearize.bloch_coeffs(w)))
    _atomic_write(o["out"], _json_text(exp.to_dict()))


def _cmd_verdict(o: dict):
    _require(o, "in", "report")
    w = _load_profile(o["in"])
    v = evans.verdict(w)
    _atomic_write(o["report"], _json_text(v.to_dict()))


def _cmd_sweep(o: dict):
    _require(o, "F", "X", "store")
    grid = {"nu": o["nu"], "F": o["F"], "X": o["X"]}
    if o["q0"] is not None:
        grid["q0"] = o["q0"]
    if o["q"] is not None:
        grid["q"] = o["q"]
    sweep.stability_map(grid, store=o["store"])


def _cmd_fit(o: dict):
    _require(o, "in", "out")
    # read_records, not a ResultStore: its repair of a torn final line would
    # truncate a store that a running sweep is appending to.
    records = sweep.read_records(Path(o["in"]).read_text(encoding="utf-8"))
    fit = sweep.powerlaw_fit(sweep.boundary_points(records, o["which"]))
    _atomic_write(o["out"], _json_text(fit.to_dict()))


def _cmd_kdv(o: dict):
    _require(o, "out")
    if (o["X"] is None) == (o["k"] is None):
        raise DomainError("give exactly one of --X or --k")
    if o["k"] is not None:
        k, X = o["k"], kdv_limit.period_of_k(o["k"])
    else:
        X, k = o["X"], kdv_limit.k_of_period(o["X"])
    out = {"X": X, "k": k}
    if o["delta"] is not None:
        scan = kdv_limit.kdvks_scan(o["delta"], X)
        out.update(delta=o["delta"], stable=not scan.unstable,
                   **scan.diagnostics)
    _atomic_write(o["out"], _json_text(out))


def _cmd_limit_inf(o: dict):
    _require(o, "out")
    if (o["X0"] is None) == (o["h-minus"] is None):
        raise DomainError("give exactly one of --X0 (alpha=-2 route) "
                          "or --h-minus (Hamiltonian route)")
    if o["X0"] is not None:
        _require(o, "q0")
        if o["n"] is not None:
            raise DomainError("--n is the --h-minus orbit's grid: the "
                              "alpha=-2 limit wave takes its grid from its "
                              "spectral tail")
        lp = limit_profile_alpha_m2(o["q0"], o["X0"], nu=o["nu"])
        _atomic_write(o["out"], _json_text(
            {"kind": "alpha_m2_limit", "q0": lp.q0, "X0": lp.X0, "nu": lp.nu,
             "c0": lp.c0, "n": lp.n, "a": list(lp.a), "da": list(lp.da),
             "residual": lp.residual_norm}))
    else:
        if o["n"] is None:
            o["n"] = 256        # the default, recorded in the manifest
        orbit = ham_orbit(o["h-minus"], n=o["n"])
        out = {"kind": "ham_orbit", "h_minus": orbit.h_minus,
               "h_plus": orbit.h_plus, "mu": orbit.mu, "X_mu": orbit.X_mu,
               "n": orbit.n, "h": list(orbit.h), "dh": list(orbit.dh)}
        if o["q0"] is not None:
            out["c0_squared_forms"] = list(ham_selection_c0(orbit, o["q0"]))
        _atomic_write(o["out"], _json_text(out))


_COMMANDS = {"profile": _cmd_profile, "continue": _cmd_continue,
             "spectrum": _cmd_spectrum, "evans": _cmd_evans,
             "taylor": _cmd_taylor, "verdict": _cmd_verdict,
             "sweep": _cmd_sweep, "fit": _cmd_fit, "kdv": _cmd_kdv,
             "limit-inf": _cmd_limit_inf}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollwave",
        description="Periodic roll waves of viscous St. Venant: profiles, "
                    "Bloch spectra, Evans diagnostics, stability sweeps.")
    parser.add_argument("--from-manifest", metavar="PATH",
                        help="replay a run from its manifest")
    subs = parser.add_subparsers(dest="subcommand")
    for sub, schema in _SCHEMAS.items():
        # no prefix matching: a removed flag such as sweep's --n must not
        # resolve to a longer one (--nu)
        sp = subs.add_parser(sub, allow_abbrev=False)
        for name, (_, _, help_text) in {**schema, **_COMMON}.items():
            sp.add_argument(f"--{name}", help=help_text, dest=name)
    return parser


def _dispatch(sub: str, opts: dict) -> int:
    _COMMANDS[sub](opts)
    primary = opts.get(_PRIMARY_OUT[sub])
    manifest_path = opts.get("manifest") or (
        primary + ".manifest.json" if primary else None)
    if manifest_path:
        _atomic_write(manifest_path, _json_text(
            {"subcommand": sub, "options": opts}))
    return 0


def run(argv) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.from_manifest is not None:
        if ns.subcommand is not None:
            raise DomainError("--from-manifest takes no subcommand")
        doc = json.loads(Path(ns.from_manifest).read_text(encoding="utf-8"))
        if not (isinstance(doc, dict) and {"subcommand", "options"} <= set(doc)
                and isinstance(doc["subcommand"], str)
                and isinstance(doc["options"], dict)):
            raise DomainError("a manifest is an object with a 'subcommand' "
                              "string and an 'options' object")
        sub, options = doc["subcommand"], doc["options"]
        opts = _resolve(sub, options)
        missing = set(opts) - set(options)
        if missing:
            raise DomainError(f"missing option keys: {sorted(missing)}")
        return _dispatch(sub, opts)
    if ns.subcommand is None:
        parser.print_usage(sys.stderr)
        raise DomainError("a subcommand is required")
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("subcommand", "from_manifest")}
    _resolve(ns.subcommand, flags)      # a bad flag value before any file
    config = ([_parse_config_file(flags["config"])]
              if flags["config"] is not None else [])
    return _dispatch(ns.subcommand, _resolve(ns.subcommand, *config, flags))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except SystemExit as err:     # argparse --help (0) or usage errors (2)
        code = err.code if err.code is not None else 0
        return 0 if code == 0 else 1
    except (DomainError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalFailure as err:
        print(f"non-convergence: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
