"""Command-line interface: subcommands, config/manifest plumbing, exit codes."""

import gc
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rollwave import cli, evans, hill, kdv_limit, linearize, sweep
from rollwave import profile as prof

import oracles


def test_kdv_inverts_period(tmp_path, capsys):
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--X", "17", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == pytest.approx(0.9996570910754125, abs=1e-10)
    assert doc["X"] == pytest.approx(17.0)


def test_kdv_period_of_modulus(tmp_path):
    # --k goes the other way: k = 0.9421 is criterion 1's anchor, whose
    # period lies in [8.33, 8.55]
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--k", "0.9421", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 0.9421
    assert doc["X"] == kdv_limit.period_of_k(0.9421)
    assert 8.33 <= doc["X"] <= 8.55


def test_kdv_stability_check(tmp_path):
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--X", "17", "--delta", "0.05",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stable"] is True
    assert doc["hill_max_real"] <= 1e-7
    assert doc["hill_eigensolves"] == 52
    # N = 16 read its first xi > 0 row as unstable and failed its check
    # there, so N = 24 scanned all 48 rows and decided, checked at 36
    assert doc["hill_N"] == 24
    assert abs(doc["hill_check"] - doc["hill_max_real"]) <= 1e-3 * 1e-4


def test_kdv_stability_check_unstable(tmp_path):
    # an unstable wave is an answer, not an error; its scan stops at the
    # first unstable row, the second one solved, and checks it at 3N/2
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--X", "7", "--delta", "0.05",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stable"] is False
    assert doc["hill_max_real"] > 1e-7
    assert doc["hill_eigensolves"] == 3
    assert doc["hill_N"] == 16
    assert doc["hill_check"] > 1e-7
    assert abs(doc["hill_check"] - doc["hill_max_real"]) \
        <= 1e-3 * doc["hill_max_real"]


def test_kdv_unresolved_truncation_exits_2(tmp_path, monkeypatch):
    # no N up to the cap checks, so the wave gets no class and no file
    monkeypatch.setattr(hill, "eigenvalues",
                        lambda problem, N, xi: np.array([-1.0 - 1.0 / N]))
    assert cli.main(["kdv", "--X", "17", "--delta", "0.05",
                     "--out", str(tmp_path / "kdv.json")]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta", ["0", "-0.05"])
def test_kdv_nonpositive_delta_exits_1(tmp_path, delta):
    assert cli.main(["kdv", "--X", "17", "--delta", delta,
                     "--out", str(tmp_path / "kdv.json")]) == 1
    assert list(tmp_path.iterdir()) == []


def test_limit_inf_ham_route(tmp_path):
    out = tmp_path / "ham.json"
    assert cli.main(["limit-inf", "--h-minus", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["h_plus"] == pytest.approx(1.7564312086262248, rel=1e-10)
    assert doc["X_mu"] == pytest.approx(6.3847035731752484, rel=1e-10)


def test_limit_inf_c0_forms_agree(tmp_path):
    out = tmp_path / "lim.json"
    assert cli.main(["limit-inf", "--h-minus", "0.5", "--q0", "0.4",
                     "--out", str(out)]) == 0
    forms = json.loads(out.read_text())["c0_squared_forms"]
    assert max(forms) - min(forms) < 1e-8 * abs(forms[0])


def test_limit_inf_alpha_m2_route(tmp_path):
    out = tmp_path / "lim.json"
    assert cli.main(["limit-inf", "--q0", "0.4", "--X0", "0.3",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "alpha_m2_limit"
    assert doc["c0"] > 0.0
    assert doc["residual"] <= 1e-8


def test_limit_inf_alpha_m2_route_takes_no_grid(tmp_path, capsys):
    # the limit wave's grid is its tail's: --n, or a manifest that records
    # one, exits 1 and writes nothing; the ham route records its default
    assert cli.main(["limit-inf", "--q0", "0.4", "--X0", "0.3", "--n", "512",
                     "--out", str(tmp_path / "lim.json")]) == 1
    assert "--n is the --h-minus orbit's grid" in capsys.readouterr().err
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subcommand": "limit-inf", "options": {
        "q0": 0.4, "X0": 0.3, "h-minus": None, "nu": 0.1, "n": 256,
        "out": str(tmp_path / "lim.json"), "config": None,
        "manifest": None}}))
    assert cli.main(["--from-manifest", str(manifest)]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
    assert cli.main(["limit-inf", "--h-minus", "0.5",
                     "--out", str(tmp_path / "ham.json")]) == 0
    recorded = json.loads((tmp_path / "ham.json.manifest.json").read_text())
    assert recorded["options"]["n"] == 256


def test_manifest_replay_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    assert cli.main(["kdv", "--X", "12", "--out", str(out1)]) == 0
    manifest = tmp_path / "a.json.manifest.json"
    assert manifest.exists()
    doc = json.loads(manifest.read_text())
    assert doc["subcommand"] == "kdv"
    text1 = out1.read_text()
    # replay writes the same bytes
    doc["options"]["out"] = str(tmp_path / "b.json")
    (tmp_path / "m2.json").write_text(json.dumps(doc))
    assert cli.main(["--from-manifest", str(tmp_path / "m2.json")]) == 0
    assert (tmp_path / "b.json").read_text() == text1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X = 12\nout = {}\n".format(tmp_path / "c.json"))
    assert cli.main(["kdv", "--config", str(cfg), "--X", "17"]) == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["X"] == pytest.approx(17.0)     # flag wins over config


def test_config_unknown_key_is_an_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wavelength = 12\n")
    assert cli.main(["kdv", "--config", str(cfg), "--X", "12"]) == 1


def test_exit_codes():
    assert cli.main(["kdv"]) == 1                       # neither --X nor --k
    assert cli.main(["bogus-subcommand"]) == 1
    assert cli.main(["--help"]) == 0
    assert cli.main(["kdv", "--X", "5"]) == 1           # below the 2 pi onset


def test_taylor_on_constant_profile_exits_2(tmp_path):
    # the origin expansion needs exactly three small multipliers; the
    # constant state breaks that and the numerical failure maps to exit 2
    w = oracles.equilibrium(3.0, 0.1, tau0=1.0, X=2.0 * np.pi, n=64)
    pin = tmp_path / "const.json"
    pin.write_text(w.to_json())
    code = cli.main(["taylor", "--in", str(pin),
                     "--out", str(tmp_path / "t.json")])
    assert code == 2


def test_taylor_writes_the_origin_expansion(tmp_path, f6_waves):
    # on the stable F = 6, X = 8.78 wave the report carries every field of
    # evans.origin_taylor on the same wave
    w = f6_waves[8.78]
    pin, out = tmp_path / "w.json", tmp_path / "t.json"
    pin.write_text(w.to_json())
    assert cli.main(["taylor", "--in", str(pin), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    exp = evans.origin_taylor(evans.EvansEvaluator(linearize.bloch_coeffs(w)))
    assert sorted(doc) == ["R", "alpha", "beta", "c", "log_scale",
                           "reality_error", "representation_residual"]
    assert doc["c"] == [[[exp.c[a, b].real, exp.c[a, b].imag]
                         for b in range(4)] for a in range(4)]
    assert doc["alpha"] == [[z.real, z.imag] for z in exp.alpha]
    assert doc["beta"] == [[z.real, z.imag] for z in exp.beta]
    for key in ("R", "reality_error", "representation_residual",
                "log_scale"):
        assert doc[key] == getattr(exp, key)


def test_evans_winding_around_unstable_root(tmp_path):
    # a small circle around the constant state's most unstable dispersion
    # root winds once; the manifest replays to the same report
    w = oracles.equilibrium(3.0, 0.1, tau0=1.0, X=2.0 * np.pi, n=64)
    p = w.params
    lam0 = complex(max(oracles.constant_dispersion(p, p.tau0, 0.23)[0],
                       key=lambda z: z.real))
    pin = tmp_path / "const.json"
    pin.write_text(w.to_json())
    out = tmp_path / "e.json"
    assert cli.main(["evans", "--in", str(pin), "--xi", "0.23",
                     "--contour", f"circle:c={lam0!r},r=0.01",
                     "--out", str(out)]) == 0
    assert [r["winding"] for r in json.loads(out.read_text())] == [1]
    doc = json.loads((tmp_path / "e.json.manifest.json").read_text())
    doc["options"]["out"] = str(tmp_path / "e2.json")
    (tmp_path / "m2.json").write_text(json.dumps(doc))
    assert cli.main(["--from-manifest", str(tmp_path / "m2.json")]) == 0
    assert (tmp_path / "e2.json").read_text() == out.read_text()


def test_verdict_report_and_manifest_replay(tmp_path, constant_state):
    # the report is the library verdict of the wave read back from its file,
    # and the manifest replays it byte for byte
    pin = tmp_path / "const.json"
    pin.write_text(constant_state.to_json())
    report = tmp_path / "v.json"
    assert cli.main(["verdict", "--in", str(pin),
                     "--report", str(report)]) == 0
    assert report.read_text() == cli._json_text(
        evans.verdict(constant_state).to_dict())
    doc = json.loads((tmp_path / "v.json.manifest.json").read_text())
    doc["options"]["report"] = str(tmp_path / "v2.json")
    (tmp_path / "m2.json").write_text(json.dumps(doc))
    assert cli.main(["--from-manifest", str(tmp_path / "m2.json")]) == 0
    assert (tmp_path / "v2.json").read_text() == report.read_text()


def _with(samples, i, value):
    return samples[:i] + [value] + samples[i + 1:]


# Spoilt copies of a profile file, each made by editing its parsed JSON.
_BAD_PROFILES = {
    "nan-tau": lambda d: d.update(tau=_with(d["tau"], 5, float("nan"))),
    "negative-tau": lambda d: d.update(tau=_with(d["tau"], 5, -1.0)),
    "scalar-tau": lambda d: d.update(tau=1.0),
    "no-samples": lambda d: d.update(tau=[]),
    "no-param-c": lambda d: d["params"].pop("c"),
    "unknown-param": lambda d: d["params"].update(Re=10.0),
    "nan-F": lambda d: d["params"].update(F=float("nan")),
    "nan-q": lambda d: d["params"].update(q=float("nan")),
    "inf-c": lambda d: d["params"].update(c=float("inf")),
    "inf-X": lambda d: d["params"].update(X=float("inf")),
}


@pytest.mark.parametrize("spoil", _BAD_PROFILES.values(), ids=_BAD_PROFILES)
def test_malformed_profile_file_exits_1_and_writes_nothing(
        tmp_path, capsys, constant_state, spoil):
    # a profile file whose keys or samples are wrong is
    # refused when it is read, before any verdict is computed
    doc = json.loads(constant_state.to_json())
    spoil(doc)
    pin = tmp_path / "w.json"
    pin.write_text(json.dumps(doc))
    assert cli.main(["verdict", "--in", str(pin),
                     "--report", str(tmp_path / "v.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


@pytest.mark.parametrize("kind, route", [
    ("alpha_m2_limit", ["--q0", "0.4", "--X0", "0.3"]),
    ("ham_orbit", ["--h-minus", "0.5", "--q0", "0.4"]),
])
def test_limit_file_is_refused_as_a_profile_by_its_kind(tmp_path, capsys,
                                                        kind, route):
    # a file that limit-inf wrote names its kind, and a command that reads
    # a profile refuses it by that kind, not by a key it lacks
    pin = tmp_path / "lim.json"
    assert cli.main(["limit-inf", *route, "--out", str(pin)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["verdict", "--report", str(out / "v.json")],
                 ["spectrum", "--out", str(out / "s.csv")]):
        assert cli.main([*argv, "--in", str(pin)]) == 1
        assert f"is an {kind!r} file, not a profile" in \
            capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("doc", [
    {"subcommand": "kdv"},
    {"subcommand": ["kdv"], "options": {}},
    ["kdv", {"X": 17.0}],
], ids=["no-options", "list-subcommand", "not-an-object"])
def test_malformed_manifest_exits_1(tmp_path, doc):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    assert cli.main(["--from-manifest", str(manifest)]) == 1


def test_manifest_missing_options_exits_1_and_names_them(tmp_path, capsys):
    # a manifest replays a run only if it names every option of its
    # subcommand, as _dispatch writes them
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subcommand": "kdv", "options": {
        "X": 17.0, "out": str(tmp_path / "k.json")}}))
    assert cli.main(["--from-manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "missing option keys: ['config', 'delta', 'k', 'manifest']" in err
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def _kdv_manifest(path, X):
    path.write_text(json.dumps({"subcommand": "kdv", "options": {
        "X": X, "k": None, "delta": None, "out": str(path.parent / "k.json"),
        "config": None, "manifest": None}}))


def test_manifest_values_are_cast_by_the_schema(tmp_path):
    # a manifest's values go through the same casters as flags and config
    # files: "17" replays as 17.0, and the new manifest records the float
    manifest = tmp_path / "m.json"
    _kdv_manifest(manifest, "17")
    assert cli.main(["--from-manifest", str(manifest)]) == 0
    assert json.loads((tmp_path / "k.json").read_text())["X"] == 17.0
    replayed = json.loads((tmp_path / "k.json.manifest.json").read_text())
    assert replayed["options"]["X"] == 17.0


@pytest.mark.parametrize("X", ["abc", [1, 2]], ids=["text", "list"])
def test_manifest_value_of_the_wrong_type_exits_1(tmp_path, capsys, X):
    manifest = tmp_path / "m.json"
    _kdv_manifest(manifest, X)
    assert cli.main(["--from-manifest", str(manifest)]) == 1
    assert "bad value" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def _limit_inf_manifest(path, n):
    path.write_text(json.dumps({"subcommand": "limit-inf", "options": {
        "q0": None, "X0": None, "h-minus": 0.5, "nu": 0.1, "n": n,
        "out": str(path.parent / "l.json"), "config": None,
        "manifest": None}}))


@pytest.mark.parametrize("n", [256.7, True], ids=["fraction", "bool"])
def test_manifest_int_option_refuses_a_non_integer(tmp_path, capsys, n):
    # int() would read 256.7 as 256 and true as 1; the flag --n 256.7
    # already exits 1, and the manifest now does too
    assert cli.main(["limit-inf", "--h-minus", "0.5", "--n", "256.7",
                     "--out", str(tmp_path / "f.json")]) == 1
    manifest = tmp_path / "m.json"
    _limit_inf_manifest(manifest, n)
    assert cli.main(["--from-manifest", str(manifest)]) == 1
    assert "bad value" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_manifest_int_option_reads_integral_text(tmp_path):
    manifest = tmp_path / "m.json"
    _limit_inf_manifest(manifest, "256")
    assert cli.main(["--from-manifest", str(manifest)]) == 0
    replayed = json.loads((tmp_path / "l.json.manifest.json").read_text())
    assert replayed["options"]["n"] == 256
    assert cli._resolve("limit-inf", {"n": 512.0})["n"] == 512


# Flags of numerical settings that are module constants, each given the
# constant's value: the parser refuses them before anything runs, and sweep's
# --n is not read as a prefix of --nu.
_REMOVED_FLAGS = [
    ("evans", ["--xi", "0.1", "--out", "o.json"], "--tol", "1e-10"),
    ("evans", ["--xi", "0.1", "--out", "o.json"], "--rel-jump", "0.2"),
    ("taylor", ["--out", "o.json"], "--tol", "1e-10"),
    ("taylor", ["--out", "o.json"], "--radius", "0.01"),
    ("verdict", ["--report", "o.json"], "--modes", "121"),
    ("verdict", ["--report", "o.json"], "--xi-points", "48"),
    ("verdict", ["--report", "o.json"], "--winding-R", "0.2"),
    ("verdict", ["--report", "o.json"], "--evans-tol", "1e-10"),
    ("kdv", ["--X", "17", "--delta", "0.05", "--out", "o.json"],
     "--modes", "81"),
    ("sweep", ["--F", "4", "--q0", "0.4", "--X", "3.28",
               "--store", "o.jsonl"], "--n", "512"),
    ("sweep", ["--F", "4", "--q0", "0.4", "--X", "3.28",
               "--store", "o.jsonl"], "--alpha", "-2"),
    ("profile", ["--F", "6", "--q0", "0.4", "--X0", "0.3", "--out", "o.json"],
     "--tol", "1e-8"),
    ("continue", ["--X", "17.5", "--out", "o.json"], "--tol", "1e-8"),
]


@pytest.mark.parametrize("sub, args, flag, value", _REMOVED_FLAGS,
                         ids=[f"{s}{f}" for s, _, f, _ in _REMOVED_FLAGS])
def test_removed_flag_exits_1_and_writes_nothing(tmp_path, monkeypatch,
                                                 constant_state, sub, args,
                                                 flag, value):
    monkeypatch.chdir(tmp_path)
    pin = tmp_path / "w.json"
    pin.write_text(constant_state.to_json())
    wave = [] if sub in ("kdv", "sweep", "profile") else ["--in", str(pin)]
    assert cli.main([sub, *wave, *args, flag, value]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


def test_removed_keys_in_manifest_and_config_exit_1(tmp_path,
                                                    constant_state):
    pin = tmp_path / "w.json"
    pin.write_text(constant_state.to_json())
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"subcommand": "verdict", "options": {
        "in": str(pin), "report": str(tmp_path / "v.json"),
        "config": None, "manifest": None, "evans-tol": 1e-10}}))
    assert cli.main(["--from-manifest", str(manifest)]) == 1
    cfg = tmp_path / "t.cfg"
    cfg.write_text("radius = 0.01\n")
    assert cli.main(["taylor", "--config", str(cfg), "--in", str(pin),
                     "--out", str(tmp_path / "t.json")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "m.json", "t.cfg", "w.json"]


# (files written first, argv, the error's text): each run exits 1 at a check
# of the driver or of a subcommand and writes no file
_CONTINUE_MANIFEST = json.dumps({"subcommand": "continue", "options": {
    "in": "w.json", "out": "o.json", "F": None, "nu": None, "q": None,
    "X": 17.5, "tol": 1e-8, "config": None, "manifest": None}})
_EXIT_1 = {
    "config-malformed-line": (
        {"c.cfg": "# a comment\n\nX = 17\nno equals sign\n"},
        ["kdv", "--config", "c.cfg", "--out", "o.json"],
        "malformed config line: 'no equals sign'"),
    "manifest-unknown-subcommand": (
        {"m.json": '{"subcommand": "plot", "options": {}}'},
        ["--from-manifest", "m.json"], "unknown subcommand 'plot'"),
    "manifest-and-subcommand": (
        {}, ["--from-manifest", "m.json", "kdv", "--X", "17",
             "--out", "o.json"], "--from-manifest takes no subcommand"),
    "no-subcommand": ({}, [], "a subcommand is required"),
    "evans-xi-and-xi-band": (
        {}, ["evans", "--in", "w.json", "--xi", "0.1", "--xi-band", "2",
             "--out", "o.json"], "give exactly one of --xi or --xi-band"),
    "kdv-X-and-k": (
        {}, ["kdv", "--X", "17", "--k", "0.9", "--out", "o.json"],
        "give exactly one of --X or --k"),
    "limit-inf-X0-and-h-minus": (
        {}, ["limit-inf", "--q0", "0.4", "--X0", "0.45", "--h-minus", "0.5",
             "--out", "o.json"], "give exactly one of --X0"),
    "profile-config-tol": (
        {"c.cfg": "tol = 1e-8\n"},
        ["profile", "--config", "c.cfg", "--F", "6", "--q0", "0.4",
         "--X0", "0.3", "--out", "o.json"], "unknown option: 'tol'"),
    "continue-manifest-tol": (
        {"m.json": _CONTINUE_MANIFEST}, ["--from-manifest", "m.json"],
        "unknown option: 'tol'"),
}


@pytest.mark.parametrize("files, argv, message", _EXIT_1.values(),
                         ids=_EXIT_1.keys())
def test_driver_and_option_checks_exit_1_and_write_nothing(
        tmp_path, monkeypatch, capsys, constant_state, files, argv, message):
    monkeypatch.chdir(tmp_path)
    files = {"w.json": constant_state.to_json(), **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_untrusted_frames_exit_2_without_a_report(tmp_path, monkeypatch,
                                                  fig1c_wave):
    # with a Liouville tolerance of 0 every frame is untrusted, so `evans`
    # and `taylor` exit 2 and write neither report nor manifest
    monkeypatch.setattr(evans, "_LIOUVILLE_TOL", 0.0)
    pin = tmp_path / "w.json"
    pin.write_text(fig1c_wave.to_json())
    out = tmp_path / "e.json"
    assert cli.main(["evans", "--in", str(pin), "--xi", "0.1",
                     "--contour", "circle:c=0.3,r=0.01",
                     "--out", str(out)]) == 2
    out_t = tmp_path / "t.json"
    assert cli.main(["taylor", "--in", str(pin), "--out", str(out_t)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]


def test_sweep_unsupported_alpha_exits_1_without_a_store(tmp_path):
    # sweep has no --alpha: on both routes, the scaling family (--q0) and
    # explicit outflows (--q), the parser refuses it as an unknown flag
    # before any point is solved or stored (test_sweep.py keeps the
    # library's refusal of alpha != -2)
    store = tmp_path / "s.jsonl"
    for route in (["--q0", "0.4"], ["--q", "1.6"]):
        assert cli.main(["sweep", "--alpha", "-1.5", *route, "--F", "4",
                         "--X", "8,9", "--store", str(store)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", [
    ["--F", "4", "--q0", "-0.4", "--X", "8"],
    ["--F", "-4", "--q0", "0.4", "--X", "8"],
    ["--F", "4", "--q", "1.6", "--X", "0"],
    ["--F", "4", "--q0", "0.4", "--X", "8", "--nu", "-0.1"],
    ["--F", ",", "--q0", "0.4", "--X", "8"],
], ids=["q0", "F", "X", "nu", "no-F"])
def test_sweep_grid_that_holds_no_wave_exits_1_and_leaves_the_store(
        tmp_path, capsys, grid):
    # a grid value <= 0, or no value, is refused before any point is
    # solved: no failed record that a rerun would skip, and no manifest
    store = tmp_path / "s.jsonl"
    before = sweep.SweepRecord(alpha=-2.0, F=4.0, nu=0.1, q=1.6, X=9.0,
                               verdict="stable").to_json() + "\n"
    store.write_text(before)
    assert cli.main(["sweep", *grid, "--store", str(store)]) == 1
    assert re.search("must be finite and positive|is empty",
                     capsys.readouterr().err)
    assert store.read_text() == before
    assert list(tmp_path.iterdir()) == [store]


def _bisected_store(path, monkeypatch):
    """A store that four bisections filled under a stub X*(F) = 0.05 F^2.83."""
    def evaluate(point, solver=None):
        stable = point["X"] > 0.05 * point["F"] ** 2.83
        return sweep.SweepRecord(
            alpha=point["alpha"], F=point["F"], nu=point["nu"], q=point["q"],
            X=point["X"], verdict="stable" if stable else "unstable")

    monkeypatch.setattr(sweep, "evaluate_point", evaluate)
    store = sweep.ResultStore(str(path))
    return {F: sweep.boundary_bisect(-2.0, F, 0.1, 0.4, 1.0, 32.0,
                                     rel_tol=1e-3, store=store)
            for F in (4.0, 5.0, 6.0, 8.0)}


def test_fit_reads_a_bisected_store(tmp_path, monkeypatch):
    lowers = _bisected_store(tmp_path / "s.jsonl", monkeypatch)
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--in", str(tmp_path / "s.jsonl"),
                     "--which", "lower", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = sweep.powerlaw_fit([(F, 0.4 * F, X) for F, X in lowers.items()])
    assert doc == want.to_dict()
    assert doc["b1"] == pytest.approx(2.83, abs=3e-3)
    assert doc["restricted"] == ["log q"]
    # every bracket is lower-oriented: no upper boundary, too few points
    assert cli.main(["fit", "--in", str(tmp_path / "s.jsonl"),
                     "--which", "upper", "--out", str(out)]) == 1


def test_fit_leaves_a_torn_store_untouched(tmp_path, monkeypatch):
    # a sweep still appending leaves a torn last line; fit reads the
    # complete lines and writes nothing to the store
    path = tmp_path / "s.jsonl"
    _bisected_store(path, monkeypatch)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["fit", "--in", str(path), "--out", str(out1)]) == 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"F":4.0,"X":3.1')
    torn = path.read_bytes()
    assert cli.main(["fit", "--in", str(path), "--out", str(out2)]) == 0
    assert path.read_bytes() == torn
    assert out2.read_text() == out1.read_text()


def test_fit_manifest_replay_is_byte_identical(tmp_path, monkeypatch):
    _bisected_store(tmp_path / "s.jsonl", monkeypatch)
    out = tmp_path / "a.json"
    assert cli.main(["fit", "--in", str(tmp_path / "s.jsonl"),
                     "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "a.json.manifest.json").read_text())
    doc["options"]["out"] = str(tmp_path / "b.json")
    (tmp_path / "m2.json").write_text(json.dumps(doc))
    assert cli.main(["--from-manifest", str(tmp_path / "m2.json")]) == 0
    assert (tmp_path / "b.json").read_text() == out.read_text()


_TEXT_F = ('{"F":"5","X":3.0,"alpha":-2.0,"conditions":{},"meta":{},'
           '"nu":0.1,"q":2.0,"verdict":"stable","witness":null}')


@pytest.mark.parametrize("line", ['{"alpha": -2.0}', "[1, 2]", _TEXT_F],
                         ids=["no-keys", "not-an-object", "text-F"])
def test_malformed_store_record_exits_1_and_leaves_the_store(tmp_path,
                                                             capsys, line):
    # `fit` and `sweep` refuse a complete line that is no sweep record, or
    # whose values have the wrong type, before they solve or write anything
    store = tmp_path / "s.jsonl"
    store.write_text(line + "\n")
    assert cli.main(["fit", "--in", str(store),
                     "--out", str(tmp_path / "f.json")]) == 1
    assert cli.main(["sweep", "--F", "4", "--q0", "0.4", "--X", "3.28",
                     "--store", str(store)]) == 1
    assert capsys.readouterr().err.count("malformed sweep record") == 2
    assert store.read_text() == line + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]


def test_cli_closes_every_file_it_reads(tmp_path, monkeypatch,
                                        constant_state):
    # config file, manifest, profile and store are each read and closed:
    # an unclosed one warns ResourceWarning when it is collected
    _bisected_store(tmp_path / "s.jsonl", monkeypatch)
    pin = tmp_path / "w.json"
    pin.write_text(constant_state.to_json())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X = 12\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["kdv", "--config", str(cfg),
                         "--out", str(tmp_path / "k.json")]) == 0
        assert cli.main(["--from-manifest",
                         str(tmp_path / "k.json.manifest.json")]) == 0
        assert cli.main(["spectrum", "--in", str(pin), "--modes", "5",
                         "--xi-points", "1",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["fit", "--in", str(tmp_path / "s.jsonl"),
                         "--out", str(tmp_path / "f.json")]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] \
        == []


def test_fit_refuses_a_store_with_a_duplicate_key(tmp_path, monkeypatch,
                                                  capsys):
    # fit parses a store as ResultStore does: a key on two complete lines
    # exits 1, as sweep --store does, and the store is left as it is
    path = tmp_path / "s.jsonl"
    _bisected_store(path, monkeypatch)
    first = path.read_text().splitlines()[0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")
    before = path.read_bytes()
    assert cli.main(["fit", "--in", str(path),
                     "--out", str(tmp_path / "f.json")]) == 1
    assert cli.main(["sweep", "--F", "4", "--q0", "0.4", "--X", "3.28",
                     "--store", str(path)]) == 1
    assert capsys.readouterr().err.count("duplicate sweep key") == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]


# (subcommand, flag, bad value, the other options it needs)
_BAD_VALUES = [
    ("evans", "contour", "semicircle:R=abc", ["--xi", "0.1"]),
    ("evans", "contour", "semicircle:r=0.2", ["--xi", "0.1"]),
    ("evans", "contour", "semicircle:R=-1", ["--xi", "0.1"]),
    ("evans", "contour", "circle:c=0.1,r=inf", ["--xi", "0.1"]),
    ("evans", "contour", "circle:c=nan,r=0.1", ["--xi", "0.1"]),
    ("evans", "format", "xml", ["--xi", "0.1"]),
    ("evans", "xi-band", "0", []),
    ("spectrum", "format", "xml", []),
    ("spectrum", "modes", "4", []),
    ("spectrum", "modes", "1", []),
    ("spectrum", "xi-points", "0", []),
    ("fit", "which", "middle", []),
    ("limit-inf", "n", "0", ["--q0", "0.4", "--X0", "0.45"]),
    ("limit-inf", "n", "-4", ["--q0", "0.4", "--X0", "0.45"]),
    ("profile", "n", "0", ["--F", "8", "--q0", "0.4", "--X0", "0.45"]),
    ("kdv", "X", "nan", []),
    ("sweep", "F", "inf", ["--q0", "0.4", "--X", "8"]),
]


@pytest.mark.parametrize("sub, flag, value, rest", _BAD_VALUES,
                         ids=[f"{s}-{f}={v}" for s, f, v, _ in _BAD_VALUES])
def test_bad_option_value_exits_1_before_any_file_is_read(
        tmp_path, capsys, sub, flag, value, rest):
    # each value is refused by its caster: neither the missing config file
    # nor the missing --in is read, and no output or manifest is written
    args = [sub, f"--{flag}={value}", *rest,
            f"--{cli._PRIMARY_OUT[sub]}", str(tmp_path / "o"),
            "--config", str(tmp_path / "missing.cfg")]
    if "in" in cli._SCHEMAS[sub]:
        args += ["--in", str(tmp_path / "missing.json")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"bad value {value!r} for {flag!r}" in err
    assert "No such file" not in err
    assert list(tmp_path.iterdir()) == []


def test_readme_constants_table_matches_the_code():
    # every `module.NAME` of README's constants table exists, and a value
    # cell of plain numbers holds their values, in order: 15 of the 17 rows,
    # all but the two whose value is a formula
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| setting | constant | value |"):]
    rows = table.split("\n\n")[0].splitlines()[2:]
    checked = 0
    for row in rows:
        _, _, constant, value, _ = re.split(r"(?<!\\)\|", row)
        found = [getattr(importlib.import_module(f"rollwave.{module}"), name)
                 for module, name in re.findall(r"`(\w+)\.(\w+)[^`]*`",
                                                constant)]
        assert found, row
        try:
            numbers = [float(part) for part in value.split(",")]
        except ValueError:
            continue
        assert numbers == found, row
        checked += 1
    assert (len(rows), checked) == (17, 15)


def test_fit_missing_file_exits_1(tmp_path):
    assert cli.main(["fit", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.json")]) == 1


def test_atomic_write_leaves_no_partial_file(tmp_path):
    # a failing run must not leave a half-written primary output behind
    out = tmp_path / "x.json"
    assert cli.main(["kdv", "--X", "5", "--out", str(out)]) == 1
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(
        tmp_path, monkeypatch):
    # the output is complete in its temp file when the rename fails: the
    # temp file goes, nothing takes the output's name, and the OSError is
    # an internal error (exit 3)
    temps = []

    def failing_replace(src, dst):
        temps.append((Path(src).name, Path(src).read_text()))
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    assert cli.main(["kdv", "--X", "17", "--out",
                     str(tmp_path / "k.json")]) == 3
    [(name, text)] = temps
    assert name.startswith(".rollwave-") and json.loads(text)["X"] == 17.0
    assert list(tmp_path.iterdir()) == []


def test_profile_scratch_route(tmp_path):
    out = tmp_path / "w.json"
    code = cli.main(["profile", "--F", str(6.0 ** 0.5), "--q", "1.5745",
                     "--X", "17.15", "--n", "256", "--out", str(out)])
    assert code == 0
    w = prof.WaveProfile.from_json(out.read_text())
    assert w.residual_norm <= 1e-9
    assert np.ptp(w.tau) > 0.1


def test_profile_family_route(tmp_path):
    # --q0 --X0 is profile_from_limit on the alpha = -2 family: the file
    # holds the library's wave, and q = q0 F, X = X0 F^2
    out = tmp_path / "w.json"
    assert cli.main(["profile", "--F", "4", "--q0", "0.4", "--X0", "0.25",
                     "--out", str(out)]) == 0
    w = prof.WaveProfile.from_json(out.read_text())
    want = prof.profile_from_limit(0.4, 0.25, 4.0, n=256)
    assert w.params == want.params
    assert np.array_equal(w.tau, want.tau)
    assert w.params.q == pytest.approx(1.6, rel=1e-15)
    assert w.params.X == pytest.approx(4.0, rel=1e-15)
    assert cli.main(["profile", "--F", "4", "--q0", "0.4",
                     "--out", str(tmp_path / "x.json")]) == 1


def test_continue_reads_and_writes_profiles(tmp_path, fig1c_wave):
    # `continue` is continue_profile on the wave read back from its file
    pin = tmp_path / "w.json"
    pin.write_text(fig1c_wave.to_json())
    out = tmp_path / "c.json"
    assert cli.main(["continue", "--in", str(pin), "--X", "17.5",
                     "--out", str(out)]) == 0
    w = prof.WaveProfile.from_json(out.read_text())
    want = prof.continue_profile(fig1c_wave, X=17.5)
    assert w.params == want.params
    assert np.array_equal(w.tau, want.tau)
    assert w.params.X == 17.5
    assert cli.main(["continue", "--in", str(pin),
                     "--out", str(tmp_path / "x.json")]) == 1


def test_spectrum_json_of_constant_state_is_its_dispersion(tmp_path,
                                                           constant_state):
    # 41 modes are exact for constant coefficients: every eigenvalue of
    # every row is a root of the constant state's folded dispersion; the
    # CSV report carries the same eigenvalues, one per line
    pin = tmp_path / "const.json"
    pin.write_text(constant_state.to_json())
    out, out_csv = tmp_path / "s.json", tmp_path / "s.csv"
    args = ["spectrum", "--in", str(pin), "--modes", "41", "--xi-points", "4"]
    assert cli.main([*args, "--format", "json", "--out", str(out)]) == 0
    assert cli.main([*args, "--format", "csv", "--out", str(out_csv)]) == 0
    doc = json.loads(out.read_text())
    p = constant_state.params
    assert doc["N"] == 20
    assert doc["xi"] == list(hill.default_xi_grid(p.X, 4))
    for xi, row in zip(doc["xi"], doc["eigs"]):
        got = np.array([complex(re, im) for re, im in row])
        eta = xi + 2.0 * np.pi * np.arange(-20, 21) / p.X
        want = oracles.constant_dispersion(p, p.tau0, eta).ravel()
        assert len(got) == len(want)
        assert np.max(np.abs(got[:, None] - want[None, :]).min(axis=1)) < 1e-10
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "xi,re,im"
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
        [xi, re, im] for xi, row in zip(doc["xi"], doc["eigs"])
        for re, im in row]


def test_spectrum_even_modes_exits_1(tmp_path, constant_state):
    pin = tmp_path / "const.json"
    pin.write_text(constant_state.to_json())
    assert cli.main(["spectrum", "--in", str(pin), "--modes", "40",
                     "--out", str(tmp_path / "s.csv")]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["const.json"]


def test_spectrum_no_xi_points_exits_1(tmp_path, constant_state):
    pin = tmp_path / "const.json"
    pin.write_text(constant_state.to_json())
    assert cli.main(["spectrum", "--in", str(pin), "--xi-points", "0",
                     "--out", str(tmp_path / "s.csv")]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["const.json"]


def test_evans_no_xi_band_exits_1(tmp_path, constant_state):
    pin = tmp_path / "const.json"
    pin.write_text(constant_state.to_json())
    assert cli.main(["evans", "--in", str(pin), "--xi-band", "0",
                     "--contour", "circle:c=0.1,r=0.01",
                     "--out", str(tmp_path / "e.json")]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["const.json"]


def test_evans_xi_band_json_and_csv(tmp_path, constant_state):
    # --xi-band 2 is +-linspace(pi/(10X), pi/X, 2); on the constant state
    # each winding counts the folded dispersion roots inside the circle,
    # and the CSV report carries the JSON report's rows
    p = constant_state.params
    roots = oracles.constant_dispersion(p, p.tau0, np.pi / p.X)[0]
    lam0 = complex(max(roots, key=lambda z: z.real))
    pin = tmp_path / "const.json"
    pin.write_text(constant_state.to_json())
    args = ["evans", "--in", str(pin), "--xi-band", "2",
            "--contour", f"circle:c={lam0!r},r=0.01"]
    out_json, out_csv = tmp_path / "e.json", tmp_path / "e.csv"
    assert cli.main([*args, "--out", str(out_json)]) == 0
    assert cli.main([*args, "--format", "csv", "--out", str(out_csv)]) == 0
    reports = json.loads(out_json.read_text())
    pos = np.linspace(np.pi / (10.0 * p.X), np.pi / p.X, 2)
    assert [r["xi"] for r in reports] == list(np.concatenate([-pos[::-1],
                                                              pos]))
    for r in reports:
        eta = r["xi"] + 2.0 * np.pi * np.arange(-5, 6) / p.X
        roots = oracles.constant_dispersion(p, p.tau0, eta).ravel()
        assert r["winding"] == int(np.sum(np.abs(roots - lam0) < 0.01))
    assert [r["winding"] for r in reports] == [1, 0, 0, 1]
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "xi,winding,points,max_jump"
    assert lines[1:] == [f"{r['xi']:.17g},{r['winding']},{len(r['points'])},"
                         f"{r['max_jump']:.17g}" for r in reports]


def test_importing_the_cli_loads_no_scipy_linalg():
    # scipy.linalg is imported where a solve needs it, so a command's
    # start-up does not pay for loading it
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, rollwave.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
