"""Command-line interface: subcommands, config/manifest plumbing, exit codes."""

import json

import numpy as np
import pytest

from rollwave import cli, evans, linearize, sweep
from rollwave import profile as prof


def test_kdv_inverts_period(tmp_path, capsys):
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--X", "17", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == pytest.approx(0.9996570910754125, abs=1e-10)
    assert doc["X"] == pytest.approx(17.0)


def test_kdv_stability_check(tmp_path):
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--X", "17", "--delta", "0.05",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stable"] is True
    assert doc["hill_max_real"] <= 1e-7
    assert doc["hill_eigensolves"] == 48


def test_kdv_stability_check_unstable(tmp_path):
    # an unstable wave is an answer, not an error; its scan stops at the
    # first unstable row, the second one solved
    out = tmp_path / "kdv.json"
    assert cli.main(["kdv", "--X", "7", "--delta", "0.05",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stable"] is False
    assert doc["hill_max_real"] > 1e-7
    assert doc["hill_eigensolves"] == 2


def test_limit_inf_ham_route(tmp_path):
    out = tmp_path / "ham.json"
    assert cli.main(["limit-inf", "--h-minus", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["h_plus"] == pytest.approx(1.7564312086262248, rel=1e-10)
    assert doc["X_mu"] == pytest.approx(6.384703575125159, rel=1e-10)


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
    w = prof.equilibrium(3.0, 0.1, tau0=1.0, X=2.0 * np.pi, n=64)
    pin = tmp_path / "const.json"
    pin.write_text(w.to_json())
    code = cli.main(["taylor", "--in", str(pin),
                     "--out", str(tmp_path / "t.json")])
    assert code == 2


def test_evans_winding_around_unstable_root(tmp_path):
    # a small circle around the constant state's most unstable dispersion
    # root winds once; the manifest replays to the same report
    w = prof.equilibrium(3.0, 0.1, tau0=1.0, X=2.0 * np.pi, n=64)
    p = w.params
    lam0 = complex(max(linearize.constant_dispersion(p, p.tau0, 0.23)[0],
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
]


@pytest.mark.parametrize("sub, args, flag, value", _REMOVED_FLAGS,
                         ids=[f"{s}{f}" for s, _, f, _ in _REMOVED_FLAGS])
def test_removed_flag_exits_1_and_writes_nothing(tmp_path, monkeypatch,
                                                 constant_state, sub, args,
                                                 flag, value):
    monkeypatch.chdir(tmp_path)
    pin = tmp_path / "w.json"
    pin.write_text(constant_state.to_json())
    wave = [] if sub in ("kdv", "sweep") else ["--in", str(pin)]
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
    # both routes, the scaling family (--q0) and explicit outflows (--q),
    # reject alpha != -2 before any point is solved or stored
    store = tmp_path / "s.jsonl"
    for route in (["--q0", "0.4"], ["--q", "1.6"]):
        assert cli.main(["sweep", "--alpha", "-1.5", *route, "--F", "4",
                         "--X", "8,9", "--store", str(store)]) == 1
    assert list(tmp_path.iterdir()) == []


def _bisected_store(path, monkeypatch):
    """A store that four bisections filled under a stub X*(F) = 0.05 F^2.83."""
    def evaluate(point, solver=None, n=512):
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


def test_fit_missing_file_exits_1(tmp_path):
    assert cli.main(["fit", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.json")]) == 1


def test_atomic_write_leaves_no_partial_file(tmp_path):
    # a failing run must not leave a half-written primary output behind
    out = tmp_path / "x.json"
    assert cli.main(["kdv", "--X", "5", "--out", str(out)]) == 1
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_profile_scratch_route(tmp_path):
    out = tmp_path / "w.json"
    code = cli.main(["profile", "--F", str(6.0 ** 0.5), "--q", "1.5745",
                     "--X", "17.15", "--n", "256", "--tol", "1e-9",
                     "--out", str(out)])
    assert code == 0
    w = prof.WaveProfile.from_json(out.read_text())
    assert w.residual_norm <= 1e-9
    assert np.ptp(w.tau) > 0.1
