"""Sweep orchestration: grids, stores, bisection, and power-law fits."""

import math
import types

import numpy as np
import pytest

from rollwave import evans, sweep
from rollwave import profile as prof
from rollwave.model import DomainError
from rollwave.profile import NonConvergence


def _stub_record(point, verdict="stable"):
    return sweep.SweepRecord(alpha=point["alpha"], F=point["F"],
                             nu=point["nu"], q=point["q"], X=point["X"],
                             verdict=verdict, witness="stub",
                             conditions={}, meta={})


def _patch_classifier(monkeypatch, classify):
    def fake_evaluate(point, solver=None):
        return _stub_record(point, classify(point))
    monkeypatch.setattr(sweep, "evaluate_point", fake_evaluate)


def test_enumerate_grid_family_order():
    pts = sweep.enumerate_grid({"alpha": -2, "nu": 0.1, "q0": 0.4,
                                "F": [4.0, 5.0], "X": [7.0, 9.0]})
    assert [(p["F"], p["X"]) for p in pts] == [(4.0, 7.0), (4.0, 9.0),
                                              (5.0, 7.0), (5.0, 9.0)]
    assert pts[0]["q"] == pytest.approx(1.6)
    assert pts[0]["X0"] == pytest.approx(7.0 / 16.0)


def test_enumerate_grid_explicit_q_order():
    # the explicit-q route: F-major, then q, then X, each point carrying
    # its family coordinates q0 = q / F and X0 = X / F^2
    pts = sweep.enumerate_grid({"nu": 0.1, "q": [1.6, 2.0], "F": [4.0, 5.0],
                                "X": 7.0})
    assert [(p["F"], p["q"], p["X"]) for p in pts] == [
        (4.0, 1.6, 7.0), (4.0, 2.0, 7.0), (5.0, 1.6, 7.0), (5.0, 2.0, 7.0)]
    assert all(p["alpha"] == -2.0 and p["nu"] == 0.1 for p in pts)
    assert [p["q0"] for p in pts] == [0.4, 0.5, 1.6 / 5.0, 0.4]
    assert [p["X0"] for p in pts] == [7.0 / 16.0] * 2 + [7.0 / 25.0] * 2


def test_enumerate_grid_validation():
    with pytest.raises(DomainError):
        sweep.enumerate_grid({"F": 4.0, "X": 7.0})        # no q/q0
    with pytest.raises(DomainError):
        sweep.enumerate_grid({"F": 4.0, "X": 7.0, "q": 1.0, "q0": 0.4})
    with pytest.raises(DomainError):
        sweep.enumerate_grid({"F": 4.0, "X": 7.0, "q0": 0.4, "zeta": 1})
    for route in ({"q0": 0.4}, {"q": 1.6}):        # only alpha = -2 exists
        with pytest.raises(DomainError, match="alpha = -1.5"):
            sweep.enumerate_grid({"alpha": -1.5, "F": 4.0, "X": 7.0,
                                  **route})


def test_family_point_requires_alpha_m2():
    with pytest.raises(DomainError):
        sweep.family_point(-1.0, 4.0, 0.1, 0.4, 7.0)


def test_default_solver_requires_alpha_m2():
    point = dict(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 7.0), alpha=-1.0)
    with pytest.raises(DomainError, match="alpha = -1.0"):
        sweep.default_solver(point)


def test_record_json_roundtrip_excludes_timing():
    pt = sweep.family_point(-2.0, 4.0, 0.1, 0.4, 7.0)
    rec = _stub_record(pt)
    text = rec.to_json()
    assert "elapsed" not in text
    back = sweep.SweepRecord.from_json(text)
    assert back.key == rec.key
    assert back.verdict == "stable"


def test_store_resume_is_byte_identical(tmp_path, monkeypatch):
    _patch_classifier(monkeypatch,
                      lambda p: "stable" if p["X"] > 8.0 else "unstable")
    grid = {"alpha": -2, "nu": 0.1, "q0": 0.4, "F": [4.0, 5.0],
            "X": [7.0, 9.0]}
    path = tmp_path / "map.jsonl"
    recs1 = sweep.stability_map(grid, store=str(path))
    text1 = path.read_text()
    # rerun: all keys present, no new work, file unchanged
    def explode(*a, **k):
        raise AssertionError("resume must not re-evaluate")
    monkeypatch.setattr(sweep, "evaluate_point", explode)
    recs2 = sweep.stability_map(grid, store=str(path))
    assert path.read_text() == text1
    assert [r.key for r in recs1] == [r.key for r in recs2]
    assert [r.verdict for r in recs1] == ["unstable", "stable",
                                         "unstable", "stable"]


def test_store_drops_torn_final_line(tmp_path):
    path = tmp_path / "s.jsonl"
    store = sweep.ResultStore(str(path))
    first = _stub_record(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 7.0))
    store.append(first)
    torn = _stub_record(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 8.0))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(torn.to_json()[:25])            # killed mid-append
    with pytest.warns(RuntimeWarning, match="torn final line"):
        store = sweep.ResultStore(str(path))
    assert [r.key for r in store.records] == [first.key]
    assert path.read_text() == first.to_json() + "\n"
    store.append(torn)
    again = sweep.ResultStore(str(path))
    assert [r.key for r in again.records] == [first.key, torn.key]
    # a malformed line that is not the torn tail still raises
    path.write_text("{\n" + first.to_json() + "\n")
    with pytest.raises(ValueError):
        sweep.ResultStore(str(path))


def test_store_completes_a_final_line_without_newline(tmp_path):
    # a whole record that lost only its newline is kept, and the newline is
    # written so the next append starts a line of its own
    path = tmp_path / "s.jsonl"
    first = _stub_record(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 7.0))
    second = _stub_record(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 8.0))
    path.write_text(first.to_json() + "\n" + second.to_json())
    store = sweep.ResultStore(str(path))
    assert [r.key for r in store.records] == [first.key, second.key]
    assert path.read_text() == first.to_json() + "\n" + second.to_json() + "\n"
    third = _stub_record(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 9.0))
    store.append(third)
    again = sweep.ResultStore(str(path))
    assert [r.key for r in again.records] == [first.key, second.key,
                                              third.key]


def test_evaluate_point_records_only_numeric_failures():
    point = sweep.family_point(-2.0, 4.0, 0.1, 0.4, 7.0)

    def stalls(p):
        raise NonConvergence("line search stalled")

    rec = sweep.evaluate_point(point, solver=stalls)
    assert rec.verdict == "failed"
    assert rec.witness == "NonConvergence: line search stalled"
    assert rec.meta["n"] == 512        # no wave: the n requested

    def buggy(p):
        raise TypeError("a programming error")

    with pytest.raises(TypeError):
        sweep.evaluate_point(point, solver=buggy)


def test_evaluate_point_meta_carries_the_diagnostics(monkeypatch):
    diagnostics = {"hill_max_real": -1e-3, "hill_eigensolves": 24,
                   "evans_cap": 96, "alpha": [[0.0, 1.5], [0.0, -0.5]],
                   "beta": [[-0.2, 0.0], [-0.1, 0.0]], "windings": [0] * 6}
    monkeypatch.setattr(evans, "verdict", lambda wave: evans.StabilityVerdict(
        overall="stable", conditions={"D1": True}, diagnostics=diagnostics))
    # the wave's n, not the 512 requested: the descent may refine the grid
    wave = types.SimpleNamespace(n=2048, residual_norm=2e-11,
                                 tau=np.array([0.5, 1.0, 1.25]))
    point = sweep.family_point(-2.0, 4.0, 0.1, 0.4, 8.0)
    rec = sweep.evaluate_point(point, solver=lambda p: wave)
    assert rec.meta == {"q0": 0.4, "X0": 0.5, "n": 2048,
                        "residual_norm": 2e-11, "amplitude": 0.75,
                        **diagnostics}
    assert sweep.SweepRecord.from_json(rec.to_json()).meta == rec.meta


def test_map_walks_each_limit_wave_once(monkeypatch):
    # three map points of one X0 (0.205 exactly at these F) share one walk
    # from onset; the next map walks again, and outside a map every
    # profile_from_limit walks, to the same bits as the map's waves
    walks = []
    walk = prof._limit_walk

    def counting(*args):
        walks.append(args[1])
        return walk(*args)

    monkeypatch.setattr(prof, "_limit_walk", counting)
    points = [sweep.family_point(-2.0, F, 0.1, 0.4, 0.205 * F * F)
              for F in (4.0, 6.0, 8.0)]
    assert [p["X0"] for p in points] == [0.205] * 3
    waves = []

    def solver(point):
        waves.append(sweep.default_solver(point))
        return waves[-1]

    records = sweep.stability_map(points, solver=solver)
    assert [r.verdict for r in records] == ["unstable"] * 3
    assert walks == [0.205]
    sweep.stability_map(points)
    assert walks == [0.205] * 2
    for point, wave in zip(points, waves):
        plain = sweep.default_solver(point)
        assert plain.params == wave.params
        assert np.array_equal(plain.tau, wave.tau)
    assert walks == [0.205] * 5


@pytest.mark.slow
def test_f4_x8_point_is_decided():
    # the limit wave at X0 = 0.5 is resolved on 1024 nodes (tail 4.6e-6);
    # the descent's first physical solve (F = 100, n = 1024) stops near
    # 2.6e-10, above tol 1e-10 but within the rounding floor its limit seed
    # was accepted under; the point is decided, and meta holds the wave's n
    rec = sweep.evaluate_point(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 8.0))
    assert rec.verdict == "stable"
    assert rec.meta["n"] == 1024


def test_store_rejects_duplicate_key(tmp_path):
    store = sweep.ResultStore(str(tmp_path / "s.jsonl"))
    rec = _stub_record(sweep.family_point(-2.0, 4.0, 0.1, 0.4, 7.0))
    store.append(rec)
    with pytest.raises(DomainError):
        store.append(rec)


def test_boundary_bisect_finds_threshold(monkeypatch):
    X_star = 8.3
    _patch_classifier(monkeypatch,
                      lambda p: "stable" if p["X"] > X_star else "unstable")
    got = sweep.boundary_bisect(-2.0, 4.0, 0.1, 0.4, 6.0, 12.0,
                                which="lower", rel_tol=1e-3)
    assert got == pytest.approx(X_star, rel=1e-3)


def test_boundary_bisect_resumes_from_store(tmp_path, monkeypatch):
    # every probe of a second bisection over the same store is a stored key
    calls = []

    def classify(p):
        calls.append(p["X"])
        return "stable" if p["X"] > 8.3 else "unstable"

    _patch_classifier(monkeypatch, classify)
    path = tmp_path / "bisect.jsonl"
    first = sweep.boundary_bisect(-2.0, 4.0, 0.1, 0.4, 6.0, 12.0,
                                  store=sweep.ResultStore(str(path)))
    assert calls
    calls.clear()
    again = sweep.boundary_bisect(-2.0, 4.0, 0.1, 0.4, 6.0, 12.0,
                                  store=sweep.ResultStore(str(path)))
    assert again == first
    assert calls == []


def test_boundary_bisect_not_bracketed(monkeypatch):
    _patch_classifier(monkeypatch, lambda p: "stable")
    with pytest.raises(sweep.NotBracketed):
        sweep.boundary_bisect(-2.0, 4.0, 0.1, 0.4, 6.0, 12.0)
    # inverted orientation: stable low side for a "lower" boundary
    _patch_classifier(monkeypatch,
                      lambda p: "unstable" if p["X"] > 8.0 else "stable")
    with pytest.raises(sweep.NotBracketed):
        sweep.boundary_bisect(-2.0, 4.0, 0.1, 0.4, 6.0, 12.0, which="lower")


def test_boundary_bisect_probe_failure(monkeypatch):
    _patch_classifier(monkeypatch, lambda p: "failed")
    with pytest.raises(sweep.ProbeFailed):
        sweep.boundary_bisect(-2.0, 4.0, 0.1, 0.4, 6.0, 12.0)


def _stub_boundary(p):
    # a stand-in lower boundary X*(F) = 0.05 F^2.83
    return "stable" if p["X"] > 0.05 * p["F"] ** 2.83 else "unstable"


def test_boundary_points_reproduce_the_bisections(tmp_path, monkeypatch):
    # a coarse map and four bisections share one store; each F's narrowest
    # bracket in it is the final bracket of that F's bisection
    _patch_classifier(monkeypatch, _stub_boundary)
    path = tmp_path / "s.jsonl"
    store = sweep.ResultStore(str(path))
    sweep.stability_map({"alpha": -2, "nu": 0.1, "q0": 0.4,
                         "F": [4.0, 5.0, 6.0, 8.0],
                         "X": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]}, store=store)
    brackets = {4.0: (2.0, 4.0), 5.0: (4.0, 8.0), 6.0: (4.0, 8.0),
                8.0: (16.0, 32.0)}
    got = {F: sweep.boundary_bisect(-2.0, F, 0.1, 0.4, lo, hi,
                                    rel_tol=1e-3, store=store)
           for F, (lo, hi) in brackets.items()}
    points = sweep.boundary_points(sweep.ResultStore(str(path)).records)
    assert points == [(F, 0.4 * F, got[F]) for F in sorted(got)]
    assert sweep.powerlaw_fit(points).b1 == pytest.approx(2.83, abs=3e-3)


def test_boundary_points_orientation_and_undecided_records():
    def rec(F, X, verdict):
        return _stub_record(sweep.family_point(-2.0, F, 0.1, 0.4, X), verdict)

    records = [rec(4.0, 5.0, "stable"), rec(4.0, 6.0, "unstable"),
               rec(4.0, 6.5, "indeterminate"), rec(4.0, 7.0, "stable"),
               rec(4.0, 7.1, "failed"), rec(4.0, 7.2, "unstable"),
               rec(5.0, 6.0, "stable"), rec(5.0, 9.0, "stable")]
    # the undecided 6.5 and 7.1 are skipped; F = 5 has no crossing
    assert sweep.boundary_points(records, "lower") == [
        (4.0, 1.6, math.sqrt(6.0 * 7.0))]
    # of the upper crossings (5, 6) and (7, 7.2) the narrower one wins
    assert sweep.boundary_points(records[::-1], "upper") == [
        (4.0, 1.6, math.sqrt(7.0 * 7.2))]
    with pytest.raises(DomainError):
        sweep.boundary_points(records, "middle")


def test_powerlaw_fit_exact_recovery():
    rng = np.random.default_rng(7)
    b1, b2, b3 = 2.1, -0.4, 0.33
    pts = []
    for _ in range(8):
        F = float(rng.uniform(3.0, 12.0))
        q = float(rng.uniform(0.5, 4.0))
        X = float(np.exp(b1 * np.log(F) + b2 * np.log(q) + b3))
        pts.append((F, q, X))
    fit = sweep.powerlaw_fit(pts)
    assert fit.b1 == pytest.approx(b1, abs=1e-10)
    assert fit.b2 == pytest.approx(b2, abs=1e-10)
    assert fit.b3 == pytest.approx(b3, abs=1e-10)
    assert fit.max_abs_error < 1e-12
    assert not fit.restricted


def test_powerlaw_fit_rank_deficient_family():
    # q = q0 F makes log q collinear with log F: the fit must restrict
    # itself to the (log F, 1) columns and report it
    b1, b3 = 2.83, -1.0
    pts = [(F, 0.4 * F, float(np.exp(b1 * np.log(F) + b3)))
           for F in (3.0, 4.5, 6.0, 9.0)]
    fit = sweep.powerlaw_fit(pts)
    assert fit.restricted == ("log q",)
    assert fit.b2 == 0.0
    assert fit.b1 == pytest.approx(b1, abs=1e-10)


def test_powerlaw_fit_validation():
    with pytest.raises(DomainError):
        sweep.powerlaw_fit([(3.0, 1.0, 10.0), (4.0, 1.0, 12.0),
                            (5.0, 1.0, 14.0)])          # too few points
    with pytest.raises(DomainError):
        sweep.powerlaw_fit([(3.0, 1.0, 10.0), (3.3, 1.1, 12.0),
                            (3.6, 1.2, 13.0), (3.9, 1.3, 14.0)])  # F span
