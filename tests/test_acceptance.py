"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criterion 8 (boundary bisection + power-law fit) takes about 38 s on two
cores and is marked slow; it is excluded from the default profile (see
pyproject.toml).
"""

import math
import time

import numpy as np
import pytest

from rollwave import evans, hill, kdv_limit, linearize, model, sweep
from rollwave import profile as prof


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_kdv_band_anchors():
    t0 = time.perf_counter()
    X1 = kdv_limit.period_of_k(0.199910210210210)
    X2 = kdv_limit.period_of_k(0.9421)
    X3 = kdv_limit.period_of_k(0.99999838520)
    X4 = kdv_limit.period_of_k(0.999999999997)
    elapsed = time.perf_counter() - t0
    ok = (abs(X1 - 6.284) <= 0.01
          and 8.33 <= X2 <= 8.55
          and abs(X3 - 26.057) <= 0.03
          and abs(X4 - 48.3) <= 0.5
          and elapsed < 1.0)
    _report(1, ok, f"X = ({X1:.4f}, {X2:.4f}, {X3:.4f}, {X4:.4f}), "
                   f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_weakly_unstable_band():
    delta = 0.05
    classes = {X: kdv_limit.kdvks_stable(delta, X)
               for X in (7.0, 10.0, 17.0, 24.0, 30.0)}
    cls_ok = (classes[10.0] and classes[17.0] and classes[24.0]
              and not classes[7.0] and not classes[30.0])

    def bisect(lo, hi, lo_stable):
        while hi - lo > 0.01 * 0.5 * (hi + lo):
            mid = math.sqrt(lo * hi)
            if kdv_limit.kdvks_stable(delta, mid) == lo_stable:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    X_l = bisect(7.0, 10.0, False)
    X_r = bisect(24.0, 30.0, True)
    edges_ok = (abs(X_l - 8.44) <= 0.05 * 8.44
                and abs(X_r - 26.1) <= 0.05 * 26.1)
    _report(2, cls_ok and edges_ok,
            f"classes {['S' if classes[X] else 'U' for X in sorted(classes)]}, "
            f"edges ({X_l:.3f}, {X_r:.3f}) vs (8.44, 26.1)")


def test_criterion_3_profile_regression(fig1c_wave):
    w = fig1c_wave
    amp = float(np.ptp(w.tau))
    ok = (w.residual_norm <= 1e-8 and amp > 0.05
          and w.params.F == pytest.approx(6.0 ** 0.5)
          and w.params.X == pytest.approx(17.15))
    _report(3, ok, f"residual {w.residual_norm:.2e}, amplitude {amp:.3f}")


def test_criterion_4_oracle_equivalence(constant_state):
    w = constant_state
    p = w.params
    sp = linearize.bloch_coeffs(w)
    N = 20                                     # 41 modes
    X = p.X
    hill_err = 0.0
    for xi in (0.11, -0.37, np.pi / X):
        got = hill.eigenvalues(sp, N, xi)
        eta = xi + 2.0 * np.pi * np.arange(-N, N + 1) / X
        want = linearize.constant_dispersion(p, p.tau0, eta).ravel()
        hill_err = max(hill_err, float(
            np.abs(got[:, None] - want[None, :]).min(axis=1).max()))

    ev = evans.EvansEvaluator(sp)
    evans_err = 0.0
    xi = 0.23
    for j in (-1, 0, 1):
        eta = xi + 2.0 * np.pi * j / X
        for lam in linearize.constant_dispersion(p, p.tau0, eta)[0]:
            got = evans.polish_root(ev, lam * 1.001 + 1e-4, xi)
            evans_err = max(evans_err, abs(got - lam))

    ok = hill_err <= 1e-10 and evans_err <= 1e-8
    _report(4, ok, f"Hill error {hill_err:.2e} (tol 1e-10), "
                   f"Evans error {evans_err:.2e} (tol 1e-8)")


def test_criterion_5_cross_method_agreement(f6_waves):
    worst_shift = 0.0
    worst_slope = np.inf
    n_roots = 0
    for X, w in f6_waves.items():
        sp = linearize.bloch_coeffs(w)
        ev = evans.EvansEvaluator(sp)
        X_per = w.params.X
        for xi in hill.default_xi_grid(X_per, n_xi=6):
            lam = hill.eigenvalues(sp, 40, xi)
            sel = lam[(np.abs(lam) >= 1e-2) & (np.abs(lam) <= 1.0)]
            for l in sel:
                got = evans.polish_root(ev, l, xi)
                worst_shift = max(worst_shift, abs(got - l))
                n_roots += 1
        exp = evans.origin_taylor(ev)
        for a in exp.alpha:
            errs = []
            for frac in (0.04, 0.02, 0.01):
                xi = frac * np.pi / X_per
                pred = a * xi
                got = evans.polish_root(ev, pred, xi)
                errs.append(abs(got - pred))
            slope = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(errs), 1)[0]
            worst_slope = min(worst_slope, float(slope))
    ok = worst_shift <= 1e-4 and worst_slope >= 1.9
    _report(5, ok, f"{n_roots} Hill roots polished, worst shift "
                   f"{worst_shift:.2e} (tol 1e-4), smallest xi-exponent "
                   f"{worst_slope:.3f} (need >= 1.9)")


def test_criterion_6_winding_replication(f10_x50_wave):
    w = f10_x50_wave
    X = w.params.X
    sp = linearize.bloch_coeffs(w)
    ev = evans.EvansEvaluator(sp)
    contour = evans.Contour(kind="semicircle", radius=0.2)
    band = np.linspace(np.pi / (10.0 * X), np.pi / X, 21)
    xis = np.concatenate([-band[::-1], band])
    assert len(xis) == 42
    windings, max_pts, max_jump = [], 0, 0.0
    for xi in xis:
        rep = evans.winding_number(ev, contour, float(xi))
        windings.append(rep.winding)
        max_pts = max(max_pts, len(rep.lam))
        max_jump = max(max_jump, rep.max_jump)
    ok = (all(wd == 0 for wd in windings)
          and max_jump <= 0.2
          and max_pts <= 3 * 277)
    _report(6, ok, f"42 windings all zero: {set(windings) == {0}}, "
                   f"max jump {max_jump:.4f} (<= 0.2), "
                   f"max {max_pts} points/contour (budget {3 * 277})")


def test_criterion_7_infinite_froude_instability():
    lp = prof.limit_profile_alpha_m2(0.4, 0.5, nu=0.1, n=512)
    sp = linearize.limit_matrices_alpha_m2(lp)
    m_eval = [hill.max_unstable(hill.spectrum(sp, N=N, n_xi=24), r0=1e-4)
              for N in (40, 80)]
    eval_ok = (m_eval[0] > 0.0 and m_eval[1] > 0.0
               and abs(m_eval[1] - m_eval[0]) <= 0.05 * m_eval[0])

    ham_ok, ham_vals = True, []
    for h_minus in (0.3, 0.5, 0.7):
        orbit = prof.ham_orbit(h_minus, n=512)
        spo = linearize.ham_limit_operator(orbit)
        m = [hill.max_unstable(hill.spectrum(spo, N=N, n_xi=24), r0=1e-4)
             for N in (40, 80)]
        ham_vals.append(m[1])
        ham_ok = ham_ok and m[0] > 0.0 and m[1] > 0.0 \
            and abs(m[1] - m[0]) <= 0.05 * m[0]
    _report(7, eval_ok and ham_ok,
            f"limit-family max Re lambda {m_eval[1]:.4f} (doubling-robust: "
            f"{eval_ok}), ham max Re {['%.4f' % v for v in ham_vals]} "
            f"(doubling-robust: {ham_ok})")


@pytest.mark.slow
def test_criterion_8_boundary_power_law():
    brackets = {4.0: (3.25, 4.5), 5.0: (5.1, 6.5), 6.0: (7.83, 8.78)}
    lowers = {}
    for F, (lo, hi) in brackets.items():
        lowers[F] = sweep.boundary_bisect(-2.0, F, 0.1, 0.4, lo, hi,
                                          which="lower", rel_tol=5e-3)
    band_ok = True
    for F, X in lowers.items():
        dash_lo = math.exp(-2.97) * F ** 2.83
        dash_hi = math.exp(0.087) * F ** 1.88
        band_ok = band_ok and (0.85 * dash_lo <= X <= 1.15 * dash_hi)
    Fs = sorted(lowers)
    slope = float(np.polyfit(np.log(Fs), np.log([lowers[F] for F in Fs]),
                             1)[0])
    slope_ok = 0.70 * 2.83 <= slope <= 1.15 * 2.83
    _report(8, band_ok and slope_ok,
            f"lower boundaries {[round(lowers[F], 3) for F in Fs]}, "
            f"between dash curves with 15% slack: {band_ok}, "
            f"log-log slope {slope:.3f} vs 2.83: {slope_ok}")


def test_criterion_9_property_suites(fig1c_wave, f6_waves):
    details = []

    # conjugation symmetry of spectra
    sp = linearize.bloch_coeffs(fig1c_wave)
    conj_err = 0.0
    for xi in (0.05, 0.11):
        a = np.sort_complex(hill.eigenvalues(sp, 24, xi))
        b = np.sort_complex(np.conj(hill.eigenvalues(sp, 24, -xi)))
        conj_err = max(conj_err, float(np.max(np.abs(a - b))))
    details.append(f"conjugation {conj_err:.1e}")

    # Liouville identity for monodromies
    liouville = max(evans.EvansEvaluator(linearize.bloch_coeffs(w)).frame(0.2)
                    .liouville_error for w in
                    [fig1c_wave, *f6_waves.values()])
    details.append(f"Liouville {liouville:.1e}")

    # double root at the origin for nonconstant profiles
    double_ok = all(evans.origin_taylor(
        evans.EvansEvaluator(linearize.bloch_coeffs(w))).double_root_ok for w in
                    [fig1c_wave, *f6_waves.values()])
    details.append(f"double-root {double_ok}")

    # Hamiltonian energy conservation and the three c0^2 forms
    energy_err, c0_spread = 0.0, 0.0
    for h_minus in (0.3, 0.5, 0.7):
        orbit = prof.ham_orbit(h_minus, n=512)
        mu = orbit.h - np.log(orbit.h) + 0.5 * orbit.dh ** 2
        energy_err = max(energy_err, float(np.max(np.abs(mu - orbit.mu))))
        forms = prof.ham_selection_c0(orbit, 0.4)
        c0_spread = max(c0_spread,
                        (max(forms) - min(forms)) / abs(forms[0]))
    details.append(f"energy {energy_err:.1e}")
    details.append(f"c0^2 spread {c0_spread:.1e}")

    # slope margin changes sign across F ~ 3.5 on the q0 = 0.4 family
    m_lo = model.slope_margin(prof.profile_from_limit(0.4, 0.3, 3.0, n=512))
    m_hi = model.slope_margin(prof.profile_from_limit(0.4, 0.3, 4.0, n=512))
    slope_flip = m_lo > 0.0 > m_hi
    details.append(f"slope margin {m_lo:+.3f} @F=3 / {m_hi:+.3f} @F=4")

    ok = (conj_err <= 1e-10 and liouville <= 1e-8 and double_ok
          and energy_err <= 1e-10 and c0_spread <= 1e-8 and slope_flip)
    _report(9, ok, "; ".join(details))
