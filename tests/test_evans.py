"""Periodic Evans function: monodromy, winding numbers, origin expansion."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from rollwave import evans, fourier, hill, kdv_limit, linearize
from rollwave import profile as prof
from rollwave.model import DomainError

import oracles


@pytest.fixture(scope="module")
def const_problem(constant_state):
    return linearize.bloch_coeffs(constant_state)


@pytest.fixture(scope="module")
def fig1c_problem(fig1c_wave):
    return linearize.bloch_coeffs(fig1c_wave)


def test_constant_monodromy_matches_expm(const_problem):
    # constant coefficients: Psi(X) = expm((A0 + lam A1) X) exactly
    fo = const_problem.first_order
    lam = 0.21 - 0.13j
    ev = evans.EvansEvaluator(const_problem)
    frame = ev.frame(lam)
    ref = scipy.linalg.expm((fo.A0[0] + lam * fo.A1[0])
                            * const_problem.period)
    # the frame holds the balanced monodromy B^-1 Psi B
    b = ev.balance
    psi = frame.Q @ (np.exp(frame.row_scales)[:, None] * frame.U)
    psi = b[:, None] * psi / b[None, :]
    assert np.max(np.abs(psi - ref)) < 1e-10 * np.max(np.abs(ref))


def test_constant_state_roots_match_dispersion(const_problem, constant_state):
    # polishing from a perturbed dispersion root recovers it to 1e-8
    p = constant_state.params
    X = p.X
    xi = 0.23
    ev = evans.EvansEvaluator(const_problem)
    for j in (-1, 0, 1):
        eta = xi + 2.0 * np.pi * j / X
        for lam in oracles.constant_dispersion(p, p.tau0, eta)[0]:
            seed = lam * 1.001 + 1e-4
            got = evans.polish_root(ev, seed, xi)
            assert abs(got - lam) < 1e-8


def test_conjugation_symmetry(fig1c_problem):
    ev = evans.EvansEvaluator(fig1c_problem)
    lam, xi = 0.17 + 0.09j, 0.11
    a = ev.value(lam, xi)
    b = ev.value(np.conj(lam), -xi)
    conj_a = evans.EvansValue(mantissa=np.conj(a.mantissa),
                              exponent=a.exponent)
    assert b.ratio(conj_a) == pytest.approx(1.0, abs=1e-10)


def test_frames_batch_matches_single_frames(fig1c_problem):
    # one batched step loop gives each lambda the frame a lone integration
    # gives, and a second request integrates nothing
    lams = [0.17 + 0.09j, -0.05 + 0.2j, 0.02 - 0.01j]
    ev = evans.EvansEvaluator(fig1c_problem)
    batch = ev.frames([lams[0], lams[1], lams[0], lams[2]])
    assert ev.frames_computed == 3
    assert [fr.lam for fr in batch] == [lams[0], lams[1], lams[0], lams[2]]
    rho = np.exp(0.11j * fig1c_problem.period)
    for lam, fr in zip(lams, [batch[0], batch[1], batch[3]]):
        single = evans.EvansEvaluator(fig1c_problem).frame(lam)
        assert fr.n_steps == single.n_steps
        ratio = evans._det_scaled(fr, rho).ratio(
            evans._det_scaled(single, rho))
        assert abs(ratio - 1.0) < 1e-13

    def fail(*_args):
        raise AssertionError("cached frames were integrated again")

    ev._propagate = fail
    again = ev.frames(lams[::-1])
    assert again == [batch[3], batch[1], batch[0]]


@pytest.mark.parametrize("norm", [0.01, 0.2, 3.0, 40.0])
def test_expm_stack_matches_scipy(norm):
    # the 1-norms pick Taylor degree 6, degree 12, and degree 18 with
    # scaling and squaring (s = 2 and s = 6)
    rng = np.random.default_rng(7)
    M = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    M *= norm / np.abs(M).sum(axis=-2).max(axis=-1)[:, None, None]
    got = evans._expm_stack(np.moveaxis(M, 0, -1),
                            float(np.abs(M).sum(axis=-2).max()))
    for m, e in zip(M, np.moveaxis(got, -1, 0)):
        ref = scipy.linalg.expm(m)
        assert np.abs(e - ref).max() <= 1e-13 * np.abs(ref).max()


def test_taylor_thetas_meet_their_bound():
    # theta_m is (just below) the largest theta whose truncation bound
    # theta^(m+1) / (m+1)! e^(2 theta) stays within unit roundoff
    def bound(m, theta):
        return theta ** (m + 1) / math.factorial(m + 1) * math.exp(2 * theta)

    degrees = [m for m, _ in evans._TAYLOR]
    assert degrees == [6, 9, 12, 18]
    for m, theta in evans._TAYLOR:
        assert bound(m, theta) <= 2.0 ** -53
        assert bound(m, 1.001 * theta) > 2.0 ** -53


@pytest.mark.parametrize("m, theta", evans._TAYLOR)
def test_expm_stack_at_theta_matches_scipy(m, theta):
    # a stack whose 1-norms sit exactly at theta_m gets degree m unscaled
    rng = np.random.default_rng(m)
    M = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    M *= theta / np.abs(M).sum(axis=-2).max(axis=-1)[:, None, None]
    got = evans._expm_stack(np.moveaxis(M, 0, -1), theta)
    for a, e in zip(M, np.moveaxis(got, -1, 0)):
        ref = scipy.linalg.expm(a)
        assert np.abs(e - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("norm_cap", [None, 30.0])
def test_propagate_matches_product_of_step_exponentials(fig1c_problem,
                                                        monkeypatch, norm_cap):
    # on a coarse grid each frame, rebuilt as Q diag(e^g) U and unbalanced,
    # is the plain product of scipy's exponentials of the step exponents; a
    # small _NORM_CAP makes the growth rule cut segments short of _QR_STRIDE
    ev = evans.EvansEvaluator(fig1c_problem)
    grid = ev._step_grid(0.6)
    W, _ = grid
    n = W.shape[-1]
    assert n <= 150
    if norm_cap is not None:
        monkeypatch.setattr(evans, "_NORM_CAP", norm_cap)
    qr_calls = []
    qr_extract = evans._qr_extract

    def counted(*args):
        qr_calls.append(1)
        return qr_extract(*args)

    monkeypatch.setattr(evans, "_qr_extract", counted)
    lams = [0.17 + 0.09j, -0.3 + 0.5j]
    frames = ev._propagate(lams, grid)
    # at the default cap the growth rule already ends most segments early
    assert len(qr_calls) > -(-n // evans._QR_STRIDE)
    if norm_cap is not None:
        assert len(qr_calls) > n / 3
    b = ev.balance
    for lam, fr in zip(lams, frames):
        ref = np.eye(ev.dim)
        for j in range(n):
            omega = sum(lam ** k * Wk[:, :, j] for k, Wk in enumerate(W))
            ref = scipy.linalg.expm(omega) @ ref
        psi = fr.Q @ (np.exp(fr.row_scales)[:, None] * fr.U)
        psi, ref = (b[:, None] * m / b[None, :] for m in (psi, ref))
        assert np.abs(psi - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("edges", [[0, 1], [0, 2], [0, 3], [0, 63], [0, 64],
                                   [5, 8], [9, 72], [72, 75]])
def test_segment_products_match_sequential_expm(edges):
    # the pairwise tree gives the chunk [a, b) of a segment the product
    # E_last ... E_first of its steps' exponentials, from a view of the
    # exponents
    a, b = edges
    rng = np.random.default_rng(a + b)
    d, n = 3, 80
    re, im = rng.standard_normal((2, 6, d, d, n))
    W = re + 1j * im
    W *= np.array([0.3, 0.2, 0.1, 0.05, 0.03, 0.02])[:, None, None, None] / d
    lam = np.array([0.4 - 0.3j, -0.7 + 0.1j])
    r = np.abs(lam).max()
    norms = np.abs(W).sum(axis=1).max(axis=1)
    bounds = sum(r ** k * nk for k, nk in enumerate(norms))
    got = evans._chunk_product(W[..., a:b, None], lam, bounds[a:b].max())
    assert got.shape == (len(lam), d, d)
    for z, Pz in zip(lam, got):
        ref = np.eye(d)
        for j in range(a, b):
            omega = sum(z ** k * Wk[:, :, j] for k, Wk in enumerate(W))
            ref = scipy.linalg.expm(omega) @ ref
        assert np.abs(Pz - ref).max() <= 1e-13 * np.abs(ref).max()


def test_magnus_step_is_sixth_order(fig1c_problem):
    # halving the cap halves every step, so a sixth-order stepper's error in
    # D falls 64-fold (a fourth-order one: 16-fold); measured against a grid
    # 64 times finer than the coarsest
    ev = evans.EvansEvaluator(fig1c_problem)
    lams = [0.17 + 0.09j, -0.3 + 0.5j, 0.05j]
    rho = np.exp(0.11j * fig1c_problem.period)

    def values(cap):
        return [evans._det_scaled(fr, rho)
                for fr in ev._propagate(lams, ev._step_grid(cap))]

    ref = values(0.6 / 64)
    err = [max(abs(v.ratio(r) - 1.0) for v, r in zip(values(cap), ref))
           for cap in (0.3, 0.15)]
    assert err[0] >= 40.0 * err[1]


def test_liouville_identity(fig1c_problem):
    frame = evans.EvansEvaluator(fig1c_problem).frame(0.2)
    assert frame.liouville_error < 1e-8
    assert frame.liouville_error <= evans._LIOUVILLE_TOL


def test_winding_counts_roots(const_problem, constant_state):
    p = constant_state.params
    xi = 0.23
    lam0 = oracles.constant_dispersion(p, p.tau0, xi)[0]
    lam0 = max(lam0, key=lambda z: z.real)   # the unstable branch root
    ev = evans.EvansEvaluator(const_problem)
    around = evans.Contour(kind="circle", radius=1e-2, center=lam0)
    rep = evans.winding_number(ev, around, xi)
    assert rep.winding == 1
    away = evans.Contour(kind="circle", radius=1e-2,
                         center=lam0 + 0.3 + 0.4j)
    rep0 = evans.winding_number(ev, away, xi)
    assert rep0.winding == 0
    assert rep0.max_jump <= 0.2


def test_winding_retries_a_contour_through_a_root_once(const_problem,
                                                     constant_state,
                                                     monkeypatch):
    # D vanishing on the contour: the winding is taken once more on the
    # same contour with its radius 1e-3 larger, and a second zero raises
    p = constant_state.params
    xi = 0.23
    lam0 = max(oracles.constant_dispersion(p, p.tau0, xi)[0],
               key=lambda z: z.real)
    ev = evans.EvansEvaluator(const_problem)
    contour = evans.Contour(kind="circle", radius=1e-2, center=lam0)
    once, calls = evans._winding_once, []

    def zero_first(evaluator, contour, xi, perturbed):
        calls.append((contour, perturbed))
        if len(calls) == 1:
            raise evans.ZeroOnContour("D vanished on the contour")
        return once(evaluator, contour, xi, perturbed)

    monkeypatch.setattr(evans, "_winding_once", zero_first)
    rep = evans.winding_number(ev, contour, xi)
    assert [perturbed for _, perturbed in calls] == [False, True]
    assert calls[0][0] == contour
    assert rep.perturbed and rep.to_dict()["perturbed"] is True
    assert rep.contour == evans.Contour(
        kind="circle", radius=1e-2 * (1.0 + 1e-3), center=lam0)
    assert rep.winding == 1

    def always_zero(evaluator, contour, xi, perturbed):
        calls.append((contour, perturbed))
        raise evans.ZeroOnContour("D vanished on the contour")

    calls.clear()
    monkeypatch.setattr(evans, "_winding_once", always_zero)
    with pytest.raises(evans.ZeroOnContour):
        evans.winding_number(ev, contour, xi)
    assert [perturbed for _, perturbed in calls] == [False, True]


def test_winding_error_is_the_distance_to_the_integer(const_problem,
                                                      constant_state):
    # the report's winding_error recomputes from its own values: the
    # argument increments of D between closed-contour neighbours, summed,
    # over 2 pi, against the integer it rounds to
    p = constant_state.params
    xi = 0.23
    lam0 = max(oracles.constant_dispersion(p, p.tau0, xi)[0],
               key=lambda z: z.real)
    ev = evans.EvansEvaluator(const_problem)
    for center, winding in ((lam0, 1), (lam0 + 0.3 + 0.4j, 0)):
        rep = evans.winding_number(
            ev, evans.Contour(kind="circle", radius=1e-2, center=center), xi)
        vals = rep.values
        total = sum(cmath.phase(b.ratio(a))
                    for a, b in zip(vals, vals[1:] + vals[:1]))
        w = total / (2.0 * np.pi)
        assert rep.winding == winding
        assert rep.winding_error == abs(w - winding) < 0.25
        assert rep.to_dict()["winding_error"] == rep.winding_error


def test_origin_double_root(fig1c_problem):
    exp = evans.origin_taylor(evans.EvansEvaluator(fig1c_problem))
    c = exp.c
    assert max(abs(c[0, 0]), abs(c[1, 0]), abs(c[0, 1])) <= 1e-6 * abs(c[2, 0])
    assert exp.reality_error < 1e-6
    assert exp.representation_residual < 1e-4
    # alpha ordered by (Im, Re), and each beta stays with its alpha
    keys = [(a.imag, a.real) for a in exp.alpha]
    assert keys == sorted(keys)
    for a, b in zip(exp.alpha, exp.beta):
        want = -(c[3, 0] * a ** 3 + c[2, 1] * a ** 2 + c[1, 2] * a + c[0, 3]) \
            / (2.0 * c[2, 0] * a + c[1, 1])
        assert b == want


def test_origin_slopes_with_equal_imaginary_parts_order_by_real_part(
        f6_waves):
    # alpha = +-0.329 + 0.0582i on the F = 6, X = 7.83 wave: the imaginary
    # parts tie, so rounding may not choose the order
    ev = evans.EvansEvaluator(linearize.bloch_coeffs(f6_waves[7.83]))
    exp = evans.origin_taylor(ev)
    a0, a1 = exp.alpha
    assert abs(a0.imag - a1.imag) <= 1e-8 * max(abs(a0), abs(a1))
    assert a0.real < a1.real


def test_origin_taylor_past_the_double_range(fig1c_problem, monkeypatch):
    # every D scaled by e^1000, far past 1e308: alpha, beta and both checks
    # are ratios of the c[a, b], so only log_scale may move
    ev = evans.EvansEvaluator(fig1c_problem)
    base = evans.origin_taylor(ev)
    det_scaled = evans._det_scaled

    def huge(frame, rho):
        v = det_scaled(frame, rho)
        return evans.EvansValue(v.mantissa, v.exponent + 1000.0)

    monkeypatch.setattr(evans, "_det_scaled", huge)
    big = evans.origin_taylor(ev)
    assert big.log_scale > math.log(np.finfo(float).max)
    assert big.log_scale == pytest.approx(base.log_scale + 1000.0, abs=1e-9)
    for got, want in ((big.alpha, base.alpha), (big.beta, base.beta),
                      (big.c, base.c)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # both checks are relative errors already
    assert abs(big.reality_error - base.reality_error) <= 1e-12
    assert abs(big.representation_residual
               - base.representation_residual) <= 1e-12


def test_origin_taylor_reuses_winding_frames(fig1c_problem):
    # the Cauchy integrals run on the winding check's own circle nodes, so
    # the expansion adds only the held-out frame
    ev = evans.EvansEvaluator(fig1c_problem)
    exp = evans.origin_taylor(ev)
    rep = evans.winding_number(ev, evans.Contour("circle", exp.R), 0.0)
    assert rep.winding == 2
    assert ev.frames_computed == len(rep.lam) + 1


def test_origin_taylor_stops_at_a_circle_with_fewer_than_two_roots(
        monkeypatch):
    # the asymptotic seed (residual 7.6e-3) puts one root of D(., 0) inside
    # the first circle; a smaller circle cannot gain one, so one winding
    # check decides
    w0 = kdv_limit.asymptotic_rollwave(0.3, kdv_limit.k_of_period(20.0), 0.1,
                                       n=256)
    ev = evans.EvansEvaluator(linearize.bloch_coeffs(w0))
    radii = []
    winding_number = evans.winding_number

    def counting(evaluator, contour, xi):
        radii.append(contour.radius)
        return winding_number(evaluator, contour, xi)

    monkeypatch.setattr(evans, "winding_number", counting)
    with pytest.raises(evans.WrongRootCountAtR, match="is 1, expected 2"):
        evans.origin_taylor(ev)
    assert radii == [evans._origin_radius(w0.params.X)]


def _rippled(wave, eps):
    """`wave` with tau scaled by 1 + eps cos(2 pi x / X), as a hand-edited
    profile file would carry it."""
    x = fourier.grid(wave.n, wave.params.X)
    ripple = 1.0 + eps * np.cos(2.0 * np.pi * x / wave.params.X)
    return prof.WaveProfile(params=wave.params, tau=wave.tau * ripple)


def test_origin_taylor_refuses_a_double_root_off_the_origin(f6_waves):
    # a 1e-6 ripple on the stable F = 6 wave (residual 4.4e-6) moves the
    # double root of D off the origin, which an exact wave keeps there
    w = _rippled(f6_waves[8.78], 1e-6)
    ev = evans.EvansEvaluator(linearize.bloch_coeffs(w))
    with pytest.raises(evans.InaccurateExpansion,
                       match=r"^double root off the origin: .* of \|c20\|, "
                             r"above 1e-06$"):
        evans.origin_taylor(ev)


def test_contour_parse_roundtrip():
    c = evans.Contour.parse("semicircle:R=0.2")
    assert c.kind == "semicircle" and c.radius == 0.2
    c2 = evans.Contour.parse("circle:c=1+2j,r=0.01")
    assert c2.center == 1 + 2j and c2.radius == 0.01
    assert evans.Contour.parse(c2.describe()).center == c2.center
    c3 = evans.Contour("semicircle", 0.35)
    assert c3.describe() == "semicircle:R=0.35"
    assert evans.Contour.parse(c3.describe()) == c3
    with pytest.raises(DomainError):
        evans.Contour.parse("ellipse:a=1")


def test_evans_value_scaling():
    v = evans.EvansValue(mantissa=2.0 + 0.0j, exponent=3.0)
    w = evans.EvansValue(mantissa=1.0 + 0.0j, exponent=2.0)
    assert v.ratio(w) == pytest.approx(2.0 * np.e)
    # beyond the double range: an error, never a clamped value
    big = evans.EvansValue(1.0, 800.0)
    with pytest.raises(OverflowError):
        big.ratio(w)
    assert big.ratio(evans.EvansValue(1.0, 95.0)) == pytest.approx(
        np.exp(705.0))
    # a jump across the double range is infinite, in either direction
    assert evans._relative_jump(w, big) == math.inf
    assert evans._relative_jump(big, w) == math.inf


def test_calibrate_treats_an_overflowing_ratio_as_unconverged(
        const_problem, monkeypatch):
    # the second probe values sit 800 e-folds from the first: their ratio
    # overflows, so only the third pass (equal to the second) converges
    exponents = iter([0.0, 800.0, 800.0])
    passes = []

    def det_scaled(frame, rho):
        if not passes or passes[-1][1] == 2:
            passes.append([next(exponents), 0])
        passes[-1][1] += 1
        return evans.EvansValue(1.0, passes[-1][0])

    monkeypatch.setattr(evans, "_det_scaled", det_scaled)
    evans.EvansEvaluator(const_problem)
    assert len(passes) == 3


def test_shared_frames_across_xi(fig1c_problem):
    ev = evans.EvansEvaluator(fig1c_problem)
    lam = 0.15
    ev.value(lam, 0.1)
    n1 = ev.frames_computed
    ev.value(lam, 0.2)
    ev.value(lam, -0.1)
    assert ev.frames_computed == n1


def test_verdict_on_constant_state(constant_state):
    v = evans.verdict(constant_state)
    assert v.overall == "unstable"
    assert v.to_dict()["overall"] == "unstable"
    # the Hill scan stops at its first unstable row: k = 0 (xi = -pi/X),
    # then xi > 0 ascending, at the rule's N (the floor, 16, for constant
    # coefficients) and n_xi = 48; that row is re-solved at 3N/2 = 24
    sp = linearize.bloch_coeffs(constant_state)
    X = sp.period
    N = hill._truncation_size(sp)
    grid = hill.default_xi_grid(X, 48)
    r0 = 2.0 * 1e-2 * (2.0 * np.pi / X)

    def row(n_modes, xi):
        lam = hill.eigenvalues(sp, n_modes, xi)
        return float(np.max(lam[np.abs(lam) > r0].real))

    rows = []
    for xi in [grid[0], *grid[grid > 0]]:
        rows.append(row(N, xi))
        if rows[-1] > hill._GROWTH_TOL:
            break
    assert v.diagnostics["hill_N"] == N == 16
    assert v.diagnostics["hill_eigensolves"] == len(rows) + 1
    assert v.diagnostics["hill_max_real"] == max(rows) > hill._GROWTH_TOL
    assert v.diagnostics["hill_check"] == row(3 * N // 2, xi)


def test_verdict_unresolved_hill_truncation_is_indeterminate(constant_state,
                                                             monkeypatch):
    # a deciding row whose mu moves by 1/(3N) relative between N and 3N/2
    # fails every check: the scan goes 16, 24, 36, 54, 81, and the check at
    # 121 would rescan past the cap of 120, so the verdict gives up before
    # any Evans evaluator is built
    solved = []

    def drifting(problem, N, xi):
        solved.append(N)
        return np.array([-1.0 - 1.0 / N + 0.5j])

    monkeypatch.setattr(hill, "eigenvalues", drifting)
    v = evans.verdict(constant_state)
    assert v.overall == "indeterminate"
    assert v.reason == (
        f"Hill truncation unresolved: max Re lambda {-1.0 - 1.0 / 81:.6e} "
        f"at N = 81 against {-1.0 - 1.0 / 121:.6e} at N = 121 "
        f"(xi = {hill.default_xi_grid(2.0 * np.pi, 48)[0]:.6g}), and "
        f"N = 121 passes the cap 120")
    assert v.diagnostics["hill_N"] == 81
    assert v.diagnostics["hill_check"] == -1.0 - 1.0 / 121
    assert v.diagnostics["hill_eigensolves"] == len(solved) == 5 * (24 + 1)
    assert sorted(set(solved)) == [16, 24, 36, 54, 81, 121]
    assert "evans_cap" not in v.diagnostics
    assert [v.conditions[c] for c in ("D1", "D2", "D3", "H1")] == [None] * 4


def test_hill_stage_on_the_f10_x50_wave(f10_x50_wave):
    # the tail of this long wave reaches the Nyquist mode, so the scan
    # starts at the cap; its answer is either checked at N <= 120 or
    # unresolved, with a reason naming both N, and needs no Evans evaluator
    sp = linearize.bloch_coeffs(f10_x50_wave)
    scan = hill.checked_scan(sp, evans._HILL_XI,
                             2.0 * evans._origin_radius(sp.period))
    assert scan.N == hill._truncation_size(sp) == 120
    if scan.reason is None:
        assert abs(scan.mu - scan.check) <= 1e-3 * abs(scan.mu)
        assert (scan.mu > hill._GROWTH_TOL) == (scan.check > hill._GROWTH_TOL)
    else:
        assert scan.reason.startswith("Hill truncation unresolved")
        assert "N = 120" in scan.reason and "N = 180" in scan.reason


def _no_hill_instability(problem, n_xi, r0):
    """A checked Hill scan that finds nothing unstable."""
    return hill.HillScan(mu=0.0, N=16, check=0.0, solves=0)


def test_verdict_origin_overflow_is_indeterminate(constant_state, monkeypatch):
    # an origin expansion past the double range makes the verdict
    # indeterminate with its reason, and the frames' Liouville check shows
    def overflow(evaluator, R=None):
        evaluator.frame(0.01)
        evans.EvansValue(1.0, 800.0).ratio(evans.EvansValue(1.0, 0.0))

    monkeypatch.setattr(evans, "checked_scan", _no_hill_instability)
    monkeypatch.setattr(evans, "origin_taylor", overflow)
    v = evans.verdict(constant_state)
    assert v.overall == "indeterminate"
    assert v.reason.startswith("Evans failure: OverflowError: ")
    assert 0.0 < v.diagnostics["liouville_max"] < 1e-8


def test_verdict_untrusted_frame_is_indeterminate(constant_state,
                                                  monkeypatch):
    # an origin expansion that reads unstable, built on a frame whose
    # Liouville error is past the bound, is no answer
    def untrusted(evaluator, R=None):
        fr = evaluator.frame(0.01)
        evaluator._frames[fr.lam] = dataclasses.replace(fr,
                                                        liouville_error=1e-3)
        evaluator.frame(0.01)
        return evans.OriginExpansion(
            c=np.zeros((4, 4), dtype=complex), alpha=np.array([0.1j, 0.2j]),
            beta=np.array([0.5, -0.5]), R=R, reality_error=0.0,
            representation_residual=0.0)

    monkeypatch.setattr(evans, "checked_scan", _no_hill_instability)
    monkeypatch.setattr(evans, "origin_taylor", untrusted)
    v = evans.verdict(constant_state)
    assert v.overall == "indeterminate"
    assert v.reason.startswith(
        "Evans failure: UntrustedFrames: Liouville check failed")
    assert v.diagnostics["liouville_max"] == 1e-3


def test_untrusted_cached_frame_refuses_every_read(const_problem):
    # a cached frame past the Liouville bound is refused by frames(),
    # value() and polish_root alike, and stays counted in liouville_max
    ev = evans.EvansEvaluator(const_problem)
    lam = 0.3 + 0.1j
    fr = ev.frame(lam)
    ev._frames[lam] = dataclasses.replace(fr, liouville_error=2e-6)
    want = "Liouville check failed: worst frame error 2.000e-06"
    with pytest.raises(evans.UntrustedFrames, match=want):
        ev.frames([0.5, lam])
    assert ev.liouville_max == 2e-6
    with pytest.raises(evans.UntrustedFrames, match=want):
        ev.value(lam, 0.1)
    with pytest.raises(evans.UntrustedFrames, match=want):
        evans.polish_root(ev, lam, 0.1)
    assert ev.frames([0.5])[0].liouville_error <= evans._LIOUVILLE_TOL


def test_inaccurate_origin_expansion_is_refused(fig1c_problem, constant_state,
                                               monkeypatch):
    # Taylor coefficients 1 % off miss the held-out sample: origin_taylor
    # raises, and the verdict reads that as a failed Evans check
    ev = evans.EvansEvaluator(fig1c_problem)
    taylor_circle = evans._taylor_circle
    monkeypatch.setattr(evans, "_taylor_circle",
                        lambda vals, R: 1.01 * taylor_circle(vals, R))
    with pytest.raises(evans.InaccurateExpansion) as info:
        evans.origin_taylor(ev)

    def inaccurate(evaluator, R=None):
        raise info.value

    monkeypatch.setattr(evans, "checked_scan", _no_hill_instability)
    monkeypatch.setattr(evans, "origin_taylor", inaccurate)
    v = evans.verdict(constant_state)
    assert v.overall == "indeterminate"
    assert v.reason == f"Evans failure: InaccurateExpansion: {info.value}"
    assert str(info.value).startswith("representation residual")


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
def test_verdict_refuses_a_wave_its_solver_would_not_return(f6_waves, eps):
    # residuals 4.4e-6 and 4.4e-4 on 512 nodes, where the solver accepts
    # 4e-8: no stage runs, and no condition is set
    w = _rippled(f6_waves[8.78], eps)
    v = evans.verdict(w)
    assert v.overall == "indeterminate"
    assert v.reason == (f"wave not converged: residual "
                        f"{w.residual_norm:.3e} above 4.0e-08, the bound its "
                        f"solver accepts on n = 512 nodes")
    assert set(v.conditions.values()) == {None} and v.diagnostics == {}


def test_verdict_reads_an_off_origin_double_root_as_indeterminate(
        f6_waves, monkeypatch):
    # with no residual bound, the 1e-6 ripple reaches the origin
    # expansion, whose double-root check refuses it: a failed check, not
    # an unstable wave
    monkeypatch.setattr(prof.WaveProfile, "residual_bound", math.inf)
    v = evans.verdict(_rippled(f6_waves[8.78], 1e-6))
    assert v.overall == "indeterminate" and v.witness is None
    assert v.reason.startswith("Evans failure: InaccurateExpansion: double "
                               "root off the origin: ")
    assert v.conditions["D3"] is None


def test_verdict_zero_on_a_winding_contour_is_indeterminate(constant_state,
                                                            monkeypatch):
    # a winding check that lands on a root of D is no answer: the verdict
    # is indeterminate with the error in its reason, not a raised error
    # that a sweep would file as failed
    def zero(evaluator, contour, xi):
        raise evans.ZeroOnContour("D vanished on the contour at xi=0.1")

    monkeypatch.setattr(evans, "winding_number", zero)
    v = _verdict_on_expansion(constant_state, monkeypatch,
                              [0.1j, 0.2j], [-0.5, -0.5])
    assert v.overall == "indeterminate"
    assert v.reason == ("Evans failure: ZeroOnContour: D vanished on the "
                        "contour at xi=0.1")
    assert v.conditions["D2"] is True and v.conditions["D1"] is None
    assert "windings" not in v.diagnostics
    assert "liouville_max" in v.diagnostics


def test_verdict_failed_calibration_is_indeterminate(constant_state,
                                                     monkeypatch):
    # an Evans step grid that cannot be calibrated is no answer either; the
    # verdict stops before any Evans diagnostic is set
    def underflow(self):
        raise evans.StepSizeUnderflow(
            "monodromy failed to converge while refining the step grid")

    monkeypatch.setattr(evans, "checked_scan", _no_hill_instability)
    monkeypatch.setattr(evans.EvansEvaluator, "_calibrate", underflow)
    v = evans.verdict(constant_state)
    assert v.overall == "indeterminate"
    assert v.reason == ("Evans failure: StepSizeUnderflow: monodromy failed "
                        "to converge while refining the step grid")
    assert "evans_cap" not in v.diagnostics
    assert "liouville_max" not in v.diagnostics
    assert [v.conditions[c] for c in ("D1", "D2", "D3", "H1")] == [None] * 4


def test_verdict_reports_evans_counters(constant_state, monkeypatch):
    # past the Hill scan and a stable-looking origin expansion, the verdict
    # reports the Evans cap and steps per frame and the windings' refinement
    # rounds and largest jump, as a fresh evaluator computes them
    def stable(evaluator, R=None):
        return evans.OriginExpansion(
            c=np.zeros((4, 4), dtype=complex), alpha=np.array([0.1j, 0.2j]),
            beta=np.array([-0.5, -0.5]), R=R, reality_error=0.0,
            representation_residual=0.0)

    monkeypatch.setattr(evans, "checked_scan", _no_hill_instability)
    monkeypatch.setattr(evans, "origin_taylor", stable)
    v = evans.verdict(constant_state)
    sp = linearize.bloch_coeffs(constant_state)
    ev = evans.EvansEvaluator(sp)
    xis = np.pi / sp.period * np.linspace(0.1, 1.0, evans._N_XI_WINDING)
    contour = evans.Contour("semicircle", 0.2)
    reports = [evans.winding_number(ev, contour, float(x)) for x in xis]
    assert v.diagnostics["windings"] == [rep.winding for rep in reports]
    assert v.diagnostics["frames_computed"] == ev.frames_computed
    assert v.diagnostics["evans_cap"] == ev.cap
    assert v.diagnostics["evans_steps_per_frame"] == ev.frame(
        reports[0].lam[0]).n_steps
    assert v.diagnostics["winding_refinements"] == sum(
        rep.refinements for rep in reports) > 0
    assert v.diagnostics["winding_max_jump"] == max(
        rep.max_jump for rep in reports)
    assert v.diagnostics["winding_max_error"] == max(
        rep.winding_error for rep in reports)


def _verdict_on_expansion(wave, monkeypatch, alpha, beta):
    """The verdict on `wave` past a Hill scan that finds nothing, with the
    origin expansion stubbed to the given alpha and beta."""
    def stub(evaluator, R=None):
        return evans.OriginExpansion(
            c=np.zeros((4, 4), dtype=complex), alpha=np.array(alpha),
            beta=np.array(beta), R=R, reality_error=0.0,
            representation_residual=0.0)

    monkeypatch.setattr(evans, "checked_scan", _no_hill_instability)
    monkeypatch.setattr(evans, "origin_taylor", stub)
    return evans.verdict(wave)


def test_verdict_near_coincident_slopes_are_indeterminate(constant_state,
                                                         monkeypatch):
    # |alpha1 - alpha2| = 1e-6 < 1e-4 max|alpha|: H1 is undecided, and the
    # verdict answers before it sets D1-D3
    v = _verdict_on_expansion(constant_state, monkeypatch,
                              [0.1j, 0.1j * (1.0 + 1e-5)], [-0.5, -0.5])
    assert v.overall == "indeterminate"
    assert v.reason == ("near-coincident origin slopes: |alpha1 - alpha2| "
                        "= 1.000e-06 < 0.0001 * 1.000e-01")
    assert v.witness is None
    assert [v.conditions[k] for k in ("D1", "D2", "D3", "H1")] == [None] * 4


def test_verdict_off_axis_slope_pair_fails_d2(constant_state, monkeypatch):
    # alpha = +-7e-6 + 0.1i: each |Re alpha| is within 1e-4 |alpha|, but
    # (alpha1 - alpha2)^2 = 1.96e-10 > 0 puts the pair off the imaginary
    # axis, whatever beta says
    v = _verdict_on_expansion(constant_state, monkeypatch,
                              [-7e-6 + 0.1j, 7e-6 + 0.1j], [-0.5, -0.5])
    assert v.overall == "unstable"
    assert v.witness.startswith("origin expansion: alpha = ")
    assert v.conditions["D2"] is False
    assert v.conditions["H1"] is True


@pytest.mark.parametrize("beta, text", [([0.5, -0.5], "witness"),
                                        ([1e-9, -0.5], "reason")])
def test_verdict_prints_plain_floats(constant_state, monkeypatch, beta, text):
    # Re beta reaches the origin witness and the margin reason as plain
    # floats, never as numpy 2's np.float64(...) repr
    v = _verdict_on_expansion(constant_state, monkeypatch,
                              [0.1j, 0.2j], beta)
    printed = getattr(v, text)
    assert f"Re beta = [{beta[0]!r}, -0.5]" in printed
    assert "np.float64" not in printed


def test_polish_root_past_the_double_range_raises():
    # a Mueller step whose |D| is beyond the double range relative to the
    # seeds is no root estimate; it raises rather than continuing clamped
    class Stub:
        X = 2.0 * np.pi
        calls = 0

        def frames(self, zs):
            pass

        def value(self, z, xi):
            Stub.calls += 1
            if Stub.calls <= 3:
                return evans.EvansValue(z - 0.5, 0.0)
            return evans.EvansValue(1.0, 800.0)

    with pytest.raises(evans.NoConvergence, match="double range"):
        evans.polish_root(Stub(), 0.3, 0.1)
