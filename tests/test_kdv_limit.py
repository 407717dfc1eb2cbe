"""Weakly unstable limit: selected cnoidal waves and the KdV-KS spectrum."""

import math

import numpy as np
import pytest

from rollwave import fourier, hill, kdv_limit
from rollwave.elliptic import elliptic_E, elliptic_K, jacobi_cn
from rollwave.model import DomainError, TruncationUnresolved

import oracles


def test_period_of_k_small_k_limit():
    # X(k) -> 2 pi as k -> 0
    assert kdv_limit.period_of_k(0.01) == pytest.approx(2.0 * np.pi, abs=1e-3)


def test_period_of_k_monotone():
    ks = [0.1, 0.4, 0.7, 0.9, 0.99, 0.9999]
    Xs = [kdv_limit.period_of_k(k) for k in ks]
    assert all(b > a for a, b in zip(Xs, Xs[1:]))


@pytest.mark.parametrize("X", [6.5, 10.0, 17.0, 26.0, 48.0])
def test_k_of_period_inverts_period_of_k(X):
    k = kdv_limit.k_of_period(X)
    assert 0.0 < k < 1.0
    # beyond X ~ 45 the inversion is limited by the spacing of double k
    # near k = 1 (dX ~ 1e-5 per ulp of k)
    assert kdv_limit.period_of_k(k) == pytest.approx(X, rel=1e-6)


def test_k_of_period_domain():
    with pytest.raises(DomainError):
        kdv_limit.k_of_period(6.0)  # below the 2 pi onset


def test_k_of_period_refuses_a_nan_period():
    with pytest.raises(DomainError, match="X > 2\\*pi"):
        kdv_limit.k_of_period(math.nan)


def test_selection_residual_vanishes_at_selected_kappa():
    for k in (0.3, 0.7, 0.95):
        wave = kdv_limit.cnoidal_profile(k, n=512)
        scale = fourier.quad(wave.T0 ** 2, wave.X)
        assert abs(oracles.selection_residual(wave)) < 1e-8 * scale


def _off_selection_wave():
    """The k = 0.7 cnoidal wave with kappa = 1.1 G(k)."""
    k = 0.7
    wave = kdv_limit.cnoidal_profile(k, n=512)
    kappa = 1.1 * wave.kappa
    X = 2.0 * elliptic_K(k) / kappa
    theta = fourier.grid(wave.n, X)
    T0 = 12.0 * k * k * kappa * kappa * jacobi_cn(
        kappa * theta, k) ** 2
    return kdv_limit.CnoidalWave(k=k, kappa=kappa, sigma0=wave.sigma0,
                                 qtilde=wave.qtilde, X=X, T0=T0)


def test_selection_residual_nonzero_off_selection():
    # Perturbing kappa away from G(k) breaks the persistence integral.
    off = _off_selection_wave()
    scale = fourier.quad(off.T0 ** 2, off.X)
    assert abs(oracles.selection_residual(off)) > 1e-4 * scale


def test_corrector_T1_raises_off_selection():
    # the bordered solve's Fredholm multiplier is far from zero there
    with pytest.raises(kdv_limit.SolvabilityError,
                       match="multiplier residual"):
        kdv_limit.corrector_T1(_off_selection_wave())


@pytest.mark.parametrize("k", [0.3, 0.9, kdv_limit.k_of_period(45.0)])
def test_corrector_T1_is_solvable_on_selection(k):
    T1 = kdv_limit.corrector_T1(kdv_limit.cnoidal_profile(k, n=512))
    assert np.all(np.isfinite(T1)) and np.max(np.abs(T1)) > 0.0


def test_cnoidal_profile_mean_and_speed_identities():
    # mean(T0) relates to sigma0 through the cnoidal mean-value identity;
    # check the quadrature mean against the closed forms used downstream.
    k = 0.8
    wave = kdv_limit.cnoidal_profile(k, n=512)
    mean = fourier.quad(wave.T0, wave.X) / wave.X
    E = elliptic_E(k)
    K = elliptic_K(k)
    mean_exact = 12.0 * wave.kappa ** 2 * (E / K - (1.0 - k * k))
    assert mean == pytest.approx(mean_exact, rel=1e-12)


def test_corrector_T1_is_odd_and_consistent():
    wave = kdv_limit.cnoidal_profile(0.9, n=512)
    T1 = kdv_limit.corrector_T1(wave)
    # crest at theta = 0: odd corrector means T1(-x) = -T1(x), i.e.
    # T1[j] = -T1[n - j] on the periodic grid
    flip = -np.roll(T1[::-1], 1)
    assert np.max(np.abs(T1 - flip)) < 1e-6 * np.max(np.abs(T1))


def test_asymptotic_rollwave_residual_scales_like_delta4():
    k = kdv_limit.k_of_period(12.0)
    r = []
    for delta in (0.2, 0.1):
        w = kdv_limit.asymptotic_rollwave(delta, k, 0.1, n=256)
        r.append(w.residual_norm)
    # halving delta should shrink the residual by about 2^4 = 16
    assert r[1] < r[0] / 8.0


def test_asymptotic_rollwave_parameters():
    k = kdv_limit.k_of_period(12.0)
    w = kdv_limit.asymptotic_rollwave(0.15, k, 0.1)
    assert w.params.F == pytest.approx(2.0 + 0.15 ** 2)
    assert w.params.X == pytest.approx(np.sqrt(0.1) * 12.0 / 0.15)
    assert np.ptp(w.tau) > 0.0
    with pytest.raises(DomainError):
        kdv_limit.asymptotic_rollwave(-0.1, k, 0.1)


def test_kdvks_wave_converges():
    wave, T, sigma = kdv_limit.kdvks_wave(0.05, kdv_limit.k_of_period(17.0))
    res = (fourier.deriv(0.5 * T * T - sigma * T, wave.X)
           + fourier.deriv(T, wave.X, 3)
           + 0.05 * (fourier.deriv(T, wave.X, 2)
                     + fourier.deriv(T, wave.X, 4)))
    # rounding in the fourth derivative sets the attainable floor,
    # ~ eps (2 pi n / X)^4 ~ 1e-5 at n = 512, X = 17
    assert np.max(np.abs(res)) < 1e-4 * max(1.0, np.max(np.abs(T)))


@pytest.mark.parametrize("X", [7.0, 17.0, 30.0])
def test_kdvks_wave_pins_the_galilean_shift(X, monkeypatch):
    # with the mean of T pinned, the bordered Jacobian at the converged wave
    # has no kernel, Newton reaches the once-integrated equation's rounding
    # level, and the mean is the seed's
    delta = 0.05
    jacobians = []
    newton = kdv_limit._newton_solve

    def final_jacobian(residual, jacobian, x, tol, admissible):
        x, err = newton(residual, jacobian, x, tol, admissible)
        jacobians.append(jacobian(x))
        return x, err

    monkeypatch.setattr(kdv_limit, "_newton_solve", final_jacobian)
    wave, T, sigma = kdv_limit.kdvks_wave(delta, kdv_limit.k_of_period(X))
    assert np.linalg.cond(jacobians[0]) < 1e10
    res = (0.5 * T * T - sigma * T + fourier.deriv(T, wave.X, 2)
           + delta * (fourier.deriv(T, wave.X) + fourier.deriv(T, wave.X, 3)))
    assert (np.max(np.abs(res - np.mean(res)))
            <= 1e-9 * max(1.0, np.max(np.abs(T))))
    seed = wave.T0 + delta * kdv_limit.corrector_T1(wave)
    assert abs(np.mean(T) - np.mean(seed)) <= 1e-12


def test_kdvks_stable_rejects_nonpositive_delta(hill_solves):
    # delta is the KdV-KS dissipation; without it there is no wave to scan
    with pytest.raises(DomainError, match="delta must be finite and positive"):
        kdv_limit.kdvks_stable(0.0, 10.0)
    assert hill_solves == []


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_kdvks_stable_refuses_a_non_finite_delta(hill_solves, delta):
    with pytest.raises(DomainError, match="delta must be finite and positive"):
        kdv_limit.kdvks_stable(delta, 17.0)
    assert hill_solves == []


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_asymptotic_rollwave_refuses_a_delta_that_is_not_finite_and_positive(
        delta):
    with pytest.raises(DomainError, match="delta must be finite and positive"):
        kdv_limit.asymptotic_rollwave(delta, kdv_limit.k_of_period(12.0), 0.1)


def test_kdvks_translation_mode_near_zero():
    # the derivative of the wave is a xi -> 0 kernel mode; the smallest
    # eigenvalue at the smallest xi must sit near the origin
    cloud = kdv_limit.kdvks_spectrum(0.05, 17.0)
    row = np.argmin(np.abs(cloud.xi))
    assert np.min(np.abs(cloud.eigs[row])) < 1e-2


def test_kdvks_stable_band_midpoint(hill_solves):
    # a classification solves rows only until one is unstable, then
    # re-solves the deciding row at 3N/2.  X = 17 starts at N = 16, which
    # misreads its first xi > 0 row (its second row) as unstable; the check
    # of that row at 24 disagrees, so all 48 rows are scanned at N = 24 and
    # checked at 36: 2 + 1 + 48 + 1 solves.  The |xi| of the final scan are
    # j pi/(48 X), j = 1..48 (xi = -pi/X stands in for pi/X).  X = 7 is
    # decided at N = 16 by its second row, as -pi/X is stable, and one check
    X = kdv_limit.period_of_k(kdv_limit.k_of_period(17.0))
    assert kdv_limit.kdvks_stable(0.05, 17.0)
    assert len(hill_solves) == 52
    np.testing.assert_allclose(np.sort(np.abs(hill_solves[3:51])),
                               np.linspace(np.pi / (48 * X), np.pi / X, 48),
                               rtol=1e-14, atol=0.0)
    hill_solves.clear()
    assert not kdv_limit.kdvks_stable(0.05, 7.0)
    assert len(hill_solves) == 3


def test_kdvks_rescan_reuses_the_truncation_its_check_built(monkeypatch):
    # at X = 17 the first N = 16 fails its check at 24, and the rescan at
    # 24 is accepted by its check at 36: one truncation per N
    built = []
    direct = hill.truncate

    def counting(problem, N):
        if not isinstance(problem, hill.Truncation):
            built.append(N)
        return direct(problem, N)

    problem = kdv_limit._kdvks_problem(0.05, 17.0)
    monkeypatch.setattr(hill, "truncate", counting)
    assert hill.checked_scan(problem, kdv_limit._KDVKS_XI, 0.0).N == 24
    assert built == [16, 24, 36]


def test_kdvks_scan_accepts_a_growth_rate_at_the_noise_floor():
    # at X = 24 the first N = 20 reads a spurious 7.4e-6 on its first row,
    # which the check at N = 30 corrects; at N = 30 the stable mu is the
    # xi -> 0 tangency, ~1e-10, and agrees with its check to well under
    # 1e-3 * hill._GROWTH_TOL though not to 1e-3 of itself
    tol = hill._GROWTH_TOL
    problem = kdv_limit._kdvks_problem(0.05, 24.0)
    assert hill._truncation_size(problem) == 20
    scan = hill.checked_scan(problem, kdv_limit._KDVKS_XI, 0.0)
    assert scan.reason is None
    assert (scan.N, scan.solves) == (30, 2 + 49)
    assert abs(scan.mu) < 1e-9 and abs(scan.check) < 1e-9
    assert 1e-3 * abs(scan.mu) < abs(scan.mu - scan.check) <= 1e-3 * tol


def test_kdvks_unresolved_truncation_has_no_class(monkeypatch):
    # a deciding row whose mu moves by 1/(3N) relative between N and 3N/2
    # fails every check: the scan goes 16, 24, 36, 54, 81 and gives up
    # before the check at 121 would pass the cap of 120
    monkeypatch.setattr(hill, "eigenvalues",
                        lambda problem, N, xi: np.array([-1.0 - 1.0 / N]))
    with pytest.raises(TruncationUnresolved,
                       match=r"at N = 81 .* at N = 121 .* cap 120"):
        kdv_limit.kdvks_stable(0.05, 17.0)
