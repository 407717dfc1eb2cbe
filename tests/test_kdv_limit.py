"""Weakly unstable limit: selected cnoidal waves and the KdV-KS spectrum."""

import numpy as np
import pytest

from rollwave import fourier, kdv_limit
from rollwave.elliptic import elliptic_E, elliptic_K, jacobi_cn
from rollwave.model import DomainError


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


def test_selection_residual_vanishes_at_selected_kappa():
    for k in (0.3, 0.7, 0.95):
        wave = kdv_limit.cnoidal_profile(k, n=512)
        scale = fourier.quad(wave.T0 ** 2, wave.X)
        assert abs(kdv_limit.selection_residual(wave)) < 1e-8 * scale


def test_selection_residual_nonzero_off_selection():
    # Perturbing kappa away from G(k) breaks the persistence integral.
    k = 0.7
    wave = kdv_limit.cnoidal_profile(k, n=512)
    kappa = 1.1 * wave.kappa
    X = 2.0 * elliptic_K(k) / kappa
    theta = fourier.grid(wave.n, X)
    T0 = 12.0 * k * k * kappa * kappa * jacobi_cn(
        kappa * theta, k) ** 2
    off = kdv_limit.CnoidalWave(k=k, kappa=kappa, sigma0=wave.sigma0,
                                qtilde=wave.qtilde, X=X, n=wave.n, T0=T0)
    scale = fourier.quad(off.T0 ** 2, off.X)
    assert abs(kdv_limit.selection_residual(off)) > 1e-4 * scale


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


def test_kdvks_translation_mode_near_zero():
    # the derivative of the wave is a xi -> 0 kernel mode; the smallest
    # eigenvalue at the smallest xi must sit near the origin
    cloud = kdv_limit.kdvks_spectrum(0.05, 17.0)
    row = np.argmin(np.abs(cloud.xi))
    assert np.min(np.abs(cloud.eigs[row])) < 1e-2


def test_kdvks_stable_band_midpoint(hill_solves):
    # a classification solves rows only until one is unstable: X = 17 needs
    # all 48, whose |xi| are j pi/(48 X), j = 1..48 (xi = -pi/X stands in
    # for pi/X); X = 7 is decided by its second row, as -pi/X is stable
    X = kdv_limit.period_of_k(kdv_limit.k_of_period(17.0))
    assert kdv_limit.kdvks_stable(0.05, 17.0)
    assert len(hill_solves) == 48
    np.testing.assert_allclose(np.sort(np.abs(hill_solves)),
                               np.linspace(np.pi / (48 * X), np.pi / X, 48),
                               rtol=1e-14, atol=0.0)
    hill_solves.clear()
    assert not kdv_limit.kdvks_stable(0.05, 7.0)
    assert len(hill_solves) == 2
