"""Hill's method against the closed-form constant-state dispersion."""

import io

import numpy as np
import pytest

from rollwave import evans, hill, linearize
from rollwave import profile as prof
from rollwave.model import DomainError


def _folded_dispersion(params, tau0, xi, X, N):
    eta = xi + 2.0 * np.pi * np.arange(-N, N + 1) / X
    return linearize.constant_dispersion(params, tau0, eta).ravel()


def test_constant_state_matches_dispersion(constant_state):
    # 41 modes: truncation is exact for constant coefficients, so each Hill
    # eigenvalue must coincide with a folded dispersion root to 1e-10
    w = constant_state
    sp = linearize.bloch_coeffs(w)
    N = 20
    X = w.params.X
    for xi in (0.11, -0.37, np.pi / X):
        got = hill.eigenvalues(sp, N, xi)
        want = _folded_dispersion(w.params, w.params.tau0, xi, X, N)
        assert len(got) == len(want)
        err = np.abs(got[:, None] - want[None, :]).min(axis=1)
        assert np.max(err) < 1e-10


def test_conjugation_symmetry(fig1c_wave):
    sp = linearize.bloch_coeffs(fig1c_wave)
    for xi in (0.05, 0.11):
        plus = np.sort_complex(hill.eigenvalues(sp, 24, xi))
        minus = np.sort_complex(np.conj(hill.eigenvalues(sp, 24, -xi)))
        assert np.max(np.abs(plus - minus)) < 1e-10


def test_default_xi_grid_excludes_zero(fig1c_wave):
    X = fig1c_wave.params.X
    grid = hill.default_xi_grid(X, n_xi=16)
    assert np.all(np.abs(grid) > 1e-14)
    assert np.max(np.abs(grid)) <= np.pi / X + 1e-15


def test_spectrum_returns_cloud_and_csv_roundtrip(constant_state):
    sp = linearize.bloch_coeffs(constant_state)
    cloud = hill.spectrum(sp, N=8, n_xi=6)
    rows = np.loadtxt(io.StringIO(cloud.to_csv()), delimiter=",", skiprows=1)
    want = np.array([(x, ev.real, ev.imag)
                     for x, evs in zip(cloud.xi, cloud.eigs) for ev in evs])
    assert np.array_equal(rows, want)


def test_ham_limit_excludes_zero_floquet():
    orbit = prof.ham_orbit(0.5, n=256)
    sp = linearize.ham_limit_operator(orbit)
    with pytest.raises(DomainError):
        hill.eigenvalues(sp, 16, 0.0)
    lam = hill.eigenvalues(sp, 16, 0.3 * np.pi / orbit.X_mu)
    assert np.all(np.isfinite(lam))


def test_double_period_robustness(constant_state):
    sp = linearize.bloch_coeffs(constant_state)
    cloud = hill.spectrum(sp, N=10, n_xi=8)
    m1 = hill.max_unstable(cloud, r0=1e-6)
    sp2 = hill.double_period(sp)
    cloud2 = hill.spectrum(sp2, N=20, n_xi=8)
    m2 = hill.max_unstable(cloud2, r0=1e-6)
    # constant state at F = 3 > 2 is side-band unstable; growth rate must be
    # reproduced on the doubled period
    assert m1 > 0.0
    assert m2 == pytest.approx(m1, rel=0.05, abs=1e-6)


def test_double_period_has_no_evans_form(constant_state):
    # the first-order form is not tiled, so the doubled problem is Hill-only
    sp2 = hill.double_period(linearize.bloch_coeffs(constant_state))
    assert sp2.first_order is None
    with pytest.raises(DomainError):
        evans.EvansEvaluator(sp2)


def test_max_unstable_excludes_origin_ball(constant_state):
    sp = linearize.bloch_coeffs(constant_state)
    cloud = hill.spectrum(sp, N=8, n_xi=4)
    big = hill.max_unstable(cloud, r0=1e3)
    assert big <= 0.0
