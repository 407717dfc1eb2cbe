"""Traveling-wave profile solvers: Newton, continuation, and scaling limits."""

import numpy as np
import pytest

from rollwave import fourier
from rollwave import profile as prof
from rollwave.model import DomainError, PhysicalParams


def test_equilibrium_is_exact_solution(constant_state):
    w = constant_state
    assert w.residual_norm < 1e-13
    assert w.params.c == pytest.approx(w.params.tau0 ** -1.5 / w.params.F)
    assert np.all(w.tau == w.params.tau0)


def test_solve_profile_from_asymptotic_seed():
    from rollwave import kdv_limit
    k = kdv_limit.k_of_period(12.0)
    w0 = kdv_limit.asymptotic_rollwave(0.1, k, 0.1, n=128)
    w = prof.solve_profile(w0.params, w0.tau, tol=1e-10)
    assert w.residual_norm <= 1e-10
    assert np.ptp(w.tau) > 0.5 * np.ptp(w0.tau)
    # converged wave stays O(delta^4) from the two-term prediction
    # (constant ~ 35 measured; delta = 0.1 gives ~3.5e-3)
    assert np.max(np.abs(w.tau - w0.tau)) < 1e-2


def test_solve_profile_input_validation():
    p = PhysicalParams(F=3.0, nu=0.1, q=1.0, c=0.3, X=10.0)
    with pytest.raises(DomainError):
        prof.solve_profile(p, -np.ones(32))


def test_continue_profile_rejects_unknown_parameter(constant_state):
    with pytest.raises(DomainError):
        prof.continue_profile(constant_state, tau0=2.0)


def test_fig1c_wave_regression(fig1c_wave):
    w = fig1c_wave
    assert w.residual_norm <= 1e-8
    assert w.params.F == pytest.approx(6.0 ** 0.5)
    assert w.params.q == pytest.approx(1.5745)
    assert w.params.X == pytest.approx(17.15)
    assert np.ptp(w.tau) > 0.1
    assert np.min(w.tau) > 0.0


def test_wave_profile_json_roundtrip(fig1c_wave):
    w2 = prof.WaveProfile.from_json(fig1c_wave.to_json())
    assert w2.params == fig1c_wave.params
    assert np.array_equal(w2.tau, fig1c_wave.tau)
    assert w2.residual_norm == fig1c_wave.residual_norm


def test_profile_from_limit_family_parameters(f6_waves):
    for X, w in f6_waves.items():
        assert w.params.F == 6.0
        assert w.params.q == pytest.approx(0.4 * 6.0)
        assert w.params.X == pytest.approx(X)
        assert w.residual_norm <= 1e-8
        assert np.ptp(w.tau) > 0.01


def test_limit_profile_alpha_m2_basic():
    lp = prof.limit_profile_alpha_m2(0.4, 0.3, n=512)
    assert lp.residual_norm <= 1e-8
    assert np.all(lp.a > 0.0)
    assert np.ptp(lp.a) > 0.0
    assert np.max(np.abs(lp.da - fourier.deriv(lp.a, lp.X0))) < 1e-6
    # mean outflow constraint of the scaled family
    assert fourier.quad(1.0 / lp.a, lp.X0) / lp.X0 > 0.0


def test_ham_orbit_energy_invariant():
    orbit = prof.ham_orbit(0.5, n=512)
    mu = orbit.h - np.log(orbit.h) + 0.5 * orbit.dh ** 2
    assert np.max(np.abs(mu - orbit.mu)) < 1e-10
    assert orbit.h_plus > 1.0 > orbit.h_minus
    assert np.min(orbit.h) == pytest.approx(orbit.h_minus, abs=1e-8)
    assert np.max(orbit.h) <= orbit.h_plus + 1e-8
    assert orbit.h_plus - np.log(orbit.h_plus) == pytest.approx(
        orbit.mu, abs=1e-12)


def test_ham_orbit_domain():
    with pytest.raises(DomainError):
        prof.ham_orbit(1.5)
    with pytest.raises(DomainError):
        prof.ham_orbit(0.0)


@pytest.mark.parametrize("h_minus", [0.3, 0.5, 0.7])
def test_ham_selection_c0_three_forms_agree(h_minus):
    orbit = prof.ham_orbit(h_minus, n=512)
    f1, f2, f3 = prof.ham_selection_c0(orbit, 0.4)
    assert f1 > 0.0
    assert f2 == pytest.approx(f1, rel=1e-8)
    assert f3 == pytest.approx(f1, rel=1e-8)


def test_continuation_reaches_nearby_target(fig1c_wave):
    w = prof.continue_profile(fig1c_wave, tol=1e-9, X=17.5)
    assert w.params.X == pytest.approx(17.5)
    assert w.residual_norm <= 1e-9
    assert np.ptp(w.tau) > 0.1
