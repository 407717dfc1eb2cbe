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


def test_solve_profile_constant_seed_is_degenerate(constant_state):
    # a constant seed has no derivative, so the phase row of the Jacobian
    # vanishes; off the equilibrium speed the residual is not yet zero
    p = constant_state.params.with_(c=0.3)
    with pytest.raises(prof.DegenerateJacobian):
        prof.solve_profile(p, constant_state.tau)


def test_solve_profile_unreachable_tol_reports_its_residual(monkeypatch):
    from rollwave import kdv_limit
    k = kdv_limit.k_of_period(12.0)
    w0 = kdv_limit.asymptotic_rollwave(0.1, k, 0.1, n=128)
    seed_dtau = fourier.deriv(w0.tau, w0.params.X)
    errors = []
    ode_residual = prof.ode_residual

    def recording(tau, params):
        G = ode_residual(tau, params)
        phase = float(np.mean((tau - w0.tau) * seed_dtau))
        errors.append(max(float(np.max(np.abs(G))), abs(phase)))
        return G

    monkeypatch.setattr(prof, "ode_residual", recording)
    with pytest.raises(prof.NonConvergence) as info:
        prof.solve_profile(w0.params, w0.tau, tol=1e-18)
    # the damped iteration only accepts decreasing residuals, so the one it
    # stopped at is the smallest it evaluated
    assert info.value.residual == min(errors)
    assert 1e-18 < info.value.residual < 1e-10
    assert f"{info.value.residual:.3e}" in str(info.value)


def _scalar(f, df):
    return (lambda x: np.array([f(x[0])]),
            lambda x: np.array([[df(x[0])]]))


def test_newton_solve_converges_and_returns_its_residual():
    residual, jacobian = _scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    for monotone in (False, True):
        x, err = prof._newton_solve(residual, jacobian, np.array([1.0]),
                                    1e-12, lambda x: True, monotone=monotone)
        assert x[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert err == abs(x[0] * x[0] - 2.0) <= 1e-12


def test_newton_solve_rounding_floor():
    # tol 0 is unreachable: the loop stops at a step below the rounding
    # floor, long before _NEWTON_MAX_ITER, and keeps the iterate only if
    # its error is within `floor`
    calls = []
    residual, jacobian = _scalar(lambda x: calls.append(x) or x * x - 2.0,
                                 lambda x: 2.0 * x)
    with pytest.raises(prof.NonConvergence):
        prof._newton_solve(residual, jacobian, np.array([1.0]), 0.0,
                           lambda x: True)
    assert len(calls) < 10
    x, err = prof._newton_solve(residual, jacobian, np.array([1.0]), 0.0,
                                lambda x: True, floor=1e-12)
    assert err == abs(x[0] * x[0] - 2.0) <= 1e-12


def test_newton_solve_singular_jacobian():
    residual, jacobian = _scalar(lambda x: x * x + 1.0, lambda x: 0.0)
    with pytest.raises(prof.DegenerateJacobian):
        prof._newton_solve(residual, jacobian, np.array([1.0]), 1e-12,
                           lambda x: True)


def test_newton_solve_monotone_stall_and_floor():
    # a Jacobian of the wrong sign points uphill: every damped step raises
    # the residual, so the line search stalls at the starting error
    calls = []
    residual, jacobian = _scalar(lambda x: calls.append(x) or x - 1.0,
                                 lambda x: -1.0)
    with pytest.raises(prof.NonConvergence) as info:
        prof._newton_solve(residual, jacobian, np.array([3.0]), 1e-12,
                           lambda x: True, monotone=True)
    assert info.value.residual == 2.0
    assert len(calls) == 1 + 10
    x, err = prof._newton_solve(residual, jacobian, np.array([3.0]), 1e-12,
                                lambda x: True, monotone=True, floor=2.0)
    assert (x[0], err) == (3.0, 2.0)


def test_newton_solve_inadmissible_full_step():
    # the full step from 1 lands on 1.5; only the damped rule halves it
    residual, jacobian = _scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    below = lambda x: x[0] < 1.45
    with pytest.raises(prof.NonConvergence) as info:
        prof._newton_solve(residual, jacobian, np.array([1.0]), 1e-12, below)
    assert info.value.residual == 1.0
    x, _ = prof._newton_solve(residual, jacobian, np.array([1.0]), 1e-12,
                              below, monotone=True)
    assert x[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)


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
