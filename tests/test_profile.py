"""Traveling-wave profile solvers: Newton, continuation, and scaling limits."""

import json

import numpy as np
import pytest

from rollwave import fourier, linearize
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
    # one iteration stops above the rounding floor (1e-8 on 128 nodes),
    # below which an iterate would be kept
    monkeypatch.setattr(prof, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(prof.NonConvergence) as info:
        prof.solve_profile(w0.params, w0.tau, tol=1e-18)
    # the residual reported is the one of the iterate Newton stopped at,
    # the last it evaluated
    assert info.value.residual == errors[-1]
    assert 1e-8 < info.value.residual < errors[0]
    assert f"{info.value.residual:.3e}" in str(info.value)


def test_physical_solve_keeps_an_iterate_at_the_rounding_floor():
    # the path to F = 100 runs on the limit's 256 nodes; the final solve
    # at F = 100 on 512 nodes stalls near 5e-11, the rounding floor of G
    # there, above the 1e-11 asked for; like the limit solve it keeps that
    # iterate, within the floor 1e-8 (n / 256)^2
    w = prof.profile_from_limit(0.4, 0.3, 100.0, n=512, tol=1e-11)
    assert w.n == 512
    assert 1e-11 < w.residual_norm <= 4e-8


def _scalar(f, df):
    return (lambda x: np.array([f(x[0])]),
            lambda x: np.array([[df(x[0])]]))


def test_newton_solve_converges_and_returns_its_residual():
    residual, jacobian = _scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    x, err = prof._newton_solve(residual, jacobian, np.array([1.0]), 1e-12,
                                lambda x: True)
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


@pytest.mark.filterwarnings("error")
def test_exactly_singular_jacobian_raises_without_a_warning(constant_state):
    # the zero pivot is the raise, not a LinAlgWarning from the factorisation
    residual, jacobian = _scalar(lambda x: x * x + 1.0, lambda x: 0.0)
    with pytest.raises(prof.DegenerateJacobian, match="pivot 1 is zero"):
        prof._newton_solve(residual, jacobian, np.array([1.0]), 1e-12,
                           lambda x: True)
    with pytest.raises(prof.DegenerateJacobian, match="is zero"):
        prof.solve_profile(constant_state.params.with_(c=0.3),
                           constant_state.tau)


def test_newton_solve_inadmissible_full_step():
    # the full step from 1 lands on 1.5, outside the admissible region
    residual, jacobian = _scalar(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    below = lambda x: x[0] < 1.45
    with pytest.raises(prof.NonConvergence) as info:
        prof._newton_solve(residual, jacobian, np.array([1.0]), 1e-12, below)
    assert info.value.residual == 1.0


def test_newton_solve_keeps_a_contracting_factorisation():
    # a 2 x 2 system with root (sqrt 2, (3 - 0.1 sqrt 2)^(1/3))
    at = []

    def residual(x):
        return np.array([x[0] ** 2 - 2.0, x[1] ** 3 - 3.0 + 0.1 * x[0]])

    def jacobian(x):
        at.append(x)
        return np.array([[2.0 * x[0], 0.0], [0.1, 3.0 * x[1] ** 2]])

    x, err = prof._newton_solve(residual, jacobian, np.array([1.5, 1.5]),
                                1e-12, lambda x: True)
    builds = len(at)
    # plain Newton, one fresh Jacobian per step, as the reference
    y, steps = np.array([1.5, 1.5]), 0
    while np.max(np.abs(residual(y))) > 1e-12:
        y = y - np.linalg.solve(jacobian(y), residual(y))
        steps += 1
    assert builds < steps
    assert err == np.max(np.abs(residual(x))) <= 1e-12
    # the same root as Newton's to the step floor, 1e-13 max(1, |x|), where
    # the finish stops
    root = [np.sqrt(2.0), np.cbrt(3.0 - 0.1 * np.sqrt(2.0))]
    np.testing.assert_allclose(y, root, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(x, root, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("x0, admissible", [
    # the step with the factorisation from 0.35 cuts the error by 0.064 only
    (0.35, lambda x: True),
    # the step with the factorisation from 0.3 lands on 4.4e-4, Newton's on
    # 2.7e-7
    (0.3, lambda x: x[0] < 1e-4),
])
def test_newton_solve_retakes_a_failed_reused_step(x0, admissible):
    # sin x from x0: the first Newton step contracts the error by x0^2 / 3,
    # under _CONTRACTION, so its factorisation is kept; the step made with it
    # fails, and is made again from the same iterate with a fresh Jacobian
    at = []
    residual, jacobian = _scalar(np.sin, lambda x: at.append(x) or np.cos(x))
    x, err = prof._newton_solve(residual, jacobian, np.array([x0]), 1e-12,
                                admissible)
    x1 = x0 - np.tan(x0)
    assert at == [x0, pytest.approx(x1, rel=1e-15)]
    assert abs(x[0]) == err <= 1e-12


@pytest.fixture(scope="module")
def limit_wave():
    return prof.limit_profile_alpha_m2(0.4, 0.3)


def _central_jacobian(G, tau, c, h=1e-6):
    """dG/dtau and dG/dc of G(tau, c) by central differences."""
    cols = []
    for j in range(len(tau)):
        e = np.zeros(len(tau))
        e[j] = h
        cols.append((G(tau + e, c) - G(tau - e, c)) / (2.0 * h))
    return np.column_stack(cols + [(G(tau, c + h) - G(tau, c - h)) / (2.0 * h)])


def test_jacobian_matches_central_differences(limit_wave):
    # one Jacobian for both (K, eps): the physical wave at (F^2, 1) and the
    # alpha = -2 limit at (1, 0)
    from rollwave import kdv_limit
    w0 = kdv_limit.asymptotic_rollwave(0.1, kdv_limit.k_of_period(12.0), 0.1,
                                       n=64)
    p, lp = w0.params, limit_wave
    cases = [(w0.tau, p.c, (p.F * p.F, 1.0, p.nu, p.q, p.X)),
             (fourier.resample(lp.a, 64), lp.c0,
              (1.0, 0.0, lp.nu, lp.q0, lp.X0))]
    for tau, c, coeffs in cases:
        J = prof._jacobian(tau, c, *coeffs, 1)[:64]
        fd = _central_jacobian(lambda t, c: prof._equation(t, c, *coeffs),
                               tau, c)
        assert np.max(np.abs(J - fd)) <= 1e-7 * np.max(np.abs(J))


def _wavy(n, X):
    """A positive test profile with every Fourier mode present."""
    x = fourier.grid(n, X)
    noise = np.random.default_rng(n).standard_normal(n)
    return (1.0 + 0.3 * np.cos(2.0 * np.pi * x / X)
            + 0.1 * np.sin(4.0 * np.pi * x / X) + 1e-3 * noise)


@pytest.mark.parametrize("n", [63, 64, 200, 201, 256, 1024])
@pytest.mark.parametrize("borders", [1, 2])
@pytest.mark.parametrize("coeffs", [(9.0, 1.0, 0.1, 1.2, 10.0),
                                    (1.0, 0.0, 0.1, 0.4, 0.45)])
def test_jacobian_rows_match_the_dense_product(n, borders, coeffs):
    # the closed-form build against dG/dtau written out with dense
    # products, on both parities of n
    K, eps, nu, q, X = coeffs
    tau, c = _wavy(n, X), 0.35
    D1 = fourier.diff_matrix(n, X, 1)
    J = prof._jacobian(tau, c, *coeffs, borders)
    dt = fourier.deriv(tau, X)
    u = q - eps * c * tau
    dense = (c * c * D1 - (1.0 / (K * tau ** 3))[:, None] * D1
             + np.diag(3.0 * dt / (K * tau ** 4) + u ** 2
                       - 2.0 * eps * c * tau * u)
             + c * nu * ((D1 * tau ** -2) @ D1 - 2.0 * D1 * (tau ** -3 * dt)))
    assert J.shape == (n + borders, n + borders)
    assert np.max(np.abs(J[:n, :n] - dense)) <= 1e-13 * np.max(np.abs(J))
    dc = (2.0 * c * dt - 2.0 * eps * tau ** 2 * u
          + nu * fourier.deriv(tau ** -2 * dt, X))
    assert np.array_equal(J[:n, n], dc)
    # the border rows and every border column but dG/dc are the caller's
    assert not np.any(J[n:]) and not np.any(J[:, n + 1:])


def test_jacobian_transforms_no_row(monkeypatch):
    # the viscous product is summed in closed form: one build transforms a
    # fixed handful of vectors, however large n is, and no block of rows
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        direct = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _f=direct, **kw:
                            calls.append(np.ndim(args[0])) or _f(*args, **kw))
    counts, coeffs = {}, (1.0, 0.0, 0.1, 0.4, 0.45)
    for n in (256, 1024):
        calls.clear()
        prof._jacobian(_wavy(n, coeffs[-1]), 0.35, *coeffs, 1)
        assert set(calls) == {1}
        counts[n] = len(calls)
    assert counts[256] == counts[1024]


def test_limit_pinned_period_column_matches_central_differences(
        limit_wave, monkeypatch):
    # dG/dX0 of the pinned walk is exact, not a difference quotient
    got = {}

    def capture(residual, jacobian, x, tol, admissible):
        got.update(residual=residual, jacobian=jacobian, x=x)
        return x, 0.0

    monkeypatch.setattr(prof, "_newton_solve", capture)
    lp, n = limit_wave, 64
    a = fourier.resample(lp.a, n)
    A = 2.0 * float(np.mean(a * np.cos(2.0 * np.pi * np.arange(n) / n)))
    prof._limit_pinned(a, lp.q0, lp.c0, lp.X0, lp.nu, A, 1e-8)
    x, h = got["x"], 1e-5 * got["x"][n + 1]
    e = np.eye(1, n + 2, n + 1)[0] * h
    fd = (got["residual"](x + e) - got["residual"](x - e))[:n] / (2.0 * h)
    col = got["jacobian"](x)[:n, n + 1]
    assert np.max(np.abs(col - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_jacobian_allocates_no_dense_temporary():
    import tracemalloc
    n, coeffs = 512, (64.0, 1.0, 0.1, 3.2, 28.8)
    tau = _wavy(n, coeffs[-1])
    tracemalloc.start()
    try:
        J = prof._jacobian(tau, 0.2, *coeffs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * J.nbytes


def test_newton_solve_holds_one_jacobian_buffer(limit_wave, monkeypatch):
    # each Jacobian is factored where it lies, and the last factorisation is
    # dropped before the next Jacobian is built: an LU copy, or two
    # Jacobians alive at once, would double the peak
    import tracemalloc
    n = 1024
    built = []
    jac = prof._jacobian
    monkeypatch.setattr(prof, "_jacobian",
                        lambda *args: built.append(1) or jac(*args))
    a = fourier.resample(limit_wave.a, n)
    tracemalloc.start()
    try:
        w = prof._limit_newton(a, limit_wave.q0, limit_wave.c0,
                               limit_wave.X0, limit_wave.nu, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.n == n and len(built) >= 2
    assert peak <= 1.25 * (n + 1) ** 2 * 8


def test_profile_f8_factors_fewer_jacobians_than_steps(monkeypatch):
    # the profile-f8 wave: the limit solve refined to 1024 nodes and a
    # path in s = F / F_v with one failed step
    built = []
    jac = prof._jacobian
    monkeypatch.setattr(prof, "_jacobian",
                        lambda *args: built.append(1) or jac(*args))
    w = prof.profile_from_limit(0.4, 0.45, 8.0, n=512)
    assert w.n == 1024
    assert len(built) <= 80


def test_limit_equation_is_the_large_F_limit(limit_wave):
    # on tau = a/F^2, c = c0 F^2, q = q0 F, X = X0 F^2 the physical residual
    # differs from the (K, eps) = (1, 0) one by a (q0 - c0 a/F)^2 - a q0^2,
    # which vanishes like 1/F
    lp = limit_wave
    G0 = prof._equation(lp.a, lp.c0, 1.0, 0.0, lp.nu, lp.q0, lp.X0)
    assert np.max(np.abs(G0)) <= 1e-8
    scaled = []
    for F in (1e2, 1e3, 1e4, 1e5, 1e6):
        p = PhysicalParams(F=F, nu=lp.nu, q=lp.q0 * F, c=lp.c0 * F * F,
                           X=lp.X0 * F * F)
        scaled.append(F * np.max(np.abs(prof.ode_residual(lp.a / F ** 2, p)
                                        - G0)))
    assert max(scaled) <= 1.05 * min(scaled)


def test_continue_profile_rejects_unknown_parameter(constant_state):
    with pytest.raises(DomainError):
        prof.continue_profile(constant_state, tau0=2.0)


def _on_line(X):
    """A fake wave whose tau and c are linear in X."""
    cosx = np.cos(2.0 * np.pi * np.arange(8) / 8)
    tau = 1.0 + X / 16.0 * cosx
    params = PhysicalParams(F=3.0, nu=0.1, q=1.0, c=0.5 + X / 32.0, X=X)
    return prof.WaveProfile(params=params, tau=tau, residual_norm=0.0)


def test_continue_profile_secant_lands_on_linear_branch(monkeypatch):
    # the first step fails and is halved; the secant through X = 8 and 10,
    # extended by the next step, is then the branch itself at X = 12,
    # in tau and in c
    calls = []

    def fake(params, seed_tau, tol=1e-8):
        calls.append((params.X, params.c, np.array(seed_tau)))
        if len(calls) == 1:
            raise prof.NonConvergence("forced failure", 1.0)
        return _on_line(params.X)

    monkeypatch.setattr(prof, "solve_profile", fake)
    w = prof.continue_profile(_on_line(8.0), X=12.0)
    assert [X for X, _, _ in calls] == [12.0, 10.0, 12.0]
    _, c_guess, tau_guess = calls[-1]
    want = _on_line(12.0)
    assert c_guess == pytest.approx(want.params.c, rel=1e-15)
    assert np.max(np.abs(tau_guess - want.tau)) < 1e-15
    assert w.params.X == 12.0


def test_follow_halves_a_collapsed_step():
    # an amplitude below 0.2 of the last one's is the constant branch:
    # the step is retried at half its length
    tried = []

    def solve(s, guess):
        tried.append((s, guess))
        amp = 0.05 if len(tried) == 1 else 0.5
        return np.array([1.0 - amp, 1.0 + amp, s]), s

    assert prof._follow(solve, np.array([0.5, 1.5, 0.0]), 1.0, 1.0,
                        1e-6) == 1.0
    assert [s for s, _ in tried] == [1.0, 0.5, 1.0]
    assert np.array_equal(tried[-1][1], [0.5, 1.5, 1.0])


def test_follow_stall_raises():
    tried = []

    def solve(s, guess):
        tried.append(s)
        if len(tried) % 2:
            raise prof.NonConvergence("no", 1.0)
        raise prof.DegenerateJacobian("singular")

    with pytest.raises(prof.ContinuationStalled):
        prof._follow(solve, np.array([0.5, 1.5, 0.0]), 1.0, 1.0, 1e-3)
    assert tried == [2.0 ** -k for k in range(10)]


def test_follow_guesses_the_last_point_after_a_grid_change():
    # the second solve returns the wave on a doubled grid: no secant runs
    # through points of different lengths, so the next guess is the last
    # point, and the secant comes back once two points share the grid
    tried = []

    def solve(s, guess):
        tried.append((s, guess))
        wave = [0.5, 1.5] if len(tried) < 2 else [0.5, 1.5, 0.5, 1.5]
        return np.append(wave, s), s

    assert prof._follow(solve, np.array([0.5, 1.5, 0.0]), 1.5, 0.25,
                        1e-6) == 1.5
    assert [s for s, _ in tried] == [0.25, 0.625, 1.125, 1.5]
    assert np.array_equal(tried[1][1], [0.5, 1.5, 0.625])
    assert np.array_equal(tried[2][1], [0.5, 1.5, 0.5, 1.5, 0.625])
    assert np.array_equal(tried[3][1], [0.5, 1.5, 0.5, 1.5, 1.5])


def test_descent_starts_from_the_scaled_limit_wave(monkeypatch):
    # every guess solves the fake problem, so the path takes its full steps
    # in the share s = F / F_v: a quarter of the way, then x1.5 to 0.625,
    # then the rest; the first solve, at F_v = 4 F, is seeded with the
    # limit wave itself, and F >= 100 takes the same path
    a = 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(16) / 16)
    lp = prof.LimitProfile(q0=0.4, X0=0.45, nu=0.1, c0=0.7, a=a,
                           residual_norm=0.0)
    monkeypatch.setattr(prof, "limit_profile_alpha_m2", lambda *a, **k: lp)
    calls = []

    def fake(params, seed_tau, tol=1e-8):
        calls.append((params, np.array(seed_tau)))
        return prof.WaveProfile(params=params, tau=seed_tau,
                                residual_norm=0.0)

    monkeypatch.setattr(prof, "solve_profile", fake)
    for F in (8.0, 150.0):
        calls.clear()
        w = prof.profile_from_limit(0.4, 0.45, F, n=16)
        first, seed = calls[0]
        Fv = 4.0 * F
        assert (first.F, first.q, first.c, first.X) == (
            Fv, 0.4 * Fv, 0.7 * Fv ** 2, 0.45 * Fv ** 2)
        assert np.array_equal(seed, a / Fv ** 2)
        assert [p.F for p, _ in calls] == [F / 0.25, F / 0.625, F]
        assert w.params.F == F
        for p, seed in calls:
            assert np.max(np.abs(seed * p.F ** 2 - a)) < 1e-14
            assert p.c / p.F ** 2 == pytest.approx(0.7, rel=1e-14)


def _record_solves(monkeypatch):
    """Wrap solve_profile so that each call appends its seed's length."""
    sizes = []
    solve = prof.solve_profile

    def recording(params, seed_tau, tol=1e-8):
        sizes.append(len(seed_tau))
        return solve(params, seed_tau, tol)

    monkeypatch.setattr(prof, "solve_profile", recording)
    return sizes


def test_descent_runs_on_the_limit_grid_and_solves_n_once(monkeypatch):
    # the limit wave at X0 = 0.205 resolves on 256 nodes: the path stays
    # there and only the wave at the target F is solved on the n asked for
    sizes = _record_solves(monkeypatch)
    w = prof.profile_from_limit(0.4, 0.205, 8.0, n=512, tol=1e-10)
    assert len(sizes) > 2
    assert sizes[:-1] == [256] * (len(sizes) - 1)
    assert sizes[-1] == w.n == len(w.tau) == 512
    p = w.params
    assert p.c == pytest.approx(2.771599663698633, rel=1e-10)
    assert abs(np.mean(w.tau * (p.q - p.c * w.tau) ** 2) - 1.0) <= 1e-10


def test_map_point_takes_at_most_five_solves(monkeypatch):
    # a map-hill point: the path from the limit reaches F = 4 in three
    # solves on the limit's 256 nodes, and one more solves it on n
    sizes = _record_solves(monkeypatch)
    w = prof.profile_from_limit(0.4, 0.205, 4.0, n=512, tol=1e-10)
    assert w.n == 512
    assert len(sizes) <= 5


def test_descent_keeps_a_limit_grid_finer_than_n(monkeypatch):
    # at X0 = 0.3 the limit refines past n = 64 to 256 nodes: every solve
    # runs there, none on 64 nodes, and the wave keeps the limit's grid
    limit_n = []
    limit = prof.limit_profile_alpha_m2

    def recording_limit(*args, **kwargs):
        lp = limit(*args, **kwargs)
        limit_n.append(lp.n)
        return lp

    monkeypatch.setattr(prof, "limit_profile_alpha_m2", recording_limit)
    sizes = _record_solves(monkeypatch)
    w = prof.profile_from_limit(0.4, 0.3, 8.0, n=64)
    assert limit_n == [256]
    assert sizes == [256] * len(sizes)
    assert w.n == 256
    assert w.residual_norm <= 1e-8


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
    assert w2.params == fig1c_wave.params and w2.n == fig1c_wave.n
    assert np.array_equal(w2.tau, fig1c_wave.tau)
    assert np.array_equal(w2.dtau, fig1c_wave.dtau)
    assert w2.residual_norm == fig1c_wave.residual_norm


def test_profile_file_holds_params_tau_and_residual(fig1c_wave):
    # n and tau' are derived; a file that still carries them, and the top
    # level copies of c and q, loads to the same wave
    w = fig1c_wave
    doc = json.loads(w.to_json())
    assert sorted(doc) == ["params", "residual", "tau"]
    doc.update(n=w.n, dtau=list(w.dtau), c=w.params.c, q=w.params.q)
    w2 = prof.WaveProfile.from_json(json.dumps(doc))
    assert w2.params == w.params and w2.residual_norm == w.residual_norm
    assert np.array_equal(w2.tau, w.tau) and w2.n == w.n
    assert w2.dtau.tobytes() == w.dtau.tobytes()


def _same_problem(a, b):
    """Bitwise equality of two SpectralProblems' coefficients."""
    assert (a.kind, a.period) == (b.kind, b.period)
    assert a.operator.M1.keys() == b.operator.M1.keys()
    for key, terms in a.operator.M1.items():
        for (ka, ca), (kb, cb) in zip(terms, b.operator.M1[key], strict=True):
            assert ka == kb and np.array_equal(ca, cb)
    assert np.array_equal(a.first_order.A0, b.first_order.A0)
    assert np.array_equal(a.first_order.A1, b.first_order.A1)


def test_a_stored_dtau_is_not_read(f6_waves):
    # tau' is always fourier.deriv of tau: a file whose dtau list is zeroed
    # gives the clean file's linearization, so the same verdict
    w = f6_waves[8.78]
    doc = json.loads(w.to_json())
    doc["dtau"] = [0.0] * w.n
    spoilt = prof.WaveProfile.from_json(json.dumps(doc))
    clean = prof.WaveProfile.from_json(w.to_json())
    assert spoilt.dtau.tobytes() == fourier.deriv(w.tau, w.params.X).tobytes()
    _same_problem(linearize.bloch_coeffs(spoilt),
                  linearize.bloch_coeffs(clean))


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


def test_limit_wave_x0_045_frozen():
    # the deep limit wave of profile-f8: its tail refines 256 -> 1024
    # nodes on the way up from the walk
    lp = prof.limit_profile_alpha_m2(0.4, 0.45, 0.1, 256)
    assert lp.n == 1024
    assert lp.c0 == pytest.approx(0.06358999881189556, rel=1e-9, abs=0.0)


def test_limit_walk_ends_before_its_pinned_newton_fails(monkeypatch):
    # the walk to the profile-f8 limit wave stops before its amplitude
    # passes a*, so no pinned solve fails; the path's solve at X0 = 0.45,
    # refined to 1024 nodes on the way up, is the last solve and the wave
    pinned, newton = prof._limit_pinned, prof._limit_newton
    failed, solved = [], []

    def counting_pinned(*args):
        try:
            return pinned(*args)
        except (prof.NonConvergence, prof.DegenerateJacobian):
            failed.append(args[-2])
            raise

    monkeypatch.setattr(prof, "_limit_pinned", counting_pinned)
    monkeypatch.setattr(prof, "_limit_newton", lambda *args: solved.append(
        newton(*args)) or solved[-1])
    lp = prof.limit_profile_alpha_m2(0.4, 0.45)
    assert failed == []
    assert lp is solved[-1] and lp.n == 1024
    assert [w.X0 for w in solved].count(0.45) == 1


def _count_walks(monkeypatch):
    """Wrap the onset walk of the limit solve; returns the X0 of each walk."""
    walks = []
    walk = prof._limit_walk

    def counting(*args):
        walks.append(args[1])
        return walk(*args)

    monkeypatch.setattr(prof, "_limit_walk", counting)
    return walks


def test_limit_table_continues_in_x0_both_ways(monkeypatch):
    # in one table the X0 = 0.205 wave seeds 0.25 above it and 0.203 below
    # it (onset is at 0.2011); each lands on a fresh walk's c0, a repeated
    # X0 returns the stored wave, and a nested block shares the table
    walks = _count_walks(monkeypatch)
    with prof._limit_table():
        base = prof.limit_profile_alpha_m2(0.4, 0.205)
        with prof._limit_table():
            up = prof.limit_profile_alpha_m2(0.4, 0.25)
        down = prof.limit_profile_alpha_m2(0.4, 0.203)
        assert prof.limit_profile_alpha_m2(0.4, 0.205) is base
    assert walks == [0.205]
    for lp in (up, down):
        fresh = prof.limit_profile_alpha_m2(0.4, lp.X0)
        assert (lp.n, lp.X0) == (fresh.n, fresh.X0)
        assert lp.c0 == pytest.approx(fresh.c0, rel=1e-10, abs=0.0)
        assert lp.residual_norm <= 1e-10
    assert walks == [0.205, 0.25, 0.203]


def test_limit_table_seeds_smaller_periods_only_from_unrefined_waves(
        monkeypatch):
    # the X0 = 0.36 wave needs 512 nodes and the 0.33 wave 256; continuing
    # down never coarsens the grid, so 0.33 is walked from onset instead
    walks = _count_walks(monkeypatch)
    with prof._limit_table():
        assert prof.limit_profile_alpha_m2(0.4, 0.36).n == 512
        assert prof.limit_profile_alpha_m2(0.4, 0.33).n == 256
    assert walks == [0.36, 0.33]


@pytest.mark.parametrize("error", [prof.NonConvergence("forced", 1.0),
                                   prof.ContinuationStalled("forced"),
                                   prof.DegenerateJacobian("forced")])
def test_limit_table_falls_back_to_the_walk(monkeypatch, error):
    # a continuation from a stored wave that raises leaves the wave to the
    # walk from onset, the path outside a table: the same bits
    fresh = prof.limit_profile_alpha_m2(0.4, 0.25)
    walks = _count_walks(monkeypatch)
    cont = prof._limit_continue
    stored = []

    def failing(start, X0, n):
        if any(start is lp for lp in stored):
            raise error
        return cont(start, X0, n)

    monkeypatch.setattr(prof, "_limit_continue", failing)
    with prof._limit_table():
        stored.append(prof.limit_profile_alpha_m2(0.4, 0.205))
        lp = prof.limit_profile_alpha_m2(0.4, 0.25)
    assert walks == [0.205, 0.25]
    assert lp.c0 == fresh.c0
    assert np.array_equal(lp.a, fresh.a)


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
