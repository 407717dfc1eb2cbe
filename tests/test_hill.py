"""Hill's method against the closed-form constant-state dispersion."""

import io

import numpy as np
import pytest

from rollwave import fourier, hill, linearize
from rollwave import profile as prof
from rollwave.linearize import SpectralProblem
from rollwave.model import DomainError

import oracles


def _folded_dispersion(params, tau0, xi, X, N):
    eta = xi + 2.0 * np.pi * np.arange(-N, N + 1) / X
    return oracles.constant_dispersion(params, tau0, eta).ravel()


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


def test_negative_order_refuses_a_zero_bloch_wavenumber():
    # d^-1 has the symbol 1 / (i k), which is singular where k = 0: in the
    # mode l = 0 at xi = 0, whatever the problem's kind
    terms = {(0, 0): [(-1, 1.0), (1, 1.0)]}
    sp = SpectralProblem(kind="test", period=3.0, terms=terms)
    with pytest.raises(DomainError, match="zero Bloch wavenumber"):
        hill.eigenvalues(sp, 6, 0.0)
    assert np.all(np.isfinite(hill.eigenvalues(sp, 6, 0.4)))


@pytest.mark.parametrize("h_minus", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("xi", [0.05, -0.2, 0.31])
def test_ham_limit_matches_the_pencil(h_minus, xi):
    # the standard form h^-2 d^-1 + d is similar to the pencil's
    # d^-1 (h^-2 + d^2), so both give the same 2N + 1 eigenvalues
    orbit = prof.ham_orbit(h_minus, n=512)
    N = 40
    got = hill.eigenvalues(linearize.ham_limit_operator(orbit), N, xi)
    want = oracles.ham_pencil_eigenvalues(orbit, N, xi)
    assert len(got) == len(want) == 2 * N + 1
    d = np.abs(got[:, None] - want[None, :])
    assert np.all(d.min(axis=1) <= 1e-10 * np.maximum(np.abs(got), 1.0))
    assert np.all(d.min(axis=0) <= 1e-10 * np.maximum(np.abs(want), 1.0))


def test_checked_scan_excludes_origin_ball(constant_state, hill_solves):
    # the constant state's growing modes all lie in |lambda| < 0.2: a scan
    # that leaves out |lambda| <= 0.5 finds none, so it solves every row
    # spectrum solves, then the check row
    sp = linearize.bloch_coeffs(constant_state)
    assert hill.checked_scan(sp, 4, 0.0).unstable
    hill_solves.clear()
    scan = hill.checked_scan(sp, 4, 0.5)
    assert scan.reason is None and scan.mu <= 0.0
    assert scan.solves == len(hill_solves) == 3
    hill_solves.clear()
    cloud = hill.spectrum(sp, scan.N, n_xi=4)
    assert scan.solves == len(hill_solves) + 1
    assert scan.mu == max(hill._max_real(evs, 0.5) for evs in cloud.eigs)


def test_checked_scan_stops_at_the_first_unstable_row(hill_solves):
    # lambda z = z'' + z / 10 on a 2 pi period: Re lambda = 1/10 - (xi + l)^2,
    # so row k = 0 (xi = -1/2) is stable and the first xi > 0 row (xi =
    # 1/16) unstable; the scan stops there and re-solves that row at 3N/2
    terms = {(0, 0): [(2, 1.0), (0, 0.1)]}
    sp = SpectralProblem(kind="test", period=2.0 * np.pi, terms=terms)
    N, n_xi = hill._N_FLOOR, 16
    grid = hill.default_xi_grid(sp.period, n_xi)
    rows = [float(np.max(hill.eigenvalues(sp, N, x).real))
            for x in [grid[0], *grid[grid > 0]]]
    assert rows[0] < 0.0 < hill._GROWTH_TOL < rows[1]
    hill_solves.clear()
    scan = hill.checked_scan(sp, n_xi, 0.0)
    assert (scan.N, scan.solves, scan.reason) == (N, 3, None)
    assert hill_solves == [grid[0], grid[grid > 0][0], grid[grid > 0][0]]
    assert scan.mu == rows[1] == scan.check


def test_checked_scan_scans_every_row_of_a_stable_problem(hill_solves):
    # lambda z = z'' + z' - z: Re lambda = -(xi + 2 pi l / X)^2 - 1 < 0, so
    # nothing stops the scan and it matches the mirrored full spectrum
    terms = {(0, 0): [(2, 1.0), (1, 1.0), (0, -1.0)]}
    sp = SpectralProblem(kind="test", period=3.0, terms=terms)
    cloud = hill.spectrum(sp, hill._N_FLOOR, n_xi=12)
    for r0 in (0.0, 1.5):
        hill_solves.clear()
        scan = hill.checked_scan(sp, 12, r0)
        assert scan.N == cloud.N
        assert scan.solves == len(hill_solves) == 6 + 1
        assert scan.mu == max(hill._max_real(evs, r0) for evs in cloud.eigs) \
            < -1.0
        # the check re-solves the first scanned row that attains mu
        *scanned, checked = hill_solves
        rows = [hill._max_real(hill.eigenvalues(sp, scan.N, x), r0)
                for x in scanned]
        assert checked == scanned[rows.index(scan.mu)]


def _set_distance(a, b):
    """Largest distance from a point of either set to the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


@pytest.mark.parametrize("n_xi", [8, 7])
def test_spectrum_solves_half_the_grid(constant_state, hill_solves, n_xi):
    # xi > 0 and -pi/X are solved; each xi < 0 row mirrors its partner
    sp = linearize.bloch_coeffs(constant_state)
    cloud = hill.spectrum(sp, N=6, n_xi=n_xi)
    assert len(hill_solves) == 4
    assert np.array_equal(cloud.xi, hill.default_xi_grid(sp.period, n_xi))
    assert len(cloud.eigs) == len(cloud.xi)


def _check_mirrored_rows(problem, N, n_xi, hill_solves):
    hill_solves.clear()
    cloud = hill.spectrum(problem, N, n_xi=n_xi)
    mirrored = [(x, evs) for x, evs in zip(cloud.xi, cloud.eigs)
                if -np.pi / problem.period < x < 0.0]
    assert len(mirrored) == len(cloud.xi) - len(hill_solves) > 0
    for x, evs in mirrored:
        want = hill.eigenvalues(problem, N, x)
        assert len(evs) == len(want)
        assert np.array_equal(evs, evs[np.lexsort((evs.imag, -evs.real))])
        assert _set_distance(evs, want) < 1e-10


def test_mirrored_rows_match_direct_solves(fig1c_wave, hill_solves):
    _check_mirrored_rows(linearize.bloch_coeffs(fig1c_wave), 24, 8,
                         hill_solves)


def test_mirrored_rows_match_direct_solves_ham_pencil(hill_solves):
    orbit = prof.ham_orbit(0.5, n=256)
    _check_mirrored_rows(linearize.ham_limit_operator(orbit), 16, 7,
                         hill_solves)


def test_mirrored_rows_are_resorted(hill_solves):
    # pure advection: every eigenvalue i (xi + 2 pi l / X) ties in real
    # part, so the conjugates keep the sort key only when re-sorted
    terms = {(0, 0): [(1, 1.0)]}
    _check_mirrored_rows(SpectralProblem(kind="test", period=2.0 * np.pi,
                                         terms=terms), 5, 8, hill_solves)


def test_spectrum_rejects_complex_coefficient():
    x = fourier.grid(32, 2.0 * np.pi)
    terms = {(0, 0): [(0, np.exp(1j * x))]}
    sp = SpectralProblem(kind="test", period=2.0 * np.pi, terms=terms)
    with pytest.raises(DomainError):
        hill.spectrum(sp, N=4, n_xi=4)
    with pytest.raises(DomainError):
        hill.checked_scan(sp, 4, 0.0)


@pytest.mark.parametrize("order", [-1, 0, 1, 2])
@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_single_cosine_assembly_is_tridiagonal(order, delta):
    # 1 + eps cos(2 pi x / X) + delta sin(2 pi x / X) has Fourier
    # coefficients 1 and (eps -+ i delta) / 2 at +-1, so its block is the
    # tridiagonal convolution c_{j-l} times the Bloch symbol of column l
    X, N, eps, xi = 3.0, 6, 0.3, 0.4
    x = fourier.grid(64, X)
    coeff = (1.0 + eps * np.cos(2 * np.pi * x / X)
             + delta * np.sin(2 * np.pi * x / X))
    terms = {(0, 0): [(order, coeff)]}
    sp = SpectralProblem(kind="test", period=X, terms=terms)
    sym = (1j * (xi + 2.0 * np.pi * np.arange(-N, N + 1) / X)) ** order
    conv = (np.eye(2 * N + 1)
            + 0.5 * (eps - 1j * delta) * np.eye(2 * N + 1, k=-1)
            + 0.5 * (eps + 1j * delta) * np.eye(2 * N + 1, k=1))
    want = conv * sym[None, :]
    M = hill.assemble(sp, N, xi)
    assert np.max(np.abs(M - want)) <= 1e-14 * np.max(np.abs(want))


def test_truncation_gives_the_problems_eigenvalues(fig1c_wave):
    sp = linearize.bloch_coeffs(fig1c_wave)
    trunc = hill.truncate(sp, 12)
    for xi in (0.05, -0.11):
        assert np.array_equal(hill.eigenvalues(trunc, 12, xi),
                              hill.eigenvalues(sp, 12, xi))
    with pytest.raises(DomainError):
        hill.eigenvalues(trunc, 13, 0.05)


def test_constant_state_gets_the_floor(constant_state):
    # constant coefficients have no tail: K = 0 gives the floor
    sp = linearize.bloch_coeffs(constant_state)
    assert hill._truncation_size(sp) == hill._N_FLOOR == 16


@pytest.mark.parametrize("K, N", [(8, 16), (50, 28), (61, 32), (98, 52),
                                  (300, 120)])
def test_truncation_size_follows_the_coefficient_tail(K, N):
    # a coefficient whose modes fall from 1 at k = 0 towards 1e-9 at
    # |k| = K, where they are raised to 2e-8 and stop: its last mode above
    # 1e-8 of the largest is K, so N = ceil(K/2) rounded up to a multiple
    # of 4 and held within [16, 120]; constant and scalar coefficients add
    # no tail
    n = 1024
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    chat = np.where(k < K, 10.0 ** (-9.0 * k / K), 0.0)
    chat[k == K] = 2e-8
    coeff = np.fft.ifft(chat * n).real
    terms = {(0, 0): [(2, 1.0), (1, coeff), (0, np.full(n, 3.0))]}
    sp = SpectralProblem(kind="test", period=5.0, terms=terms)
    assert fourier.tail_mode(coeff, hill._TAIL_TOL) == K
    assert hill._truncation_size(sp) == N
