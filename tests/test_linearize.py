"""Bloch linearizations: Hill terms, first-order forms, constant-state oracle."""

import numpy as np
import pytest

from rollwave import evans, fourier, hill, linearize
from rollwave import profile as prof

import oracles


def _apply_operator(op_terms, period, z):
    """Apply the blockwise operator of op_terms to sampled components z
    (m, n)."""
    out = np.zeros_like(z, dtype=complex)
    for (i, j), terms in op_terms.items():
        for order, coeff in terms:
            base = z[j] if order == 0 else fourier.deriv(z[j], period, order)
            out[i] += np.asarray(coeff) * base
    return out


def test_constant_dispersion_closed_form_at_zero_wavenumber(constant_state):
    p = constant_state.params
    u0 = p.q - p.c * p.tau0
    lam = oracles.constant_dispersion(p, p.tau0, 0.0)[0]
    assert sorted(lam, key=abs)[0] == pytest.approx(0.0, abs=1e-14)
    assert sorted(lam, key=abs)[1] == pytest.approx(-2.0 * u0 * p.tau0,
                                                   abs=1e-12)


def test_constant_dispersion_conjugation_symmetry(constant_state):
    p = constant_state.params
    eta = np.array([0.3, 1.1, 2.7])
    plus = oracles.constant_dispersion(p, p.tau0, eta)
    minus = oracles.constant_dispersion(p, p.tau0, -eta)
    for lp, lm in zip(plus, minus):
        assert np.max(np.abs(np.sort_complex(np.conj(lp))
                             - np.sort_complex(lm))) < 1e-12


def test_translation_mode_in_kernel(fig1c_wave):
    # differentiating the profile equation: (tau', u')' is a lambda = 0,
    # xi = 0 eigenfunction of the Bloch operator
    w = fig1c_wave
    sp = linearize.bloch_coeffs(w)
    du = fourier.deriv(w.params.q - w.params.c * w.tau, w.params.X)
    z = np.vstack([w.dtau, du])
    resid = _apply_operator(sp.terms, sp.period, z)
    scale = np.max(np.abs(z))
    assert np.max(np.abs(resid)) < 1e-6 * max(scale, 1.0)


def test_first_order_form_interpolant_matches_samples(fig1c_wave):
    sp = linearize.bloch_coeffs(fig1c_wave)
    fo = sp.first_order
    x = fourier.grid(len(fo.A0), sp.period)
    lam = 0.3 + 0.1j
    A = fo.A0 + lam * fo.A1
    assert np.max(np.abs(fourier.interp(A, sp.period, x) - A)) < 1e-10
    j = 17
    M = fourier.interp(A, sp.period, float(x[j]))
    assert np.max(np.abs(M - (fo.A0[j] + lam * fo.A1[j]))) < 1e-10


def test_first_order_and_operator_forms_agree_spectrally():
    # Hill's method reads only the operator's terms and the Evans function
    # only the first-order form; every Hill eigenvalue of the limit problem must
    # be a root of its Evans function
    lp = prof.limit_profile_alpha_m2(0.4, 0.3)
    sp = linearize.limit_matrices_alpha_m2(lp)
    xi = 0.3 * np.pi / lp.X0
    lam = hill.eigenvalues(sp, 40, xi)
    lam = lam[(np.abs(lam) >= 1e-2) & (np.abs(lam) <= 1.0)]
    assert len(lam) > 0
    ev = evans.EvansEvaluator(sp)
    shifts = [abs(evans.polish_root(ev, z, xi) - z) for z in lam]
    assert max(shifts) <= 1e-4


def test_ham_limit_operator_shape():
    orbit = prof.ham_orbit(0.5, n=256)
    sp = linearize.ham_limit_operator(orbit)
    assert sp.terms.keys() == {(0, 0)}
    [(neg, coeff), (pos, one)] = sp.terms[(0, 0)]
    assert (neg, pos, one) == (-1, 1, 1.0)
    assert np.array_equal(coeff, orbit.h ** -2)
    assert sp.period == pytest.approx(orbit.X_mu)
    assert sp.first_order is None
