"""Fourier collocation utilities against closed-form trigonometric oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rollwave import fourier


def _trig(x, X):
    w = 2.0 * np.pi / X
    return 1.3 + np.sin(w * x) - 0.4 * np.cos(3.0 * w * x)


def _trig_d1(x, X):
    w = 2.0 * np.pi / X
    return w * np.cos(w * x) + 1.2 * w * np.sin(3.0 * w * x)


def test_grid_and_wavenumbers():
    g = fourier.grid(8, 4.0)
    assert np.allclose(g, 0.5 * np.arange(8))
    k = fourier.wavenumbers(8, 2.0 * np.pi)
    assert sorted(np.rint(k).astype(int)) == [-4, -3, -2, -1, 0, 1, 2, 3]


def test_deriv_matches_closed_form():
    X = 5.0
    x = fourier.grid(64, X)
    d = fourier.deriv(_trig(x, X), X)
    assert np.max(np.abs(d - _trig_d1(x, X))) < 1e-12


def test_second_deriv_is_iterated_first():
    X = 3.0
    x = fourier.grid(64, X)
    f = np.exp(np.sin(2.0 * np.pi * x / X))
    d2 = fourier.deriv(f, X, 2)
    dd = fourier.deriv(fourier.deriv(f, X), X)
    assert np.max(np.abs(d2 - dd)) < 1e-9


def test_diff_matrix_agrees_with_deriv():
    X = 2.0 * np.pi
    x = fourier.grid(32, X)
    f = np.cos(x) + 0.3 * np.sin(4.0 * x)
    D = fourier.diff_matrix(32, X)
    assert np.max(np.abs(D @ f - fourier.deriv(f, X))) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_deriv_runs_along_axis_0(order):
    # trailing axes are differentiated alike, column by column, and a
    # complex stack keeps the complex path
    n, X = 64, 5.0
    rng = np.random.default_rng(order)
    stacks = [rng.standard_normal((n, 3, 3)),
              rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))]
    for values in stacks:
        got = fourier.deriv(values, X, order)
        assert got.shape == values.shape
        assert np.iscomplexobj(got) == np.iscomplexobj(values)
        cols = values.reshape(n, -1)
        want = np.stack([fourier.deriv(cols[:, j], X, order)
                         for j in range(cols.shape[1])], axis=1)
        assert np.abs(got.reshape(n, -1) - want).max() \
            <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 63, 64, 200, 201, 256])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_diff_matrix_is_the_circulant_of_deriv(n, order):
    X = 7.83
    e0 = np.zeros(n)
    e0[0] = 1.0
    D = fourier.diff_matrix(n, X, order)
    want = scipy.linalg.circulant(fourier.deriv(e0, X, order))
    assert np.array_equal(D, want)
    assert not D.flags.writeable
    col = np.random.default_rng(n + order).standard_normal(n)
    C = fourier.circulant(col)
    assert np.array_equal(C, scipy.linalg.circulant(col))
    assert not C.flags.writeable


def test_diff_matrix_copies_no_dense_matrix():
    import tracemalloc
    tracemalloc.start()
    try:
        fourier.diff_matrix(1024, 7.83)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_quad_exact_on_trig():
    X = 7.0
    x = fourier.grid(32, X)
    assert fourier.quad(_trig(x, X), X) == pytest.approx(1.3 * X, abs=1e-12)


def test_interp_reproduces_nodes_and_offsets():
    X = 4.0
    x = fourier.grid(32, X)
    f = _trig(x, X)
    assert np.max(np.abs(fourier.interp(f, X, x) - f)) < 1e-12
    xq = np.array([0.123, 1.77, 3.9])
    assert np.max(np.abs(fourier.interp(f, X, xq) - _trig(xq, X))) < 1e-12
    assert fourier.interp(f, X, 0.123) == pytest.approx(_trig(0.123, X))


def test_interp_matrix_values_across_point_blocks():
    # more points than one phase-matrix block, the last block partial, and
    # matrix-valued samples whose entries interpolate independently
    X = 4.0
    x = fourier.grid(32, X)
    f = np.stack([_trig(x, X), _trig_d1(x, X), 2.0 * _trig(x, X),
                  -_trig_d1(x, X)], axis=1).reshape(32, 2, 2)
    xq = np.linspace(-1.0, 2.0 * X, 2 * fourier._INTERP_BLOCK + 37)
    want = np.stack([_trig(xq, X), _trig_d1(xq, X), 2.0 * _trig(xq, X),
                     -_trig_d1(xq, X)], axis=1).reshape(len(xq), 2, 2)
    got = fourier.interp(f, X, xq)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [8, 9, 64, 512, 2048])
@pytest.mark.parametrize("dtype", [float, complex])
def test_interp_factored_phases_match_direct(n, dtype):
    # the factored phases against the direct e^{i x k} @ coeffs, at more
    # points of one period than one block holds and at a scalar point; 9 is
    # odd, so no power of two above 1 divides it.  The random coefficients
    # fall geometrically to 1e-6 at the Nyquist mode, as a smooth
    # coefficient field's do: on a flat spectrum the two phase roundings
    # alone differ by up to |x k| 2^-53 per mode, 3e-13 at n = 2048
    rng = np.random.default_rng(n)
    X = 7.83
    m = np.fft.fftfreq(n, d=1.0 / n)
    c = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    c *= 1e-6 ** (np.abs(m) / (n / 2))[:, None]
    values = np.fft.ifft(c, axis=0) * n
    if dtype is float:
        values = values.real
    x = rng.uniform(0.0, X, fourier._INTERP_BLOCK + 77)
    coeffs = np.fft.fft(values, axis=0) / n
    want = np.exp(1j * np.outer(x, fourier.wavenumbers(n, X))) @ coeffs
    if dtype is float:
        want = want.real
    got = fourier.interp(values, X, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    one = fourier.interp(values, X, x[-1])
    assert one.shape == (2,)
    assert np.abs(one - want[-1]).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=3, max_value=6),
       st.floats(min_value=0.5, max_value=20.0))
def test_resample_roundtrip_property(p, p2, X):
    n, m = 2 ** p, 2 ** p2
    x = fourier.grid(n, X)
    f = _trig(x, X)
    up = fourier.resample(f, m)
    if m >= n:
        back = fourier.resample(up, n)
        assert np.max(np.abs(back - f)) < 1e-10
    assert up.shape == (m,)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.5, max_value=20.0))
def test_deriv_of_constant_is_zero(X):
    f = np.full(16, 2.5)
    assert np.max(np.abs(fourier.deriv(f, X))) < 1e-13


def test_fourier_coeffs_normalization():
    X = 2.0 * np.pi
    x = fourier.grid(16, X)
    c = fourier.fourier_coeffs(np.cos(x))
    assert c[1] == pytest.approx(0.5, abs=1e-14)
    assert c[-1] == pytest.approx(0.5, abs=1e-14)


def _resample_by_loop(values, n_new):
    """Resampling mode by mode: the reference for fourier.resample."""
    n = len(values)
    c = np.fft.fft(values) / n
    k_old = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    k_new = np.rint(np.fft.fftfreq(n_new, d=1.0 / n_new)).astype(int)
    pos = {k: i for i, k in enumerate(k_new)}
    out = np.zeros(n_new, dtype=complex)
    limit = min(n, n_new) // 2
    for i, k in enumerate(k_old):
        if abs(k) <= limit and k in pos:
            out[pos[k]] += c[i]
    res = np.fft.ifft(out * n_new)
    return res.real if np.isrealobj(values) else res


_RESAMPLE_N = (4, 5, 7, 8, 12, 16, 63, 64, 200, 201, 256, 1024)


@pytest.mark.parametrize("n", _RESAMPLE_N)
def test_resample_matches_the_mode_loop_bitwise(n):
    # odd and even grids both ways, real and complex: the modes the two
    # grids share land where the loop puts them, to the last bit
    rng = np.random.default_rng(n)
    real = rng.standard_normal(n)
    for values in (real, real + 1j * rng.standard_normal(n)):
        for n_new in _RESAMPLE_N + (512, 2048):
            got = fourier.resample(values, n_new)
            want = _resample_by_loop(values, n_new)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
