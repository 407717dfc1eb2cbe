"""Fourier collocation utilities on uniform periodic grids.

All grids are uniform over [0, X) with no endpoint duplication; node counts
are powers of two so transforms never need padding logic.  Samples run along
axis 0, and `deriv` and `interp` treat trailing axes alike.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_INTERP_BLOCK = 512     # points per phase-matrix block in interp


def grid(n: int, period: float) -> np.ndarray:
    """Uniform nodes x_j = j*X/n, j = 0..n-1."""
    return np.arange(n) * (period / n)


def wavenumbers(n: int, period: float) -> np.ndarray:
    """Signed wavenumbers 2*pi*j/X in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / period


def deriv(values: np.ndarray, period: float, order: int = 1) -> np.ndarray:
    """Spectral derivative along axis 0; real samples go through rfft."""
    n = len(values)
    mult = (1j * wavenumbers(n, period)) ** order
    if order % 2 == 1 and n % 2 == 0:
        # Nyquist mode has no well-defined odd derivative; drop it.
        mult[n // 2] = 0.0
    mult = mult.reshape(n, *[1] * (values.ndim - 1))
    if np.isrealobj(values):
        return np.fft.irfft(mult[:n // 2 + 1] * np.fft.rfft(values, axis=0),
                            n, axis=0)
    return np.fft.ifft(mult * np.fft.fft(values, axis=0), axis=0)


def circulant(col: np.ndarray) -> np.ndarray:
    """The circulant C[i, j] = col[(i - j) mod n] as a read-only view.

    Windows onto two copies of the reversed col, so nothing of size n^2 is
    allocated.
    """
    n = len(col)
    return sliding_window_view(np.tile(col[::-1], 2), n)[n - 1::-1]


def diff_matrix(n: int, period: float, order: int = 1) -> np.ndarray:
    """Trigonometric differentiation matrix as a read-only view, no copy.

    Differentiation commutes with grid shifts, so D is the circulant of the
    derivative of the unit sample e_0.
    """
    return circulant(deriv(np.eye(1, n)[0], period, order))


def quad(values: np.ndarray, period: float) -> float:
    """Trapezoid rule on a periodic grid (spectrally accurate)."""
    return float(np.mean(values)) * period


def interp(values: np.ndarray, period: float, x: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Samples run along axis 0 of `values`; trailing axes (e.g. matrix
    entries) are interpolated alike and kept, so the result has shape
    (len(x), *values.shape[1:]), without the leading axis for scalar x.
    Points are evaluated _INTERP_BLOCK at a time, so the phase matrix never
    holds more than _INTERP_BLOCK rows.

    The phases factor over the signed frequency m = B h + l, with B the
    largest power of two at most sqrt(n) and -B/2 <= l < B/2:
    e^{i x k_m} = e^{i x k_{B h}} e^{i x k_l}, the product of two small
    tables.  Each point costs about n / B + B complex exponentials and n
    products instead of n exponentials.  The centred l gives the low modes
    |m| < B/2, which carry most of a smooth function's weight, their direct
    phase from the l table alone (h = 0).
    """
    values = np.asarray(values)
    n = len(values)
    coeffs = np.fft.fft(values, axis=0).reshape(n, -1) / n
    B = 1 << (n.bit_length() - 1) // 2
    m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    h = (m + B // 2) // B
    h_lo = int(h.min())
    k_hi = 2.0 * np.pi * (B * np.arange(h_lo, h.max() + 1)) / period
    k_lo = 2.0 * np.pi * np.arange(-(B // 2), B - B // 2) / period
    # coefficient rows in (h, l) order, zero where no m falls
    ordered = np.zeros((len(k_hi) * B, coeffs.shape[1]), dtype=complex)
    ordered[(h - h_lo) * B + m - B * h + B // 2] = coeffs
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((len(x_arr), coeffs.shape[1]), dtype=complex)
    for s in range(0, len(x_arr), _INTERP_BLOCK):
        xb = x_arr[s:s + _INTERP_BLOCK, None]
        ph = (np.exp(1j * xb * k_hi)[:, :, None]
              * np.exp(1j * xb * k_lo)[:, None, :])
        out[s:s + _INTERP_BLOCK] = ph.reshape(len(xb), -1) @ ordered
    out = out.reshape(len(x_arr), *values.shape[1:])
    if np.isrealobj(values):
        out = out.real
    return out if np.ndim(x) else out[0]


def fourier_coeffs(values: np.ndarray) -> np.ndarray:
    """Normalized FFT coefficients c_k with f(x) = sum c_k e^{i k 2pi x / X}."""
    return np.fft.fft(values) / len(values)


def tail_mode(values: np.ndarray, tol: float) -> int:
    """Last Fourier mode |k| of the samples above tol of their largest
    mode; 0 for samples that are zero."""
    chat = np.abs(fourier_coeffs(np.asarray(values)))
    if not chat.max() > 0.0:
        return 0
    k = np.abs(np.rint(np.fft.fftfreq(len(chat), d=1.0 / len(chat))))
    return int(k[chat > tol * chat.max()].max())


def resample(values: np.ndarray, n_new: int) -> np.ndarray:
    """Trigonometric resampling to a different node count.

    Keeps the signed modes of the smaller grid, which both grids hold.
    """
    n = len(values)
    m = min(n, n_new)
    k = np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(int)
    out = np.zeros(n_new, dtype=complex)
    out[k % n_new] = np.fft.fft(values)[k % n] / n
    res = np.fft.ifft(out * n_new)
    return res.real if np.isrealobj(values) else res
