"""Closed-form time integrals of exponentials.

Every time integral in the toolkit reduces to

    phi(z, T) = int_0^T e^{z t} dt  =  (e^{zT} - 1)/z     (z != 0),

with the quotient overwritten by a Taylor series where |z|T is tiny (z = 0
included), so that the subtraction e^{zT}-1 never loses precision.
``exp_kernel`` evaluates it on every pair
of an oscillating row frequency and column frequency, under an optional
exponential decay weight.
"""

from __future__ import annotations

import numpy as np

#: below this value of |z|T the series expansion replaces (e^{zT}-1)/z
SERIES_THRESHOLD = 1e-6


def phi(z, T: float) -> np.ndarray:
    """int_0^T e^{z t} dt for complex z (vectorized)."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    w = z * T
    num = np.exp(w) - 1.0
    # a denormal z overflows the complex quotient: the series replaces it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = num / z
    tiny = np.flatnonzero(np.abs(w) < SERIES_THRESHOLD)
    ws = w.flat[tiny]
    out.flat[tiny] = T * (1.0 + ws / 2.0 + ws**2 / 6.0 + ws**3 / 24.0 + ws**4 / 120.0)
    return out[0] if scalar else out


def exp_kernel(rows, cols, T: float, rate: float = 0.0) -> np.ndarray:
    """int_0^T e^{(-2 rate + i (rows_k - cols_m)) t} dt for every pair (k, m).

    With rows = cols = f and rate = 0 this is the Gram matrix of
    {e^{i f t}} in L2(0, T).
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(cols, dtype=float)
    return phi(1j * (a[:, None] - b[None, :]) - 2.0 * rate, T)
