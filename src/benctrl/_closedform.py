"""Closed-form time integrals of exponentials.

Every time integral in the toolkit reduces to

    phi(z, T) = int_0^T e^{z t} dt  =  (e^{zT} - 1)/z     (z != 0),

evaluated by a Taylor series when |z|T is tiny so that the subtraction
e^{zT}-1 never loses precision.
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
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(w) < SERIES_THRESHOLD
    ws = w[small]
    out[small] = T * (1.0 + ws / 2.0 + ws**2 / 6.0 + ws**3 / 24.0 + ws**4 / 120.0)
    zb = z[~small]
    out[~small] = (np.exp(zb * T) - 1.0) / zb
    return out[0] if scalar else out


def phi_osc(a, T: float) -> np.ndarray:
    """int_0^T e^{i a t} dt for real frequency a (vectorized)."""
    return phi(1j * np.asarray(a, dtype=float), T)


def exp_kernel(rows, cols, T: float) -> np.ndarray:
    """int_0^T e^{i (rows_k - cols_m) t} dt for every pair (k, m).

    With rows = cols = f this is the Gram matrix of {e^{i f t}} in L2(0, T).
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(cols, dtype=float)
    return phi_osc(a[:, None] - b[None, :], T)
