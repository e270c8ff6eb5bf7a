#!/usr/bin/env python3
"""How much of the state can the localized region see, and how fast?

The observability constant delta(T) is the square root of the smallest
eigenvalue of int_0^T U(-tau)^* GG* U(-tau) dtau on mean-zero modes: the
worst-case energy the window [0, T] collects from a unit state.  It is
positive for every T > 0 (dispersion sweeps every mode through the bump),
but decays steeply as the window shrinks, which is exactly why short-horizon
exact control is so expensive.
"""

import numpy as np

import benctrl.spectrum as spectrum_mod
from benctrl.operators import build_bump, m_matrix
from benctrl.stabilization import observability_constant

print(__doc__)

n = 16
spec = spectrum_mod.analyze(n, 1.0)
mm = m_matrix(build_bump(kmax=2 * n), n)

print(f"  {'T':>6} {'delta(T)':>12}")
deltas = []
for T in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
    delta, minimizer = observability_constant(mm, spec, T)
    deltas.append((T, delta, minimizer))
    print(f"  {T:6.2f} {delta:12.4e}")

T, delta, minimizer = deltas[0]
x = np.arange(64) * (2 * np.pi / 64)
vals = np.abs(np.exp(1j * np.outer(x, minimizer.wavenumbers)) @ minimizer.coeffs)
peak = x[np.argmax(vals)]
print(f"\nAt T={T} the least-observable state concentrates near x = "
      f"{peak:.2f} (the bump sits at pi = {np.pi:.2f}; the hardest state "
      "hides away from it and in the cluster directions).")
