#!/usr/bin/env python3
"""The periodic Hilbert transform and the free evolution group.

On the torus the Hilbert transform is the Fourier multiplier -i*sgn(k): it
kills the mean, maps cos to sin, squares to minus the mean-zero projection,
and preserves every Sobolev norm.  The free equation evolves each mode by a
unit-modulus phase e^{-i*lambda_k*t}, so the flow is an isometry and a group.
"""

import numpy as np

from benctrl.cli import random_state
from benctrl.operators import evolve_free
from benctrl.spectral import TorusFunction, sobolev_norm

print(__doc__)


def hilbert_transform(f):
    return f.with_coeffs(-1j * np.sign(f.wavenumbers) * f.coeffs)


def project_mean_zero(f):
    return f.with_coeffs(np.where(f.wavenumbers == 0, 0, f.coeffs))


n = 16

# cos(x) -> sin(x)
c = np.zeros(2 * n + 1, dtype=complex)
c[n + 1] = c[n - 1] = 0.5
cos_x = TorusFunction(n, c, real_flag=True)
sin_x = hilbert_transform(cos_x)
x = np.arange(8) * (np.pi / 4)
print("H[cos] sampled at multiples of pi/4 (should be sin):")
print("  ", np.round((np.exp(1j * np.outer(x, sin_x.wavenumbers))
                      @ sin_x.coeffs).real, 12))

f = random_state(3, n, 1.0)
hf = hilbert_transform(f)
print("\nIsometry of H on the mean-zero part:")
for s in (0.0, 1.0, 2.0):
    print(f"  s={s}: |Hf|_{{H^{s}}} - |f0|_{{H^{s}}} = "
          f"{sobolev_norm(hf, s) - sobolev_norm(project_mean_zero(f), s):+.3e}")

hh = hilbert_transform(hf)
defect = np.abs(hh.coeffs + project_mean_zero(f).coeffs).max()
print(f"  H(Hf) + (f - [f]) = 0 up to {defect:.3e}")

print("\nFree evolution (alpha=1, mu=0.3):")
u = random_state(11, n, 1.0)
for t in (0.5, 2.0, 10.0):
    ut = evolve_free(u, t, 1.0, 0.3)
    back = evolve_free(ut, -t, 1.0, 0.3)
    print(f"  t={t:5.1f}: H^1 norm drift {sobolev_norm(ut, 1.0) - 1.0:+.3e}, "
          f"round-trip error {np.abs(back.coeffs - u.coeffs).max():.3e}")
