#!/usr/bin/env python3
"""Steering the linearized Benjamin equation with a localized control.

The forcing acts only through G(h) = g*(h - int g h), with g a raised-cosine
bump on a quarter of the torus.  The moment method turns exact steering into
a family of scalar equations solved with biorthogonal exponentials; the
controllability Gramian gives an independent minimal-energy control.  Both
must land on the target; the Gramian control must use no more energy.
"""

import numpy as np

from benctrl.cli import random_state
from benctrl.moment_control import (ControlProblem, evolve_controlled,
                                    hum_control, synthesize_control,
                                    terminal_residual)
from benctrl.operators import build_bump
from benctrl.spectral import sobolev_norm

print(__doc__)

n, alpha, mu, T, s = 16, 1.0, 0.0, 1.0, 0.0
bump = build_bump("raised_cosine", kmax=2 * n)
u0 = random_state(21, n, s)
u1 = random_state(22, n, s)
problem = ControlProblem(alpha, mu, T, s, n, bump, u0, u1)

result = synthesize_control(problem)
print(f"moment method   : terminal residual {result.terminal_residual:.3e}, "
      f"moment residual {result.moment_residual:.3e}")
print(f"                  control norm {result.control_norm:.4f}, "
      f"empirical nu {result.nu_empirical:.4f}, "
      f"cond(Gamma) {result.signal.horizon.cond:.3e}")

hum_signal, info = hum_control(problem, result.spectrum, result.mmatrix)
print(f"gramian control : terminal residual "
      f"{terminal_residual(problem, hum_signal, result.mmatrix):.3e}, "
      f"control norm {hum_signal.l2_hs_norm(0.0):.4f} "
      f"(cond W = {info['cond_W']:.1e})")

print("\nState along the controlled trajectory:")
print(f"  {'t':>5} {'|u(t)|_L2':>12} {'|u(t)-u1|_L2':>14} {'mean drift':>12}")
for t in np.linspace(0.0, T, 6):
    u = evolve_controlled(u0, result.signal, float(t), alpha, mu,
                          result.mmatrix)
    err = u.with_coeffs(u.coeffs - u1.coeffs)
    print(f"  {t:5.2f} {sobolev_norm(u, 0.0):12.6f} "
          f"{sobolev_norm(err, 0.0):14.3e} "
          f"{abs(u.coeff(0) - u0.coeff(0)):12.3e}")

print("\nShorter horizons cost more control energy (same target):")
for T in (5.0, 1.0, 0.5, 0.2):
    prob = ControlProblem(alpha, mu, T, s, n, bump, u0, u1)
    res = synthesize_control(prob)
    sig, _ = hum_control(prob, res.spectrum, res.mmatrix)
    print(f"  T={T:4.1f}: |h_moment| = {res.control_norm:10.2f}, "
          f"|h_gramian| = {sig.l2_hs_norm(0.0):10.2f}, "
          f"cond(Gamma) = {res.signal.horizon.cond:.2e}")
