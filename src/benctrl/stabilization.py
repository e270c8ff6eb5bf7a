"""Feedback laws, closed-loop simulation, and decay-rate verification.

On psi coefficients the generator is the diagonal skew matrix
A_mu = diag(-i*lambda_k).  Two feedback laws damp the mean-zero part:

  * simple:  K = GG*, closing the loop as A_mu - GG*.  The resulting energy
    identity d/dt(1/2 ||u||^2) = -||Gu||^2 makes the L2 norm nonincreasing,
    with some positive (not prescribed) exponential rate.
  * gramian: K_lambda = GG* L_lambda^{-1}, where L_lambda is the
    e^{-2*lambda*tau}-weighted Gramian over a window [0, T]; the closed loop
    then decays at least at the prescribed rate lambda.

Both laws annihilate mode 0, so the mean of the state is carried unchanged;
the fluctuation u - [u0] is propagated exactly in time from one
eigendecomposition B = V diag(w) V^-1 of the closed loop's mean-zero block,
cached on the law, which removes time discretization error from the decay
measurements.  The dispersive gaps (about k^2) dwarf ||GG*||, so B is close
to normal and V well conditioned; above ``EIG_COND_LIMIT`` each sample falls
back to a dense matrix exponential (scaling-and-squaring via scipy).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import ConfigurationError, DecayFitError, ObservabilityError
from .operators import Gramian, MMatrix, gg_star_matrix
from .spectral import TorusFunction, hs_weights
from .spectrum import Spectrum

#: norms below this are treated as floating noise and excluded from fits
NORM_FLOOR = 1e-13

#: minimal R^2 for a window to count as log-linear
FIT_R2 = 0.999

#: eigenvector condition number above which closed loops are propagated by
#: one matrix exponential per sample instead of their eigendecomposition
EIG_COND_LIMIT = 1e6


class Eigensystem(NamedTuple):
    """B = V diag(w) V^-1 for the mean-zero block B of a closed loop."""

    w: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray | None    # None above EIG_COND_LIMIT
    cond: float                # 2-norm condition number of V


@dataclass(frozen=True)
class FeedbackLaw:
    """Bounded feedback on truncated coefficients with its closed loop.

    ``matrix`` is K (the state equation is u' = A_mu u - K u);
    ``closed_loop`` is A_mu - K.  Mode 0 is invariant with zero dynamics
    under both laws.
    """

    kind: str                  # "simple" | "gramian"
    lam: float                 # requested decay rate (0 for simple)
    matrix: np.ndarray
    closed_loop: np.ndarray
    spectrum: Spectrum

    @functools.cached_property
    def eigensystem(self) -> Eigensystem:
        """Eigendecomposition of the closed loop's mean-zero block.

        ``eig`` leaves each eigenvalue off by about eps*||B||, 4e-12 at n=32,
        which over the simple law's horizon of about 3e4 moves an amplitude
        by 4e-8; the two-sided Rayleigh quotient diag(V^-1 B V) is accurate
        to second order in that error.  Above ``EIG_COND_LIMIT`` V^-1 is not
        formed and the plain eigenvalues are kept.
        """
        nz = self.spectrum.wavenumbers != 0
        block = self.closed_loop[np.ix_(nz, nz)]
        w, V = np.linalg.eig(block)
        cond = float(np.linalg.cond(V))
        if not cond <= EIG_COND_LIMIT:
            return Eigensystem(w, V, None, cond)
        Vinv = np.linalg.inv(V)
        w = np.sum(Vinv * (block @ V).T, axis=1)
        return Eigensystem(w, V, Vinv, cond)


def _generator(spec: Spectrum) -> np.ndarray:
    return np.diag(-1j * spec.lambdas)


def build_L_lambda(mm: MMatrix, spec: Spectrum, lam: float,
                   T: float) -> Gramian:
    """L_lambda = int_0^T e^{-2*lambda*tau} U_mu(-tau) GG* U_mu(-tau)^* dtau.

    Assembled in closed form (the backward-flow ``gramian`` at rate lambda)
    and certified positive definite on the mean-zero subspace.
    """
    if lam <= 0:
        raise ConfigurationError("decay rate lambda must be positive")
    if T <= 0:
        raise ConfigurationError("window T must be positive")
    return Gramian.certified(mm, spec, T, rate=lam, flow="backward")


def feedback_simple(mm: MMatrix, spec: Spectrum) -> FeedbackLaw:
    """K = GG*: closed loop A_mu - GG*, strictly stable on mean-zero modes."""
    gg = gg_star_matrix(mm)
    return FeedbackLaw("simple", 0.0, gg, _generator(spec) - gg, spec)


def feedback_gramian(L: Gramian, mm: MMatrix,
                     spec: Spectrum) -> FeedbackLaw:
    """K_lambda = GG* L_lambda^{-1} restricted to mean-zero modes.

    Both factors are Hermitian, so K_lambda is the conjugate transpose of
    L_lambda^{-1} GG*, solved through the eigenpairs of the certified
    L_lambda.  Only the mean-zero block is written: row and column 0 of GG*
    vanish only to rounding, those of K_lambda exactly.
    """
    if L.cond > 1e12:
        warnings.warn(
            f"L_lambda condition number {L.cond:.3e} > 1e12; feedback gain "
            "accuracy degraded", RuntimeWarning)
    gg = gg_star_matrix(mm)
    nz = spec.wavenumbers != 0
    K = np.zeros_like(gg)
    K[np.ix_(nz, nz)] = L.solve(gg)[np.ix_(nz, nz)].conj().T
    return FeedbackLaw("gramian", L.rate, K, _generator(spec) - K, spec)


def spectral_abscissa(law: FeedbackLaw) -> float:
    """Max real part of closed-loop eigenvalues on the mean-zero subspace."""
    return float(law.eigensystem.w.real.max())


def _propagate(law: FeedbackLaw, v0: np.ndarray, times) -> np.ndarray:
    """Rows are the psi coefficients of e^{C t} v0 for t in ``times``.

    Mode 0 is carried unchanged, so the mean is conserved exactly; above
    ``EIG_COND_LIMIT`` each time takes its own expm of the full loop.
    """
    times = np.asarray(times, dtype=float)
    es = law.eigensystem
    if es.Vinv is None:
        return np.array([sla.expm(law.closed_loop * t) @ v0 for t in times])
    nz = law.spectrum.wavenumbers != 0
    a = es.Vinv @ v0[nz]
    traj = np.empty((len(times), len(v0)), dtype=complex)
    traj[:, nz] = (np.exp(np.outer(times, es.w)) * a) @ es.V.T
    traj[:, ~nz] = v0[~nz]
    return traj


def simulate_closed_loop(u0: TorusFunction, law: FeedbackLaw | None,
                         times) -> list[TorusFunction]:
    """Closed-loop trajectory at the requested times, exact in time.

    The mean [u0] rides along unchanged (mode 0 is invariant); law=None
    is rejected.
    """
    if law is None:
        raise ConfigurationError("pass a FeedbackLaw")
    return [TorusFunction.from_psi_coeffs(v, u0.n)
            for v in _propagate(law, u0.psi_coeffs, times)]


def norm_history(u0: TorusFunction, law: FeedbackLaw, times,
                 s_values=(0.0,)) -> dict:
    """Norms of the mean-removed state along the trajectory.

    Returns {"times": ..., s: array of ||u(t) - [u0]||_{H^s}} for each s.
    """
    traj = simulate_closed_loop(u0, law, times)
    fluct = np.array([u.coeffs for u in traj], dtype=complex)
    fluct = fluct.reshape(len(traj), len(u0.coeffs))
    fluct[:, u0.n] -= u0.coeff(0)
    power = np.abs(fluct) ** 2
    out = {"times": np.asarray(times, float)}
    for s in s_values:
        out[s] = np.sqrt(2 * np.pi * (power @ hs_weights(u0.n, s)))
    return out


def energy_identity_defect(u0: TorusFunction, law: FeedbackLaw,
                           times) -> np.ndarray:
    """Defect |d/dt(1/2||u||^2) + ||Gu||^2| of the energy identity per time.

    Along u' = Cu the derivative is exactly Re<Cu, u>, and the simple law's
    G enters through K = GG*: ||Gu||^2 = <Ku, u>.  Both are evaluated on the
    trajectory of ``_propagate``, so the defect is rounding error only.
    """
    if law.kind != "simple":
        raise ConfigurationError("energy identity holds for the simple law")
    v = _propagate(law, u0.psi_coeffs, times)
    rate = np.sum((v @ law.closed_loop.T) * v.conj(), axis=1).real
    dissip = np.sum((v @ law.matrix.T) * v.conj(), axis=1).real
    return np.abs(rate + dissip)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit norm(t) ~ M * e^{-rate * t}."""

    rate: float
    M: float
    r2: float
    n_used: int
    window: tuple


def estimate_decay_rate(times, norms) -> DecayFit:
    """Fit log(norm) vs t over the longest log-linear stretch.

    Norms at or below the floating noise floor are excluded; among suffix
    windows with at least 10 samples the longest one reaching R^2 >= 0.999
    wins (falling back to the best-R^2 suffix with a warning).  Fewer than
    10 usable samples raise DecayFitError.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    keep = norms > NORM_FLOOR
    t, y = times[keep], np.log(norms[keep])
    if len(t) < 10:
        raise DecayFitError(f"only {len(t)} samples above the noise floor; "
                            "need at least 10")

    def fit(i):
        p, res = np.polyfit(t[i:], y[i:], 1, full=True)[:2]
        ybar = y[i:].mean()
        tss = float(np.sum((y[i:] - ybar) ** 2))
        rss = float(res[0]) if len(res) else 0.0
        r2 = 1.0 - rss / tss if tss > 0 else 1.0
        return p, r2

    best = None
    for i in range(0, len(t) - 9):
        p, r2 = fit(i)
        if best is None or r2 > best[2]:
            best = (i, p, r2)
        if r2 >= FIT_R2:
            return DecayFit(rate=-p[0], M=float(np.exp(p[1])), r2=r2,
                            n_used=len(t) - i,
                            window=(float(t[i]), float(t[-1])))
    i, p, r2 = best
    warnings.warn(f"no suffix window reaches R^2 >= {FIT_R2}; best is "
                  f"{r2:.6f}", RuntimeWarning)
    return DecayFit(rate=-p[0], M=float(np.exp(p[1])), r2=r2,
                    n_used=len(t) - i, window=(float(t[i]), float(t[-1])))


def observability_constant(mm: MMatrix, spec: Spectrum, T: float):
    """delta with int_0^T ||G U(-tau) phi||^2 dtau >= delta^2 ||phi||^2.

    delta^2 is the smallest eigenvalue of the observability Gramian
    int_0^T U(-tau)^* GG* U(-tau) dtau on the mean-zero subspace, read with
    its eigenvector off the certified forward Gramian; the minimizing phi
    is returned alongside.
    """
    if T <= 0:
        raise ConfigurationError("T must be positive")
    try:
        W = Gramian.certified(mm, spec, T)
    except ObservabilityError as exc:
        raise ObservabilityError(
            f"observability fails at T={T}, n={spec.n}: {exc}") from None
    phi = np.zeros(2 * spec.n + 1, dtype=complex)
    phi[spec.wavenumbers != 0] = W.eigvecs[:, 0]
    delta = float(np.sqrt(W.eigvals[0]))
    return delta, TorusFunction.from_psi_coeffs(phi, spec.n)
