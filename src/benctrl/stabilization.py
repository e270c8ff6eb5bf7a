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
measurements; V = Q X for the eigenvectors X of B's real form.  The gaps
(about k^2) dwarf ||GG*||, so B is close to normal and V well conditioned;
above ``EIG_COND_LIMIT`` each sample takes scipy's matrix exponential.

A law depends on the parameters only, so ``build_L_lambda``,
``feedback_simple`` and ``feedback_gramian`` keep their latest result (in a
zero-budget ``_memo.Store``), keyed on the m-matrix and L_lambda by
identity and on the spectrum's ``key``: a repeat call returns the same law
with its cached eigendecomposition, also after the spectrum was evicted
and rebuilt.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._memo import Store, read_only, stored
from .errors import ConfigurationError, DecayFitError
from .operators import Gramian, MMatrix, gg_star_matrix
from .spectral import TWO_PI, TorusFunction, hs_weights
from .spectrum import Spectrum, from_real, real_form, require_mirror

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


@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """Bounded feedback on truncated coefficients with its closed loop.

    ``matrix`` is K (the state equation is u' = A_mu u - K u);
    ``closed_loop`` is A_mu - K.  Mode 0 is invariant with zero dynamics
    under both laws.  ``gain_cond`` is the condition number of the solve
    that formed K, cond(L_lambda) for the Gramian law, whose decay rate is
    the ``rate`` of that L_lambda: the law keeps no copy of it.
    """

    kind: str                  # "simple" | "gramian"
    matrix: np.ndarray
    closed_loop: np.ndarray
    spectrum: Spectrum
    gain_cond: float = 1.0

    @functools.cached_property
    def eigensystem(self) -> Eigensystem:
        """Eigendecomposition of the closed loop's mean-zero block.

        ``eig`` leaves each eigenvalue off by about eps*||B||, 4e-12 at n=32,
        which over the simple law's horizon of about 3e4 moves an amplitude
        by 4e-8; the two-sided Rayleigh quotient diag(V^-1 B V) is accurate
        to second order in that error.  Above ``EIG_COND_LIMIT`` for cond(V) =
        cond(X), V^-1 = X^-1 Q^H is not formed.  A B not mirror-symmetric to
        the rounding of K's solve is an error.
        """
        nz = self.spectrum.wavenumbers != 0
        block = self.closed_loop[np.ix_(nz, nz)]
        require_mirror(block, "closed loop", self.gain_cond)
        w, X = np.linalg.eig(real_form(self.closed_loop)[:-1, :-1])
        cond = float(np.linalg.cond(X))
        V = from_real(X)
        if not cond <= EIG_COND_LIMIT:
            return Eigensystem(*read_only(w, V), None, cond)
        Vinv = from_real(np.linalg.inv(X).conj().T).conj().T
        w = np.sum(Vinv * (block @ V).T, axis=1)
        return Eigensystem(*read_only(w, V, Vinv), cond)


def _generator(spec: Spectrum) -> np.ndarray:
    return np.diag(-1j * spec.lambdas)


def build_L_lambda(mm: MMatrix, spec: Spectrum, lam: float,
                   T: float) -> Gramian:
    """L_lambda = int_0^T e^{-2*lambda*tau} U_mu(-tau) GG* U_mu(-tau)^* dtau.

    Assembled in closed form (the backward-flow ``gramian`` at rate lambda)
    and certified positive definite on the mean-zero subspace.  The latest
    is kept; ``cache_clear()`` forgets it; a bad rate or T is refused first.
    """
    if not 0 < lam < math.inf:
        raise ConfigurationError(
            "decay rate lambda must be positive and finite")
    if not 0 < T < math.inf:
        raise ConfigurationError("horizon T must be positive and finite")
    return _L_lambda(mm, spec, lam, T)


@stored(lambda mm, spec, lam, T: (mm, spec.key, type(lam), lam, float(T)),
        Store())
def _L_lambda(mm: MMatrix, spec: Spectrum, lam: float, T: float) -> Gramian:
    return spec.horizon(T).plant(mm).backward_gramian(lam)


build_L_lambda.cache_clear = _L_lambda.cache_clear


@stored(lambda mm, spec: (mm, spec.key), Store())
def feedback_simple(mm: MMatrix, spec: Spectrum) -> FeedbackLaw:
    """K = GG*: closed loop A_mu - GG*, strictly stable on mean-zero modes.

    The latest law is kept, its arrays read-only."""
    gg = gg_star_matrix(mm)
    return FeedbackLaw("simple", gg, read_only(_generator(spec) - gg), spec)


def feedback_gramian(L: Gramian, mm: MMatrix,
                     spec: Spectrum) -> FeedbackLaw:
    """K_lambda = GG* L_lambda^{-1} restricted to mean-zero modes.

    Both factors are Hermitian, so K_lambda is the conjugate transpose of
    L_lambda^{-1} GG*, solved through the eigenpairs of the certified
    L_lambda.  Only the mean-zero block is written: row and column 0 of GG*
    vanish only to rounding, those of K_lambda exactly.  The latest law is
    kept, its arrays read-only; a badly conditioned L warns on every call.
    """
    if L.cond > 1e12:
        warnings.warn(
            f"L_lambda condition number {L.cond:.3e} > 1e12; feedback gain "
            "accuracy degraded", RuntimeWarning)
    return _gramian_law(L, mm, spec)


@stored(lambda L, mm, spec: (L, mm, spec.key), Store())
def _gramian_law(L: Gramian, mm: MMatrix, spec: Spectrum) -> FeedbackLaw:
    gg = gg_star_matrix(mm)
    nz = spec.wavenumbers != 0
    K = np.zeros_like(gg)
    K[np.ix_(nz, nz)] = L.solve(gg)[np.ix_(nz, nz)].conj().T
    return FeedbackLaw("gramian", *read_only(K, _generator(spec) - K), spec,
                       L.cond)


feedback_gramian.cache_clear = _gramian_law.cache_clear


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
        from scipy import linalg  # the library's one scipy call, loaded here
        return np.array([linalg.expm(law.closed_loop * t) @ v0 for t in times])
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
    times = np.asarray(times, dtype=float)
    fluct = _propagate(law, u0.psi_coeffs, times) / np.sqrt(TWO_PI)
    fluct[:, u0.n] -= u0.coeffs[u0.n]
    power = np.abs(fluct) ** 2
    out = {"times": times}
    for s in s_values:
        out[s] = np.sqrt(TWO_PI * (power @ hs_weights(u0.n, s)))
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
    10 usable samples raise DecayFitError.  Every window's line and R^2
    come at once from suffix sums of the globally centred samples.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    keep = norms > NORM_FLOOR
    t, y = times[keep], np.log(norms[keep])
    if len(t) < 10:
        raise DecayFitError(f"only {len(t)} samples above the noise floor; "
                            "need at least 10")
    tc, yc = t - t.mean(), y - y.mean()
    count = np.arange(len(t), 9, -1)
    # sums over every suffix t[i:] with i <= len(t) - 10, longest first
    st, sy, stt, sty, syy = np.cumsum(np.array(
        [tc, yc, tc * tc, tc * yc, yc * yc])[:, ::-1], axis=1)[:, :8:-1]
    stt -= st * st / count
    sty -= st * sy / count
    syy -= sy * sy / count
    slope = sty / stt
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(syy > 0, slope * sty / syy, 1.0)
    hits = np.flatnonzero(r2 >= FIT_R2)
    i = int(hits[0]) if len(hits) else int(np.argmax(r2))
    if not len(hits):
        warnings.warn(f"no suffix window reaches R^2 >= {FIT_R2}; best is "
                      f"{r2[i]:.6f}", RuntimeWarning)
    intercept = (y.mean() + sy[i] / count[i]) \
        - slope[i] * (t.mean() + st[i] / count[i])
    return DecayFit(rate=-float(slope[i]), M=float(np.exp(intercept)),
                    r2=float(r2[i]), n_used=int(count[i]),
                    window=(float(t[i]), float(t[-1])))


def observability_constant(mm: MMatrix, spec: Spectrum, T: float):
    """delta with int_0^T ||G U(-tau) phi||^2 dtau >= delta^2 ||phi||^2.

    delta^2 is the smallest eigenvalue of the observability Gramian
    int_0^T U(-tau)^* GG* U(-tau) dtau on the mean-zero subspace, read with
    its eigenvector off the plant's certified forward Gramian, which
    raises ObservabilityError where it is singular or not finite; the
    minimizing phi is returned alongside.
    """
    W = spec.horizon(T).plant(mm).forward_gramian
    phi = np.zeros(2 * spec.n + 1, dtype=complex)
    phi[spec.wavenumbers != 0] = W.eigvecs[:, 0]
    delta = float(np.sqrt(W.eigvals[0]))
    return delta, TorusFunction.from_psi_coeffs(phi, spec.n)
