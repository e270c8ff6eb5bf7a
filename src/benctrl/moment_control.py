"""Exact control synthesis by the moment method, with a Gramian oracle.

Steering u0 to u1 over [0, T] reduces, after removing the free flow, to the
moment equations

    int_0^T int_T G(h)(x,t) e^{-i lam_k (T-t)} conj(psi_k(x)) dx dt = c_k,

where c = psi-coefficients of u1 - U(T)u0.  The control is sought in the
separated form h = sum_j h_j conj(q_j)(t) psi_j(x), where {q_j} is the
biorthogonal dual of the exponentials {e^{i lam t}} over the distinct
eigenvalues: plugging in decouples the moments into per-mode scalar
equations, except inside eigenvalue clusters where a 2x2 or 3x3 block of
m-matrix entries must be inverted.

Everything stays in coefficients-of-exponentials form, so moments, terminal
states, and L2-in-time norms all evaluate in closed form.  A second,
independently-derived control comes from the controllability Gramian
W_T = int_0^T U(T-s) GG* U(T-s)^* ds: h = G* U(T-t)^* W_T^{-1} c is the
minimal-L2-norm control and serves as the oracle for the moment route.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import spectrum as spectrum_mod
from ._closedform import exp_kernel
from ._memo import read_only
from .errors import ConfigurationError, SingularGramError
from .operators import BumpProfile, Gramian, MMatrix, evolve_free, m_matrix
from .spectral import TorusFunction, hs_weights, sobolev_norm
from .spectrum import GRAM_COND_LIMIT, Horizon, Spectrum, eigenvalues


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Steering task: from u0 to u1 in time T, measured in H^s, order n."""

    alpha: float
    mu: float
    T: float
    s: float
    n: int
    bump: BumpProfile
    u0: TorusFunction
    u1: TorusFunction

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ConfigurationError("horizon T must be positive and finite")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.s < 0:
            raise ConfigurationError("Sobolev index s must be >= 0")
        if self.u0.n != self.n or self.u1.n != self.n:
            raise ConfigurationError("state truncation must match problem order")
        gap = abs(self.u0.coeff(0) - self.u1.coeff(0))
        if gap > 1e-12 * max(1.0, abs(self.u1.coeff(0))):
            raise ConfigurationError(
                f"means of u0 and u1 differ by {gap:.3e}; steering preserves the mean")

    @functools.cached_property
    def target(self) -> np.ndarray:
        """``reduce_to_zero_start(self)``, formed once per problem, read-only."""
        return read_only(reduce_to_zero_start(self))


def reduce_to_zero_start(problem: ControlProblem) -> np.ndarray:
    """psi-coefficients of the reduced target u1 - U(T)u0; entry 0 vanishes."""
    drifted = evolve_free(problem.u0, problem.T, problem.alpha, problem.mu)
    return problem.u1.psi_coeffs - drifted.psi_coeffs


def build_biorthogonal(spec: Spectrum, T: float,
                       on_singular: str = "error") -> Horizon:
    """The spectrum's horizon T, which carries the biorthogonal family,
    whatever ``on_singular``.  Beyond GRAM_COND_LIMIT the family is
    degenerate: ``"error"`` raises SingularGramError naming the nearest
    pair, ``"lstsq"`` returns its least-squares duals (biorthogonal only on
    the resolvable subspace) with a warning, on every call."""
    if on_singular not in ("error", "lstsq"):
        raise ConfigurationError(
            f"on_singular must be 'error' or 'lstsq', got {on_singular!r}")
    family = spec.horizon(T)
    if family.degenerate and on_singular == "error":
        ascending = np.sort(family.lambdas)
        i = int(np.argmin(np.diff(ascending)))
        a, b = float(ascending[i]), float(ascending[i + 1])
        raise SingularGramError(
            f"Gram matrix of exponentials numerically singular "
            f"(cond={family.cond:.3e} > {GRAM_COND_LIMIT:.0e}); nearest pair "
            f"lambda={a:.6g}, {b:.6g} at distance {b - a:.3e} over "
            f"T={family.T}", pair=(a, b), cond=family.cond)
    if family.degenerate:
        warnings.warn(
            f"Gram matrix has cond {family.cond:.2e}; duals built by "
            "rank-revealing least squares, biorthogonality only approximate",
            RuntimeWarning)
    return family


def solve_coefficients(c: np.ndarray, mm: MMatrix, spec: Spectrum,
                       T: float) -> np.ndarray:
    """Amplitudes h_j of the separated control; h_0 = 0.

    Modes alone (off 0) in their cluster: h_k = c_k e^{i lam_k T} / m[k,k],
    all at once.  Inside a cluster with two or more nonzero members these
    couple through the block M_j of m-entries; the block system
    c~ = M_j^T h is solved with mode 0 removed (its moment is automatic and
    h_0 = 0, and keeping it would make the block singular since the zero
    column of m vanishes).  The blocks are the plant's (``Plant.blocks``).
    """
    n = spec.n
    c = np.asarray(c, dtype=complex)
    if abs(c[n]) > 1e-10 * max(1.0, float(np.abs(c).max())):
        raise ConfigurationError(
            f"target coefficient c_0 = {c[n]:.3e} != 0: mode 0 is unreachable")
    horizon = spec.horizon(T)
    ctil = c * horizon.phases[0]
    alone, diagonal, blocks = horizon.plant(mm).blocks
    h = np.zeros(2 * n + 1, dtype=complex)
    h[alone] = ctil[alone] / diagonal
    for pos, block_t in blocks:
        h[pos] = np.linalg.solve(block_t, ctil[pos])
    return h


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Control in coefficients-of-exponentials form.

    The psi-coefficient of mode j at time t is
    sum_m exp_coeffs[j, m] * e^{-i lambdas[m] t}; this exact representation
    drives all closed-form integrals.  Sampled (x, t) grids are generated
    only for export.  ``horizon`` is the Horizon the signal was built on,
    which the coefficient form never reads.  A route also leaves its
    ``amplitudes``: the moment route's h_j, over the horizon's duals, or
    the Gramian route's eta with its ``gramian`` W.  Its terminal state
    and L2 norm then cost (2n+1)^2 work at most.
    """

    n: int
    T: float
    lambdas: np.ndarray          # distinct eigenvalues (frequency slots)
    exp_coeffs: np.ndarray       # (2n+1) x len(lambdas)
    horizon: Horizon | None = field(default=None, repr=False)
    amplitudes: np.ndarray | None = None   # h_j, or eta with W eta = c
    gramian: Gramian | None = field(default=None, repr=False)

    def mode_values(self, times) -> np.ndarray:
        """psi-coefficients of h(., t) for each t; shape (2n+1, len(times))."""
        e = np.exp(-1j * np.outer(self.lambdas, np.asarray(times, float)))
        return self.exp_coeffs @ e

    def at_time(self, t: float) -> TorusFunction:
        return TorusFunction.from_psi_coeffs(self.mode_values([t])[:, 0], self.n)

    def sample_grid(self, xs, times) -> np.ndarray:
        """h(x, t) on a grid; shape (len(times), len(xs))."""
        xs = np.asarray(xs, dtype=float)
        ks = np.arange(-self.n, self.n + 1)
        basis = np.exp(1j * np.outer(ks, xs)) / np.sqrt(2 * np.pi)
        return self.mode_values(times).T @ basis

    def l2_hs_norm(self, s: float = 0.0) -> float:
        """||h||_{L2([0,T]; H^s)} as the quadratic form sum_j w_j Re(E_j Gamma^T E_j^H).

        Gamma^T[k, m] = int_0^T e^{-i(lam_k-lam_m)t} dt is the Gram matrix of
        the conjugate frequencies e^{-i lam t}.  A moment-route signal has
        E_j = h_j conj(D)[slot j], so its form is sum_j w_j |h_j|^2 times
        the horizon's ``slot_norms`` at slot j; at s = 0 a Gramian-route
        signal reads sqrt(Re eta^H W eta).  Otherwise Gamma comes from
        ``exp_kernel`` on the signal's own frequencies, not the horizon.
        """
        h = self.amplitudes
        if self.gramian is not None and s == 0:
            return float(np.sqrt(max(
                np.vdot(h, self.gramian.matrix @ h).real, 0.0)))
        if self.gramian is None and h is not None:
            slot_norms = self.horizon.slot_norms[self.horizon.spec.slot]
            quad = (h.real ** 2 + h.imag ** 2) * slot_norms
        else:
            gram = exp_kernel(self.lambdas, self.lambdas, self.T)
            E = self.exp_coeffs
            quad = ((E @ gram.T) * E.conj()).sum(axis=1).real
        total = float(hs_weights(self.n, s) @ quad)
        return float(np.sqrt(max(total, 0.0)))

    def hermitian_defect(self) -> float:
        """Relative deviation of h(., t) from real-valuedness, exact.

        Real h requires v_{-j}(t) = conj(v_j(t)) at every t.  The slots are
        in mirror order (slot m carries -lambda of slot N-1-m), so that is
        E = conj(flip(E)) for E = exp_coeffs, and the defect is
        max|E - conj(flip(E))| / max|E|.  Slots out of mirror order raise
        ConfigurationError.
        """
        if not np.array_equal(self.lambdas, -self.lambdas[::-1]):
            raise ConfigurationError("signal slots not in mirror order")
        E = self.exp_coeffs
        defect = np.abs(E - np.flip(E).conj()).max()
        return float(defect / max(np.abs(E).max(), 1e-300))


def assemble_control(h: np.ndarray, family: Horizon) -> ControlSignal:
    """h(x,t) = sum_j h_j conj(q_j)(t) psi_j(x) in exponential-coefficient form.

    conj(q_j) = sum_m conj(D[j, m]) e^{-i lam_m t}, D^H the horizon's
    ``duals_h``, so mode j's row is h_j times the horizon's ``mode_duals``
    row j, at the order of its spectrum.  The signal keeps horizon and h.
    """
    h = np.asarray(h, complex)
    return ControlSignal(family.spec.n, family.T, family.lambdas,
                         h[:, None] * family.mode_duals, horizon=family,
                         amplitudes=h)


def _duhamel(signal: ControlSignal, lam: np.ndarray, mm: MMatrix,
             t: float) -> np.ndarray:
    """The controlled part int_0^t U(t-s) G h(s) ds of u(t), mode by mode.

    Mode k of it is e^{-i lam_k t} int_0^t e^{i lam_k s} (G h(s))_k ds, and
    the integrand is a finite sum of exponentials, so the integral is
    sum_j op[k,j] sum_m E[j,m] phi(i(lam_k - lam_m), t), (2n+1) x N^2 work,
    reading no horizon: the reference, and the only path at other times
    and spectra and for a signal of coefficients.  At the horizon (t = T,
    lam its rows) the moment route's part is sum_j op[k,j] h_j (K D^H)[k,
    slot j] (the plant's ``weighted_moments``), the Gramian route's W eta
    if W integrates ``mm``.
    """
    horizon, h = signal.horizon, signal.amplitudes
    at_horizon = horizon is not None and t == horizon.T and (
        lam is horizon.spec.lambdas
        or np.array_equal(lam, horizon.spec.lambdas))
    if at_horizon and signal.gramian is not None \
            and signal.gramian.mmatrix is mm:
        return signal.gramian.matrix @ h
    if at_horizon and signal.gramian is None and h is not None:
        return horizon.phases[1] * (horizon.plant(mm).weighted_moments @ h)
    inner = exp_kernel(lam, signal.lambdas, t)
    return np.exp(-1j * lam * t) * (
        (mm.operator @ signal.exp_coeffs) * inner).sum(axis=1)


def verify_moments(signal: ControlSignal, c: np.ndarray, spec: Spectrum,
                   mm: MMatrix) -> dict:
    """Evaluate the moment integrals and compare with the targets c_k.

    moment_k = e^{-i lam_k T} sum_j m[j,k] int_0^T a_j(t) e^{i lam_k t} dt
    with a_j the mode-j time profile: the controlled part of u(T), so
    ``moments - c`` is the terminal miss u(T) - u1 in psi coefficients.
    Returns {"moments": ..., "max_residual": max_k |moment_k - c_k|}.
    """
    moments = _duhamel(signal, spec.lambdas, mm, signal.T)
    resid = np.abs(moments - np.asarray(c, complex))
    return {"moments": moments, "max_residual": float(resid.max())}


def evolve_controlled(u0: TorusFunction, signal: ControlSignal, t: float,
                      alpha, mu, mm: MMatrix) -> TorusFunction:
    """Variation-of-constants solution u(t) = U(t)u0 + int_0^t U(t-s) Gh(s) ds.

    Per mode u(t)_k = e^{-i lam_k t} v0_k plus the controlled part; a t
    outside [0, T], NaN among them, raises ConfigurationError.
    """
    if not 0 <= t <= signal.T + 1e-12:
        raise ConfigurationError("time must lie in [0, T]")
    lam = eigenvalues(u0.n, alpha, mu)
    v = np.exp(-1j * lam * t) * u0.psi_coeffs + _duhamel(signal, lam, mm, t)
    return TorusFunction.from_psi_coeffs(v, u0.n)


def controllability_gramian(mm: MMatrix, spec: Spectrum, T: float) -> Gramian:
    """W_T = int_0^T U(T-s) GG* U(T-s)^* ds on psi coefficients, certified.

    Substituting tau = T-s shows this is the forward-flow Gramian
    int_0^T U(tau) GG* U(tau)^* dtau, which also governs observability:
    the plant's ``forward_gramian``, ObservabilityError if singular."""
    return spec.horizon(T).plant(mm).forward_gramian


def hum_control(problem: ControlProblem, spec: Spectrum,
                mm: MMatrix) -> tuple[ControlSignal, dict]:
    """Minimal-norm control through the controllability Gramian.

    h(t) = G* U(T-t)^* eta with W_T eta = u1 - U(T)u0 on the mean-zero
    modes, by the certified W_T's eigenpairs; ``spec`` and ``mm`` are the
    problem's.  Its L2([0,T]; L2) norm sqrt(Re eta^H W_T eta) is, by the
    minimizer property, a lower bound for any steering control's.
    """
    c = problem.target
    W = controllability_gramian(mm, spec, problem.T)
    eta = W.solve(c)

    # mode-k profile: sum_l G*[k,l] eta_l e^{i lam_l (T-t)}; a cluster's
    # terms add into its slot representative first: a, b, c as (a + b) + c
    horizon = spec.horizon(problem.T)
    g_reps, g_others, others = horizon.plant(mm).adjoint
    E = g_reps * eta[spec.rep_rows]
    for column, l in zip(g_others.T, others):
        E[:, spec.slot[l]] += column * eta[l]
    E *= horizon.phases[0][spec.rep_rows]
    signal = ControlSignal(problem.n, problem.T, horizon.lambdas, E,
                           horizon=horizon, amplitudes=eta, gramian=W)
    return signal, {"cond_W": W.cond}


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """One moment-method synthesis run: its targets are ``problem.target``,
    its horizon ``signal.horizon``, cond(Gamma) ``signal.horizon.cond``."""

    problem: ControlProblem
    spectrum: Spectrum
    mmatrix: MMatrix
    signal: ControlSignal
    terminal_residual: float
    moment_residual: float
    control_norm: float
    nu_empirical: float


def _relative_miss(problem: ControlProblem, miss: np.ndarray) -> float:
    """H^s size of the terminal miss (fhat coefficients) relative to u1."""
    w = hs_weights(problem.n, problem.s)
    num = np.sqrt(np.sum(w * np.abs(miss) ** 2))
    den = np.sqrt(np.sum(w * np.abs(problem.u1.coeffs) ** 2))
    return float(num / den) if den > 0 else float(num)


def terminal_residual(problem: ControlProblem, signal: ControlSignal,
                      mm: MMatrix) -> float:
    """Relative H^s distance of the steered terminal state from u1."""
    uT = evolve_controlled(problem.u0, signal, problem.T, problem.alpha,
                           problem.mu, mm)
    return _relative_miss(problem, uT.coeffs - problem.u1.coeffs)


def synthesize_control(problem: ControlProblem,
                       on_singular: str = "error") -> SynthesisResult:
    """Full moment-method pipeline: targets, duals, amplitudes, diagnostics.

    The spectrum, m-matrix and horizon are those the memos hold."""
    spec = spectrum_mod.analyze(problem.n, problem.alpha, problem.mu)
    mm = m_matrix(problem.bump, problem.n)
    family = build_biorthogonal(spec, problem.T, on_singular=on_singular)
    c = problem.target
    h = solve_coefficients(c, mm, spec, problem.T)
    signal = assemble_control(h, family)
    check = verify_moments(signal, c, spec, mm)
    miss = TorusFunction.from_psi_coeffs(check["moments"] - c, problem.n)
    t_res = _relative_miss(problem, miss.coeffs)
    m_res = check["max_residual"]
    norm = signal.l2_hs_norm(problem.s)
    denom = sobolev_norm(problem.u0, problem.s) + sobolev_norm(problem.u1, problem.s)
    nu = norm / denom if denom > 0 else 0.0
    return SynthesisResult(problem, spec, mm, signal, t_res, m_res, norm, nu)
