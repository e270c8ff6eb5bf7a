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
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import spectrum as spectrum_mod
from ._closedform import exp_kernel
from ._memo import Latest, read_only
from .errors import ConfigurationError, SingularClusterBlockError, SingularGramError
from .operators import BumpProfile, Gramian, MMatrix, evolve_free, m_matrix
from .spectral import TorusFunction, hs_weights, sobolev_norm
from .spectrum import (HorizonKernel, Spectrum, eigenvalues, from_real,
                       real_form)

#: Gram matrices with condition number beyond this are declared singular.
GRAM_COND_LIMIT = 1e14

#: singular-value cutoff (relative) for the rank-revealing fallback solve
LSTSQ_RCOND = 1e-13


@dataclass(frozen=True)
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
        if self.T <= 0:
            raise ConfigurationError("horizon T must be positive")
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


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Dual family of the exponentials e^{i lam t} over distinct eigenvalues.

    ``dual_coeffs[j, m]`` expresses q_j = sum_m dual_coeffs[j, m] e^{i lam_m t};
    with the Gram matrix Gamma of the exponentials the duals are exactly the
    rows of Gamma^{-1}, one per cluster of the spectrum, in cluster order.
    ``kernel`` is the spectrum's HorizonKernel they were built on; what the
    controls of the family read (``dual_moments``, ``mode_duals``,
    ``slot_norms``, and ``weighted_moments`` per m-matrix) is formed on
    first use.  The arrays are read-only.
    """

    T: float
    lambdas: np.ndarray          # distinct eigenvalues, one per cluster
    kernel: HorizonKernel
    dual_coeffs: np.ndarray
    cond: float
    degenerate: bool = False     # rank-revealing fallback was used
    _weighted: Latest = field(default_factory=Latest, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        read_only(self.lambdas, self.dual_coeffs)

    @property
    def gram(self) -> np.ndarray:
        """Gamma[k, m] = int_0^T e^{i(lam_k-lam_m)t} dt."""
        return self.kernel.gram

    @functools.cached_property
    def dual_moments(self) -> np.ndarray:
        """(K D^H)[k, slot j] = int_0^T e^{i lam_k t} conj(q_{slot j})(t) dt.

        K is the kernel's matrix and q_{slot j} the dual of wavenumber j's
        cluster.  One (2n+1) x N x (2n+1) product, formed on first use and
        kept with the family, read-only.  Its rows at the cluster
        representatives are Gamma Gamma^{-1} = I, and it turns the Duhamel
        sum of every control the family assembles into (2n+1)^2 work (see
        ``_duhamel``).
        """
        return read_only(self.kernel.matrix @ self.mode_duals.T)

    def weighted_moments(self, mm: MMatrix) -> np.ndarray:
        """op * (K D^H) for the operator op of ``mm``, kept for the latest
        m-matrix: the moment route's Duhamel sum at the horizon needs it."""
        return self._weighted.get(
            mm, lambda: read_only(mm.operator * self.dual_moments))

    @functools.cached_property
    def mode_duals(self) -> np.ndarray:
        """conj(D)[slot]: row j is the conjugated dual of wavenumber j's
        cluster, so mode j of an assembled control is h_j times it."""
        return read_only(np.conj(self.dual_coeffs)[self.kernel.slot, :])

    @functools.cached_property
    def slot_norms(self) -> np.ndarray:
        """Re diag(D Gamma D^H), one N^3 product: ||q_c||^2 in L2(0, T) for
        each cluster c, so mode j of a control has |h_j|^2 slot_norms[slot j]."""
        D = self.dual_coeffs
        return read_only(((D @ self.gram) * D.conj()).sum(axis=1).real)


def build_biorthogonal(spec: Spectrum, T: float,
                       on_singular: str = "error") -> BiorthogonalFamily:
    """Solve for the biorthogonal duals of the distinct exponentials.

    The Gram matrix Gamma (the spectrum's ``kernel(T).gram``) has diagonal
    T and off-diagonal (e^{i(lam_k-lam_m)T} - 1)/(i(lam_k-lam_m)).  It is
    Hermitian and mirror-symmetric, so its 2-norm condition number is the
    ratio of the extreme eigenvalue magnitudes of its real form M
    (``spectrum.real_form``), and the duals come from one real solve with
    M.  When cond(Gamma) exceeds 1e14 the family is numerically dependent
    on [0, T]; the near-resonant pair is named in the error.
    ``on_singular="lstsq"`` instead builds least-squares duals by a
    rank-revealing pseudo-inverse of M and flags the family as degenerate
    (biorthogonality then holds only on the resolvable subspace), with a
    warning on every call.  The spectrum keeps the family of the latest
    (T, on_singular), so a second call returns the same read-only family.
    """
    if T <= 0:
        raise ConfigurationError("horizon T must be positive")
    T = float(T)
    family = spec._family.get((T, on_singular),
                              lambda: _biorthogonal(spec, T, on_singular))
    if family.degenerate:
        warnings.warn(
            f"Gram matrix has cond {family.cond:.2e}; duals built by "
            "rank-revealing least squares, biorthogonality only approximate",
            RuntimeWarning)
    return family


def _biorthogonal(spec: Spectrum, T: float,
                  on_singular: str) -> BiorthogonalFamily:
    lam = spec.distinct_lambdas()
    kernel = spec.kernel(T)
    gram = kernel.gram
    # the real form needs the mirror as reversal; ascending lambda is one
    perm = None if np.all(np.diff(spec.mirror) == -1) else np.argsort(lam)
    real = real_form(gram if perm is None else gram[np.ix_(perm, perm)])
    eig = np.abs(np.linalg.eigvalsh(real))
    cond = float(eig.max() / eig.min()) if eig.min() > 0 else np.inf
    degenerate = False
    if cond > GRAM_COND_LIMIT:
        if on_singular == "error":
            order = np.argsort(lam)
            gaps = np.diff(lam[order])
            i = int(np.argmin(gaps))
            raise SingularGramError(
                f"Gram matrix of exponentials numerically singular "
                f"(cond={cond:.3e} > {GRAM_COND_LIMIT:.0e}); nearest pair "
                f"lambda={lam[order[i]]:.6g}, {lam[order[i + 1]]:.6g} at "
                f"distance {gaps[i]:.3e} over T={T}",
                pair=(float(lam[order[i]]), float(lam[order[i + 1]])),
                cond=cond)
        elif on_singular == "lstsq":
            degenerate = True
        else:
            raise ValueError("on_singular must be 'error' or 'lstsq'")
    # Gamma^{-1} (or its pseudo-inverse) is Q M^{-1} Q^H, M the real form
    inv = np.linalg.pinv(real, rcond=LSTSQ_RCOND) if degenerate \
        else np.linalg.solve(real, np.eye(len(lam)))
    x = from_real(from_real(inv.T).conj().T)
    if perm is not None:
        x[np.ix_(perm, perm)] = x.copy()
    if not degenerate:
        # D = (Gamma^{-1})^H, with one refinement step against Gamma itself
        x += x @ (np.eye(len(lam)) - gram @ x)
    dual = x.conj().T
    return BiorthogonalFamily(T=T, lambdas=lam, kernel=kernel,
                              dual_coeffs=dual, cond=cond,
                              degenerate=degenerate)


def solve_coefficients(c: np.ndarray, mm: MMatrix, spec: Spectrum,
                       T: float) -> np.ndarray:
    """Amplitudes h_j of the separated control; h_0 = 0.

    Modes alone (off 0) in their cluster: h_k = c_k e^{i lam_k T} / m[k,k],
    all at once.  Inside a cluster with two or more nonzero members these
    couple through the block M_j of m-entries; the block system
    c~ = M_j^T h is solved with mode 0 removed (its moment is automatic and
    h_0 = 0, and keeping it would make the block singular since the zero
    column of m vanishes).
    """
    n = spec.n
    c = np.asarray(c, dtype=complex)
    if abs(c[n]) > 1e-10 * max(1.0, float(np.abs(c).max())):
        raise ConfigurationError(
            f"target coefficient c_0 = {c[n]:.3e} != 0: mode 0 is unreachable")
    ctil = c * spec.kernel(T).phases[0]
    nonzero = spec.wavenumbers != 0
    members = np.bincount(spec.slot[nonzero], minlength=len(spec.clusters))
    alone = nonzero & (members[spec.slot] == 1)
    h = np.zeros(2 * n + 1, dtype=complex)
    h[alone] = ctil[alone] / np.diagonal(mm.entries)[alone]
    for ci in np.flatnonzero(members >= 2):
        nz = [k for k in spec.clusters[ci] if k != 0]
        block = mm.block(nz)
        if np.linalg.cond(block) > 1e14:
            raise SingularClusterBlockError(
                f"cluster block {nz} numerically singular for this localizer")
        pos = np.add(nz, n)
        h[pos] = np.linalg.solve(block.T, ctil[pos])
    return h


@dataclass(frozen=True)
class ControlSignal:
    """Control in coefficients-of-exponentials form.

    The psi-coefficient of mode j at time t is
    sum_m exp_coeffs[j, m] * e^{-i lambdas[m] t}; this exact representation
    drives all closed-form integrals.  Sampled (x, t) grids are generated
    only for export.  ``kernel`` is the HorizonKernel of the spectrum the
    signal was built on (its columns are ``lambdas``, its horizon ``T``);
    a signal without one evaluates the same integrals on demand.

    A signal built by a route also carries what the route knows, so its
    terminal state (``_duhamel``) and its L2 norm cost (2n+1)^2 work at
    most: the moment route's amplitudes h_j with their ``family``, the
    Gramian route's eta with its certified forward Gramian W.
    """

    n: int
    T: float
    lambdas: np.ndarray          # distinct eigenvalues (frequency slots)
    exp_coeffs: np.ndarray       # (2n+1) x len(lambdas)
    amplitudes: np.ndarray | None = None   # moment route: h_j
    kernel: HorizonKernel | None = field(default=None, repr=False,
                                         compare=False)
    family: BiorthogonalFamily | None = field(default=None, repr=False,
                                              compare=False)
    eta: np.ndarray | None = None          # Gramian route: W eta = c
    gramian: Gramian | None = field(default=None, repr=False, compare=False)

    def mode_values(self, times) -> np.ndarray:
        """psi-coefficients of h(., t) for each t; shape (2n+1, len(times))."""
        e = np.exp(-1j * np.outer(self.lambdas, np.asarray(times, float)))
        return self.exp_coeffs @ e

    def at_time(self, t: float) -> TorusFunction:
        v = self.mode_values([t])[:, 0]
        return TorusFunction.from_psi_coeffs(v, self.n)

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
        the family's ``slot_norms`` at slot j; at s = 0 a Gramian-route
        signal reads sqrt(Re eta^H W eta).
        """
        if self.gramian is not None and s == 0:
            eta = self.eta
            return float(np.sqrt(max(
                np.vdot(eta, self.gramian.matrix @ eta).real, 0.0)))
        if self.family is not None:
            h, fam = self.amplitudes, self.family
            quad = (h.real ** 2 + h.imag ** 2) * fam.slot_norms[fam.kernel.slot]
        else:
            gram = self.kernel.gram if self.kernel is not None else \
                exp_kernel(self.lambdas, self.lambdas, self.T)
            E = self.exp_coeffs
            quad = ((E @ gram.T) * E.conj()).sum(axis=1).real
        total = float(hs_weights(self.n, s) @ quad)
        return float(np.sqrt(max(total, 0.0)))

    def hermitian_defect(self) -> float:
        """Relative deviation of h(., t) from real-valuedness.

        Real h requires v_{-j}(t) = conj(v_j(t)); in exponential coefficients
        that pairs slot m with the slot carrying -lambda_m.  Measured on a
        31-point time grid against the signal's own magnitude.
        """
        times = np.linspace(0.0, self.T, 31)
        v = self.mode_values(times)
        defect = np.abs(v - np.conj(v[::-1, :])).max()
        scale = max(np.abs(v).max(), 1e-300)
        return float(defect / scale)


def assemble_control(h: np.ndarray, family: BiorthogonalFamily,
                     spec: Spectrum) -> ControlSignal:
    """h(x,t) = sum_j h_j conj(q_j)(t) psi_j(x) in exponential-coefficient form.

    conj(q_j) = sum_m conj(dual_coeffs[j, m]) e^{-i lam_m t}, so mode j's
    row is h_j times the family's ``mode_duals`` row j.
    """
    h = np.asarray(h, complex)
    rows = family.mode_duals
    return ControlSignal(spec.n, family.T, family.lambdas, h[:, None] * rows,
                         amplitudes=h, kernel=family.kernel, family=family)


def _duhamel(signal: ControlSignal, lam: np.ndarray, mm: MMatrix,
             t: float) -> np.ndarray:
    """The controlled part int_0^t U(t-s) G h(s) ds of u(t), mode by mode.

    Mode k of it is e^{-i lam_k t} int_0^t e^{i lam_k s} (G h(s))_k ds, and
    the integrand is a finite sum of exponentials, so the integral is
    sum_j op[k,j] sum_m E[j,m] phi(i(lam_k - lam_m), t), (2n+1) x N^2 work
    and the only path at other times and spectra and for a signal built
    from coefficients.  At the horizon of the signal's kernel (t = T, lam
    its rows) a route-built signal needs (2n+1)^2 work: the moment route's
    E = diag(h) conj(D)[slot] sums to sum_j op[k,j] h_j (K D^H)[k, slot j]
    (the family's ``weighted_moments``), and the Gramian route's part is W
    eta when W integrates this ``mm``; the phases are the kernel's.
    """
    kern = signal.kernel
    at_horizon = kern is not None and t == kern.T and (
        lam is kern.lambdas or np.array_equal(lam, kern.lambdas))
    if at_horizon and signal.gramian is not None \
            and signal.gramian.mmatrix is mm:
        return signal.gramian.matrix @ signal.eta
    phase = kern.phases[1] if at_horizon else np.exp(-1j * lam * t)
    if at_horizon and signal.family is not None:
        return phase * (signal.family.weighted_moments(mm) @ signal.amplitudes)
    inner = kern.matrix if at_horizon else exp_kernel(lam, signal.lambdas, t)
    return phase * ((mm.operator @ signal.exp_coeffs) * inner).sum(axis=1)


def verify_moments(signal: ControlSignal, c: np.ndarray, spec: Spectrum,
                   mm: MMatrix) -> dict:
    """Evaluate the moment integrals and compare with the targets c_k.

    moment_k = e^{-i lam_k T} sum_j m[j,k] int_0^T a_j(t) e^{i lam_k t} dt
    with a_j the mode-j time profile: the controlled part of u(T), so
    ``moments - c`` is the terminal miss u(T) - u1 in psi coefficients.
    """
    moments = _duhamel(signal, spec.lambdas, mm, signal.T)
    resid = np.abs(moments - np.asarray(c, complex))
    return {"moments": moments, "max_residual": float(resid.max()),
            "residuals": resid}


def evolve_controlled(u0: TorusFunction, signal: ControlSignal, t: float,
                      alpha, mu, mm: MMatrix) -> TorusFunction:
    """Variation-of-constants solution u(t) = U(t)u0 + int_0^t U(t-s) Gh(s) ds.

    Per mode u(t)_k = e^{-i lam_k t} v0_k plus the controlled part.
    """
    if t < 0 or t > signal.T + 1e-12:
        raise ConfigurationError("time must lie in [0, T]")
    lam = eigenvalues(u0.n, alpha, mu)
    v = np.exp(-1j * lam * t) * u0.psi_coeffs + _duhamel(signal, lam, mm, t)
    return TorusFunction.from_psi_coeffs(v, u0.n)


def controllability_gramian(mm: MMatrix, spec: Spectrum, T: float) -> Gramian:
    """W_T = int_0^T U(T-s) GG* U(T-s)^* ds on psi coefficients, certified.

    Substituting tau = T-s shows this is the forward-flow Gramian
    int_0^T U(tau) GG* U(tau)^* dtau, which also governs observability;
    ObservabilityError is raised if it is singular on mean-zero modes."""
    return Gramian.certified(mm, spec, T)


def _sorted_adjoint(mm: MMatrix, spec: Spectrum) -> tuple:
    """G* with columns in the order of the cluster sums: the first member of
    every cluster, then the second members of the clusters ``pairs``, then
    the third members of the clusters ``pairs[triples]``; with that order."""
    groups = spec.clusters
    pairs = np.array([c for c, g in enumerate(groups) if len(g) > 1], np.intp)
    triples = np.flatnonzero([len(groups[c]) > 2 for c in pairs])
    order = np.add([g[0] for g in groups] + [groups[c][1] for c in pairs]
                   + [groups[c][2] for c in pairs[triples]], spec.n)
    return read_only(mm.operator.conj().T[:, order], order, pairs, triples)


def hum_control(problem: ControlProblem, spec: Spectrum | None = None,
                mm: MMatrix | None = None) -> tuple[ControlSignal, dict]:
    """Minimal-norm control through the controllability Gramian.

    h(t) = G* U(T-t)^* eta with W_T eta = u1 - U(T)u0 (restricted to
    mean-zero modes, solved through the eigenpairs of the certified W_T).
    Independent of the moment construction; by the
    minimizer property its L2([0,T]; L2) norm is a lower bound for any
    steering control's.  The signal carries eta and W_T: its controlled
    terminal state is W_T eta and its squared L2([0,T]; L2) norm
    Re eta^H W_T eta.
    """
    if spec is None:
        spec = spectrum_mod.analyze(problem.n, problem.alpha, problem.mu)
    if mm is None:
        mm = m_matrix(problem.bump, problem.n)
    c = problem.target
    W = controllability_gramian(mm, spec, problem.T)
    eta = W.solve(c)

    # mode-k profile: sum_l G*[k,l] eta_l e^{i lam_l (T-t)}; a cluster's
    # terms a, b, c add into its slot as a + (b + c), as np.add.reduce does
    gstar, order, pairs, triples = spec._adjoint.get(
        mm, lambda: _sorted_adjoint(mm, spec))
    x, N, p = eta[order], len(spec.clusters), len(pairs)
    E = gstar[:, :N] * x[:N]
    rest = gstar[:, N:N + p] * x[N:N + p]
    rest[:, triples] += gstar[:, N + p:] * x[N + p:]
    E[:, pairs] += rest
    kern = spec.kernel(problem.T)
    E *= kern.phases[0][spec.rep_rows]
    signal = ControlSignal(problem.n, problem.T, spec.distinct_lambdas(), E,
                           kernel=kern, eta=eta, gramian=W)
    return signal, {"cond_W": W.cond, "min_eig_W": W.min_eig_meanzero}


@dataclass(frozen=True)
class SynthesisResult:
    """Everything produced by one moment-method synthesis run."""

    problem: ControlProblem
    spectrum: Spectrum
    mmatrix: MMatrix
    family: BiorthogonalFamily
    targets: np.ndarray
    signal: ControlSignal
    terminal_residual: float
    moment_residual: float
    control_norm: float
    nu_empirical: float
    cond_gamma: float


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

    The spectrum, m-matrix and family are those the memos hold."""
    spec = spectrum_mod.analyze(problem.n, problem.alpha, problem.mu)
    mm = m_matrix(problem.bump, problem.n)
    family = build_biorthogonal(spec, problem.T, on_singular=on_singular)
    c = problem.target
    h = solve_coefficients(c, mm, spec, problem.T)
    signal = assemble_control(h, family, spec)
    check = verify_moments(signal, c, spec, mm)
    miss = TorusFunction.from_psi_coeffs(check["moments"] - c, problem.n)
    t_res = _relative_miss(problem, miss.coeffs)
    m_res = check["max_residual"]
    norm = signal.l2_hs_norm(problem.s)
    denom = sobolev_norm(problem.u0, problem.s) + sobolev_norm(problem.u1, problem.s)
    nu = norm / denom if denom > 0 else 0.0
    return SynthesisResult(problem, spec, mm, family, c, signal,
                           t_res, m_res, norm, nu, family.cond)
