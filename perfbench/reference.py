"""Reference computations that check benctrl's outputs from outside.

Nothing here imports benctrl.  Every quantity is rebuilt from the paper's
formulas with numpy and ``fractions`` alone, so a check that passes says the
program agrees with an implementation it does not share code with:

* eigenvalues lambda_k = k^3 + 2 mu k - alpha k |k|, in floats and exactly;
* the input operator G from the bump's Fourier coefficients;
* the state reached by a control given as sums of exponentials, integrated in
  closed form (Duhamel formula with a sinc kernel, no series switch);
* the L2([0, T]; H^s) norm of such a control;
* closed-loop trajectories by one eigendecomposition of the closed-loop
  matrix, where the program takes one matrix exponential per sample;
* Gramians in closed form, and delta(T) from the observability Gramian.

States are psi-coefficient vectors (psi_k = e^{ikx}/sqrt(2 pi)) indexed k+n.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * np.pi


# -- spectrum ------------------------------------------------------------


def eigenvalues(n: int, alpha: float, mu: float) -> np.ndarray:
    """lambda_k for k = -n..n, summed in the order the formula is written.

    Phases e^{-i lambda_k T} reach |lambda_k| T ~ 1e7 at the sizes measured,
    so one rounding of lambda_k moves a phase by ~1e-9; any other summation
    order would limit every comparison to about ten digits.
    """
    ks = np.arange(-n, n + 1, dtype=float)
    return ks**3 + 2.0 * mu * ks - alpha * ks * np.abs(ks)


def exact_eigenvalue(k: int, alpha: Fraction, mu: Fraction) -> Fraction:
    return Fraction(k) * (k * k - alpha * abs(k) + 2 * mu)


def exact_spectrum(n: int, alpha: Fraction, mu: Fraction):
    """(eigenvalues, clusters, gap) by rational arithmetic.

    Clusters are the sorted groups of wavenumbers that share an eigenvalue,
    listed in ascending order of their smallest member; the gap is the least
    distance between distinct eigenvalues.
    """
    lams = [exact_eigenvalue(k, alpha, mu) for k in range(-n, n + 1)]
    groups: dict[Fraction, list[int]] = {}
    for k, lam in zip(range(-n, n + 1), lams):
        groups.setdefault(lam, []).append(k)
    clusters = sorted(sorted(g) for g in groups.values())
    distinct = sorted(groups)
    gap = min(b - a for a, b in zip(distinct, distinct[1:]))
    return lams, clusters, gap


def window_bound(alpha: Fraction) -> int:
    return math.floor(Fraction(3, 2) * alpha) + 1


# -- input operator ------------------------------------------------------


def raised_cosine_ghat(kmax: int, center: float, width: float) -> np.ndarray:
    """Exact Fourier coefficients of g(y) = (2/w) cos^2(pi y / w), |y| <= w/2.

    ghat(k) = (1/2pi) int g(x) e^{-ikx} dx for k = -kmax..kmax; the bump is
    centred at ``center`` and has unit integral, so ghat(0) = 1/(2pi).
    """
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    a = width / 2.0
    b = TWO_PI / width

    def sin_over(x):                     # sin(x a) / x, equal to a at x = 0
        return a * np.sinc(x * a / np.pi)

    body = (2.0 * sin_over(ks) + sin_over(b - ks) + sin_over(b + ks)) / width
    return np.exp(-1j * ks * center) * body / TWO_PI


def g_operator(ghat: np.ndarray, n: int) -> np.ndarray:
    """Matrix of G on psi coefficients: (G v)_k = sum_j O[k, j] v_j.

    G(h) = g (h - int g h); projecting g psi_j and the averaged term on
    psi_k gives O[k, j] = ghat(k - j) - 2 pi ghat(k) ghat(-j).
    """
    kmax = ghat.size // 2
    if kmax < 2 * n:
        raise ValueError(f"bump band {kmax} too narrow for order {n}")
    ks = np.arange(-n, n + 1)
    g = lambda k: ghat[k + kmax]         # noqa: E731
    return g(ks[:, None] - ks[None, :]) - TWO_PI * np.outer(g(ks), g(-ks))


def gg_star(op: np.ndarray) -> np.ndarray:
    return op @ op.conj().T


# -- closed-form time integrals -----------------------------------------


def osc_integral(a, T: float) -> np.ndarray:
    """int_0^T e^{i a t} dt = T e^{i a T / 2} sinc(a T / 2), for real a."""
    a = np.asarray(a, dtype=float)
    return T * np.exp(0.5j * a * T) * np.sinc(a * T / TWO_PI)


def damped_integral(rate: float, a, T: float) -> np.ndarray:
    """int_0^T e^{(-2 rate + i a) t} dt for rate > 0."""
    z = -2.0 * rate + 1j * np.asarray(a, dtype=float)
    return np.expm1(z * T) / z


# -- controls ------------------------------------------------------------


def steered_state(v0, op, lam, freqs, coeffs, T: float) -> np.ndarray:
    """State at time T from v0 under the control sum_m E[j, m] e^{-i nu_m t}.

    v_k(T) = e^{-i lam_k T} (v0_k + sum_j O[k, j] sum_m E[j, m]
             int_0^T e^{i (lam_k - nu_m) t} dt).
    """
    forced = op @ coeffs
    kernel = osc_integral(lam[:, None] - np.asarray(freqs)[None, :], T)
    return np.exp(-1j * lam * T) * (v0 + (forced * kernel).sum(axis=1))


def control_norm(freqs, coeffs, T: float, s: float) -> float:
    """||h||_{L2([0,T]; H^s)} of h_j(t) = sum_m E[j, m] e^{-i nu_m t}."""
    freqs = np.asarray(freqs, dtype=float)
    n = (coeffs.shape[0] - 1) // 2
    gram = osc_integral(freqs[None, :] - freqs[:, None], T)
    quad = ((coeffs @ gram) * coeffs.conj()).sum(axis=1).real
    weights = hs_weights(n, s)
    return math.sqrt(max(float(weights @ quad), 0.0))


def hs_weights(n: int, s: float) -> np.ndarray:
    ks = np.arange(-n, n + 1, dtype=float)
    return (1.0 + ks * ks) ** s


def hs_norm(v, s: float) -> float:
    n = (len(v) - 1) // 2
    return math.sqrt(float(hs_weights(n, s) @ (np.abs(v) ** 2)))


# -- feedback and observability ----------------------------------------


def forward_gramian(gg, lam, T: float) -> np.ndarray:
    """int_0^T U(t) GG* U(t)^* dt with U(t) = diag(e^{-i lam t})."""
    w = gg * osc_integral(lam[None, :] - lam[:, None], T)
    return 0.5 * (w + w.conj().T)


def weighted_gramian(gg, lam, rate: float, T: float) -> np.ndarray:
    """int_0^T e^{-2 rate t} U(-t) GG* U(-t)^* dt."""
    w = gg * damped_integral(rate, lam[:, None] - lam[None, :], T)
    return 0.5 * (w + w.conj().T)


def gramian_gain(gg, lam, rate: float, T: float, n: int) -> np.ndarray:
    """K = GG* L^{-1} on the mean-zero modes, zero on mode 0."""
    keep = np.arange(-n, n + 1) != 0
    L = weighted_gramian(gg, lam, rate, T)[np.ix_(keep, keep)]
    gain = np.zeros_like(gg)
    gain[np.ix_(keep, keep)] = np.linalg.solve(L.T, gg[np.ix_(keep, keep)].T).T
    return gain


def observability_delta(gg, lam, T: float, n: int) -> float:
    """delta(T): square root of the least eigenvalue of the observability
    Gramian on the mean-zero modes."""
    keep = np.arange(-n, n + 1) != 0
    W = forward_gramian(gg, lam, T)[np.ix_(keep, keep)]
    least = float(np.linalg.eigvalsh(W)[0])
    return math.sqrt(least) if least > 0 else 0.0


class ClosedLoop:
    """Trajectories of v' = C v from one eigendecomposition.

    Both feedback laws leave mode 0 invariant, so row and column 0 of C
    vanish.  Only the mean-zero block B = V diag(w) V^-1 is decomposed and
    mode 0 is carried unchanged: an eigenvalue of roughly 1e-13 in place of
    that exact 0 would otherwise move the mean by 1e-9 over the simple law's
    horizon of 3e4, more than the fluctuation left at its end.
    """

    def __init__(self, closed_loop: np.ndarray):
        self.n = (closed_loop.shape[0] - 1) // 2
        keep = np.arange(-self.n, self.n + 1) != 0
        self.keep = keep
        block = closed_loop[np.ix_(keep, keep)]
        w, self.V = np.linalg.eig(block)
        # eig leaves each eigenvalue off by ~eps*||C|| = 4e-12 at n=32, which
        # over t = 1e4 moves an amplitude by 4e-8; the two-sided Rayleigh
        # quotient diag(V^-1 C V) is accurate to second order in that error
        self.Vinv = np.linalg.inv(self.V)
        self.w = np.sum(self.Vinv * (block @ self.V).T, axis=1)

    def abscissa(self) -> float:
        """Largest real part of the closed-loop eigenvalues off mode 0."""
        return float(self.w.real.max())

    def trajectory(self, v0, times) -> np.ndarray:
        """Rows are v(t) for t in ``times``."""
        a = self.Vinv @ v0[self.keep]
        phases = np.exp(np.outer(np.asarray(times, float), self.w))
        traj = np.empty((len(phases), len(v0)), dtype=complex)
        traj[:, self.keep] = (phases * a[None, :]) @ self.V.T
        traj[:, self.n] = v0[self.n]
        return traj


def fluctuation_norms(traj: np.ndarray, mean0: complex, s: float) -> np.ndarray:
    """||v(t) - [v0]||_{H^s} for each row of a trajectory."""
    n = (traj.shape[1] - 1) // 2
    fluct = traj.copy()
    fluct[:, n] -= mean0
    return np.sqrt((np.abs(fluct) ** 2) @ hs_weights(n, s))


def correct_digits(rel_error: float) -> int:
    """Whole correct decimal digits of a result with this relative error,
    from 0 to 16."""
    if not rel_error < 1.0:
        return 0
    return min(16, int(math.floor(-math.log10(max(rel_error, 1e-16)))))
