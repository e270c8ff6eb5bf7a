"""Independent quadrature oracles for the library's closed forms.

Each oracle evaluates by brute force a quantity that ``benctrl`` computes in
closed form: time integrals by composite Gauss-Legendre rules, m-matrix
entries by applying G pointwise on a uniform grid, the energy derivative by
a centred difference; the Duhamel integral of a control at 50 digits by
mpmath, and so the L2([0,T]; H^s) norm of a control; the decay-rate fit
by one ``np.polyfit`` per suffix window; phi(z, T) = int_0^T e^{zt} dt with
the quotient and the series each evaluated on its own entries only; the
scalar eigenvalue lambda_k, exact on Fractions, and the cluster partition
by grouping those eigenvalues.
``exp_gram``, ``l2_hs_norm_conjugate_gram`` and
``gramian_direct`` assemble, each on its own, the Gram matrices and
Gramians the library reads off one shared horizon kernel.
"""

import warnings
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import mpmath
import numpy as np

from benctrl._closedform import SERIES_THRESHOLD
from benctrl.errors import DecayFitError
from benctrl.operators import BUMP_SAMPLES, gg_star_matrix
from benctrl.spectral import TWO_PI, TorusFunction, hs_weights
from benctrl.spectrum import eigenvalues
from benctrl.stabilization import (FIT_R2, NORM_FLOOR, DecayFit,
                                   FeedbackLaw, simulate_closed_loop)


def eigenvalue(k: int, alpha, mu=0):
    """lambda_k = k^3 + 2*mu*k - alpha*k*|k| for one wavenumber: exact when
    alpha and mu are rationals (Fraction in, Fraction out), float otherwise."""
    if isinstance(alpha, Rational) and isinstance(mu, Rational):
        return Fraction(k**3) + 2 * Fraction(mu) * k - Fraction(alpha) * k * abs(k)
    return float(k) ** 3 + 2.0 * float(mu) * k - float(alpha) * k * abs(k)


def brute_force_clusters(n, alpha, mu):
    """Wavenumbers -n..n grouped by their Fraction eigenvalue, the groups
    sorted by smallest member."""
    by_value = {}
    for k in range(-n, n + 1):
        by_value.setdefault(eigenvalue(k, alpha, mu), []).append(k)
    return sorted(tuple(g) for g in by_value.values())


@lru_cache(maxsize=8)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre_nodes(T: float, total_nodes: int, panel_order: int = 32):
    """Composite Gauss-Legendre rule on [0, T] with ~total_nodes nodes.

    Resolves oscillations up to roughly 2*panel_order/panel_width rad, far
    beyond what a trapezoid rule of equal cost can.
    """
    x, w = _leggauss(panel_order)
    panels = max(1, int(np.ceil(total_nodes / panel_order)))
    edges = np.linspace(0.0, T, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def weighted_gramian_quadrature(gg, lams, T, rate=0.0, flow="backward",
                                total_nodes=1024):
    """int_0^T e^{-2*rate*tau} U(s*tau) gg U(s*tau)^* dtau by quadrature."""
    lams = np.asarray(lams, dtype=float)
    sign = 1.0 if flow == "backward" else -1.0
    nodes, weights = gauss_legendre_nodes(T, total_nodes)
    out = np.zeros((len(lams), len(lams)), dtype=complex)
    gg = np.asarray(gg)
    for t, w in zip(nodes, weights):
        ph = np.exp(1j * sign * lams * t) * np.exp(-rate * t)
        out += w * (ph[:, None] * gg * np.conj(ph)[None, :])
    return out


def m_entry_quadrature(j: int, k: int, samples: int = BUMP_SAMPLES) -> complex:
    """m[j,k] = int G(psi_j)(x) conj(psi_k)(x) dx on the uniform grid, for
    the default localizer: the raised cosine on (3pi/4, 5pi/4), normalized
    to unit integral by its mean on the grid.

    Samples the true profile, not its truncated coefficients.
    """
    x = np.arange(samples) * (TWO_PI / samples)
    y = x - np.pi
    g = np.where(np.abs(y) <= np.pi / 4, np.cos(2.0 * y) ** 2, 0.0)
    g = g / (TWO_PI * g.mean())
    psi_j = np.exp(1j * j * x) / np.sqrt(TWO_PI)
    avg = np.sum(g * psi_j) * (TWO_PI / samples)
    gpsi = g * (psi_j - avg)
    return complex(np.sum(gpsi * np.exp(-1j * k * x)) / np.sqrt(TWO_PI)
                   * (TWO_PI / samples))


def moments_quadrature(signal, spec, mm, total_nodes=10_016) -> np.ndarray:
    """The moments of ``verify_moments`` by composite Gauss-Legendre."""
    lam = spec.lambdas
    nodes, wts = gauss_legendre_nodes(signal.T, total_nodes)
    integ = (mm.operator @ signal.mode_values(nodes)) \
        * np.exp(1j * np.outer(lam, nodes))
    return np.exp(-1j * lam * signal.T) * (integ @ wts)


def evolve_controlled_quadrature(u0, signal, t, alpha, mu, mm,
                                 total_nodes=10_016) -> TorusFunction:
    """``evolve_controlled`` with the Duhamel integral by quadrature."""
    lam = eigenvalues(u0.n, alpha, mu)
    nodes, wts = gauss_legendre_nodes(t, total_nodes)
    forced = mm.operator @ signal.mode_values(nodes)
    duh = (forced * np.exp(1j * np.outer(lam, nodes))) @ wts
    v = np.exp(-1j * lam * t) * (u0.psi_coeffs + duh)
    return TorusFunction.from_psi_coeffs(v, u0.n)


def feedback_none(spec) -> FeedbackLaw:
    """Zero feedback: the closed loop is the free generator."""
    nd = 2 * spec.n + 1
    return FeedbackLaw("none", np.zeros((nd, nd), dtype=complex),
                       np.diag(-1j * spec.lambdas), spec)


def energy_identity_defect_centred(u0, law, times, delta=3e-8) -> np.ndarray:
    """``energy_identity_defect`` with d/dt(1/2||u||^2) as a centred difference.

    [F(t+delta) - F(t-delta)]/(2*delta) is formed from the group steps
    e^{+-C*delta}, evaluated by split even/odd Taylor series so that the
    difference of two nearly equal norms never cancels; what is left is the
    O(delta^2) discretization term.
    """
    C = law.closed_loop
    Cd = C * delta
    X = Cd @ Cd
    eye = np.eye(C.shape[0], dtype=complex)
    even = eye + X / 2 + (X @ X) / 24 + (X @ X @ X) / 720
    odd = Cd + (Cd @ X) / 6 + (Cd @ X @ X) / 120
    defects = []
    for u in simulate_closed_loop(u0, law, times):
        v = u.psi_coeffs
        a = (even + odd) @ v          # v(t + delta)
        b = (even - odd) @ v          # v(t - delta)
        d = 2.0 * (odd @ v)           # a - b without cancellation
        fdiff = 0.5 * np.real(np.sum(d * np.conj(a)) + np.sum(b * np.conj(d)))
        dissip = np.real(np.sum((law.matrix @ v) * np.conj(v)))
        defects.append(abs(fdiff / (2.0 * delta) + dissip))
    return np.asarray(defects)


def phi_masked(z, T: float) -> np.ndarray:
    """int_0^T e^{z t} dt: the series where |z|T < SERIES_THRESHOLD, the
    quotient (e^{zT} - 1)/z elsewhere, each gathered by a boolean mask."""
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


def exp_gram(freqs, T: float) -> np.ndarray:
    """Gram matrix of {e^{i f t}} in L2([0, T]), assembled on its own:
    entry (k, m) = phi(i(f_k - f_m), T)."""
    f = np.asarray(freqs, dtype=float)
    return phi_masked(1j * (f[:, None] - f[None, :]), T)


def l2_hs_norm_conjugate_gram(signal, s: float = 0.0) -> float:
    """``ControlSignal.l2_hs_norm`` from its own Gram matrix of the conjugate
    frequencies e^{-i lam t}, sum_j w_j Re(E_j Gamma(-lam) E_j^H)."""
    gram = exp_gram(-signal.lambdas, signal.T)
    E = signal.exp_coeffs
    quad = ((E @ gram) * E.conj()).sum(axis=1).real
    return float(np.sqrt(max(float(hs_weights(signal.n, s) @ quad), 0.0)))


def gramian_direct(mm, spec, T, rate=0.0, flow="forward") -> np.ndarray:
    """``operators.gramian`` assembled entry by entry on the (2n+1)^2 grid,
    GG* o phi(-2*rate -+ i(lam_k - lam_l), T) (minus for the forward flow),
    without the spectrum's kernel or its clusters."""
    lam = spec.lambdas
    sign = -1.0 if flow == "forward" else 1.0
    w = gg_star_matrix(mm) * phi_masked(-2.0 * rate + 1j * sign
                                        * (lam[:, None] - lam[None, :]), T)
    return 0.5 * (w + w.conj().T)


def duhamel_mpmath(signal, mm, lam, dps: int = 50) -> np.ndarray:
    """int_0^T e^{i lam_k t} (G h(t))_k dt of the signal's ``exp_coeffs`` at
    ``dps`` digits, for every row frequency lam_k.

    The floats of the m-matrix, the coefficients and the frequencies are
    taken as exact, and the sum over modes and slots is carried out at
    ``dps`` digits, so the cancellation between large coefficients that the
    float sums suffer does not enter.
    """
    op = mm.operator
    with mpmath.workdps(dps):
        T = mpmath.mpf(signal.T)
        nu = [mpmath.mpf(float(v)) for v in signal.lambdas]
        E = [[mpmath.mpc(complex(z)) for z in row] for row in signal.exp_coeffs]
        out = []
        for k, lk in enumerate(lam):
            lk = mpmath.mpf(float(lk))
            ker = [T if lk == v else mpmath.expm1(1j * (lk - v) * T)
                   / (1j * (lk - v)) for v in nu]
            total = mpmath.fsum(
                mpmath.mpc(complex(op[k, j])) * mpmath.fdot(E[j], ker)
                for j in range(len(E)) if op[k, j] != 0)
            out.append(complex(total))
    return np.array(out)


def l2_hs_norm_mpmath(signal, s: float = 0.0, dps: int = 50) -> float:
    """||h||_{L2([0,T]; H^s)} of the signal's ``exp_coeffs`` at ``dps``
    digits: the square root of sum_j w_j sum_{m,m'} E[j,m] conj(E[j,m'])
    int_0^T e^{-i(nu_m - nu_m')t} dt.

    The floats of the coefficients, the frequencies, T and the weights
    ``hs_weights(n, s)`` are taken as exact, so only the library's own
    rounding separates its norm from this one.
    """
    weights = hs_weights(signal.n, s)
    with mpmath.workdps(dps):
        T = mpmath.mpf(signal.T)
        nu = [mpmath.mpf(float(v)) for v in signal.lambdas]
        ker = [[T if a == b else mpmath.expm1(-1j * (a - b) * T)
                / (-1j * (a - b)) for b in nu] for a in nu]
        total = mpmath.mpf(0)
        for w, row in zip(weights, signal.exp_coeffs):
            E = [mpmath.mpc(complex(z)) for z in row]
            Ec = [mpmath.conj(z) for z in E]
            quad = mpmath.fdot(E, [mpmath.fdot(k, Ec) for k in ker])
            total += mpmath.mpf(float(w)) * quad.real
        return float(mpmath.sqrt(total))


def estimate_decay_rate_polyfit(times, norms) -> DecayFit:
    """``estimate_decay_rate`` with one ``np.polyfit`` per suffix window,
    scanned from the longest: the first window with R^2 >= FIT_R2 wins,
    else the best R^2 with a warning."""
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    keep = norms > NORM_FLOOR
    t, y = times[keep], np.log(norms[keep])
    if len(t) < 10:
        raise DecayFitError(f"only {len(t)} samples above the noise floor")

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
