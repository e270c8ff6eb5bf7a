"""Property tests of the mathematics over rational alpha (the resonant 1 and
7/3 and the formerly unordered 9/5 among them), mu, n <= 16 and T in
[0.1, 5], each against what the paper or the model guarantees:

(a) k -> -k reverses the clusters, and they partition the wavenumbers as
    the exact eigenvalues do;
(b) a control leaves mode 0, the mean, where it was;
(c) the Gramian (HUM) control is the least-norm control: no longer in L2
    than the moment control wherever that one reaches u1;
(d) the observability constant delta(T) does not decrease in T;
(e) the Gramian feedback of rate lambda places the closed loop's spectral
    abscissa at or below -lambda;
(f) the simple feedback keeps the energy identity
    d/dt(1/2||u||^2) = -||Gu||^2 to rounding, for a drawn localizer;
(g) the Gramian feedback's certificate, the Lyapunov identity
    C L + L C^* + 2 lambda L = -(Q + R) <= 0 (Komornik, SIAM J. Control
    Optim. 35, 1997), holds to rounding for lambda in (0, 4].
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benctrl.moment_control as mc
import benctrl.spectrum as spectrum_mod
import benctrl.stabilization as stab
from benctrl.cli import TERMINAL_TOL, random_state
from benctrl.operators import build_bump, gg_star_matrix, m_matrix
from oracles import brute_force_clusters

EPS = np.finfo(float).eps

ALPHAS = st.sampled_from([Fraction(1), Fraction(7, 3), Fraction(9, 5)]) \
    | st.fractions(Fraction(1, 10), 12, max_denominator=20)
MUS = st.sampled_from([Fraction(0), Fraction(41, 2)]) \
    | st.fractions(0, 25, max_denominator=4)
NS = st.integers(1, 16)
TS = st.floats(0.1, 5.0)
#: a localizer's kind, width and where its support (0.01-inset) sits
BUMPS = st.tuples(st.sampled_from(["raised_cosine", "smooth_exp_bump"]),
                  st.floats(0.3, 6.0), st.floats(0.0, 1.0))

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)


def plant(alpha, mu, n):
    """The spectrum and the m-matrix of the default bump."""
    return spectrum_mod.analyze(n, alpha, mu), m_matrix(build_bump(kmax=2 * n),
                                                        n)


def problem(alpha, mu, n, T, seed):
    """Steer a random state to another of the same mean 0.7, in L2."""
    mean = 0.7 * (np.arange(-n, n + 1) == 0)
    u0, u1 = (random_state(s, n, 0.0) for s in (seed, [seed, 1]))
    return mc.ControlProblem(alpha, mu, T, 0.0, n, build_bump(kmax=2 * n),
                             u0.with_coeffs(u0.coeffs + mean),
                             u1.with_coeffs(u1.coeffs + mean))


@PROPERTY
@given(ALPHAS, MUS, NS)
def test_clusters_reverse_and_partition(alpha, mu, n):
    spec = spectrum_mod.analyze(n, alpha, mu)
    groups, N = spec.clusters, len(spec.clusters)
    for c in range(N):
        assert groups[N - 1 - c] == tuple(sorted(-k for k in groups[c]))
        assert spec.rep_rows[N - 1 - c] == 2 * n - spec.rep_rows[c]
    assert sorted(groups) == brute_force_clusters(n, alpha, mu)


@PROPERTY
@given(ALPHAS, MUS, NS, TS, st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:.*rank-revealing:RuntimeWarning")
def test_controls_keep_mode_zero(alpha, mu, n, T, seed):
    prob = problem(alpha, mu, n, T, seed)
    spec, mm = spectrum_mod.analyze(n, alpha, mu), m_matrix(prob.bump, n)
    for signal in (mc.synthesize_control(prob, on_singular="lstsq").signal,
                   mc.hum_control(prob, spec, mm)[0]):
        # row 0 of G vanishes to rounding: the drift is eps-sized against
        # the mean and the control's whole size
        bound = EPS * (abs(prob.u0.coeffs[n])
                       + T * np.abs(signal.exp_coeffs).sum())
        for t in (0.0, T / 3, T):
            u = mc.evolve_controlled(prob.u0, signal, t, alpha, mu, mm)
            assert abs(u.coeffs[n] - prob.u0.coeffs[n]) <= bound


@PROPERTY
@given(ALPHAS, MUS, NS, TS, st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:.*rank-revealing:RuntimeWarning")
def test_hum_is_no_longer_than_the_moment_control(alpha, mu, n, T, seed):
    prob = problem(alpha, mu, n, T, seed)
    moment = mc.synthesize_control(prob, on_singular="lstsq")
    if moment.terminal_residual <= TERMINAL_TOL:
        hum, _ = mc.hum_control(prob, moment.spectrum, moment.mmatrix)
        assert hum.l2_hs_norm(0.0) <= moment.control_norm * (1 + 1e-9)


@PROPERTY
@given(ALPHAS, MUS, NS, TS, TS)
def test_delta_does_not_decrease_in_T(alpha, mu, n, T1, T2):
    spec, mm = plant(alpha, mu, n)
    (short, _), (long, _) = (stab.observability_constant(mm, spec, T)
                             for T in sorted((T1, T2)))
    # delta^2 is W_T's least eigenvalue, exact to eps ||W_T||
    top = spec.horizon(max(T1, T2)).plant(mm).forward_gramian.eigvals[-1]
    assert short**2 <= long**2 + 16 * EPS * top


@PROPERTY
@given(ALPHAS, MUS, NS, TS, st.floats(0.0, 1.0, exclude_min=True))
def test_gramian_law_decays_at_the_prescribed_rate(alpha, mu, n, T, lam):
    spec, mm = plant(alpha, mu, n)
    law = stab.feedback_gramian(stab.build_L_lambda(mm, spec, lam, T), mm,
                                spec)
    assert stab.spectral_abscissa(law) <= -lam


@PROPERTY
@given(ALPHAS, MUS, NS, BUMPS, TS, st.integers(0, 2**32 - 1))
def test_simple_law_keeps_the_energy_identity(alpha, mu, n, bump, t, seed):
    kind, width, where = bump
    center = 0.01 + width / 2 + where * (2 * np.pi - width - 0.02)
    mm = m_matrix(build_bump(kind, center, width, kmax=2 * n), n)
    spec = spectrum_mod.analyze(n, alpha, mu)
    law = stab.feedback_simple(mm, spec)
    u0 = random_state(seed, n, 0.0)
    times = (0.0, t / 2, t)
    # Re<Au, u> vanishes exactly but not in floats: each mode's product is
    # off by about eps |lambda_k| |u_k|^2, each entry of Ku by eps ||K||_inf
    # |u|; drawn defects reach 0.64 of this unit, ||Gu||^2 over 1e6 of it
    power = stab.norm_history(u0, law, times)[0.0] ** 2
    unit = EPS * (np.abs(spec.lambdas).max()
                  + np.abs(mm.gg_star).sum(axis=1).max()) * power
    assert np.all(stab.energy_identity_defect(u0, law, times) <= 4 * unit)


@PROPERTY
@given(ALPHAS, MUS, NS, TS, st.floats(0.0, 4.0, exclude_min=True))
def test_gramian_law_keeps_the_lyapunov_identity(alpha, mu, n, T, lam):
    # on the mean-zero block, with C the closed loop, L = L_lambda, Q = GG*
    # and R = e^{-2 lambda T} U(-T) Q U(-T)^*, U(-T) = diag(e^{i lambda_k T})
    spec, mm = plant(alpha, mu, n)
    L_lambda = stab.build_L_lambda(mm, spec, lam, T)
    law = stab.feedback_gramian(L_lambda, mm, spec)
    nz = spec.wavenumbers != 0
    block = np.ix_(nz, nz)
    C, L = law.closed_loop[block], L_lambda.matrix[block]
    Q = gg_star_matrix(mm)[block]
    U = np.exp(1j * spec.lambdas[nz] * T)
    R = np.exp(-2 * lam * T) * (U[:, None] * Q * U.conj()[None, :])
    lhs = C @ L + L @ C.conj().T + 2 * lam * L
    # every term is a product of C and L, so rounding scales with
    # max|C| max|L|: the drawn worst are 3.7e-16 and 5.9e-18 of it
    unit = EPS * np.abs(C).max() * np.abs(L).max()
    assert np.abs(lhs + Q + R).max() <= 64 * unit
    assert np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T))[-1] <= 64 * unit
