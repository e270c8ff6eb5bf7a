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
    abscissa at or below -lambda.
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
from benctrl.operators import build_bump, m_matrix
from oracles import brute_force_clusters

EPS = np.finfo(float).eps

ALPHAS = st.sampled_from([Fraction(1), Fraction(7, 3), Fraction(9, 5)]) \
    | st.fractions(Fraction(1, 10), 12, max_denominator=20)
MUS = st.sampled_from([Fraction(0), Fraction(41, 2)]) \
    | st.fractions(0, 25, max_denominator=4)
NS = st.integers(1, 16)
TS = st.floats(0.1, 5.0)

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
    mm = m_matrix(prob.bump, n)
    for signal in (mc.synthesize_control(prob, on_singular="lstsq").signal,
                   mc.hum_control(prob)[0]):
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
