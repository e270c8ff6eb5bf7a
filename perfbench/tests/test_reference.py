"""The reference computations against slower, more direct ones."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import reference as ref


def test_exact_spectrum_finds_the_resonant_clusters():
    _, clusters, gap = ref.exact_spectrum(4, Fraction(7, 3), Fraction(0))
    assert [-2, -1] in clusters and [1, 2] in clusters
    assert all(len(c) <= 3 for c in clusters)
    _, clusters, _ = ref.exact_spectrum(4, Fraction(1), Fraction(0))
    assert [-1, 0, 1] in clusters
    lams = [ref.exact_eigenvalue(k, Fraction(7, 3), Fraction(0))
            for k in range(-4, 5)]
    distinct = sorted(set(lams))
    assert gap == min(b - a for a, b in zip(distinct, distinct[1:]))


def test_float_eigenvalues_match_exact_ones():
    exact = [float(ref.exact_eigenvalue(k, Fraction(7, 3), Fraction(3, 10)))
             for k in range(-20, 21)]
    got = ref.eigenvalues(20, 7 / 3, 0.3)
    assert np.allclose(got, exact, rtol=1e-14, atol=1e-13)


def test_raised_cosine_coefficients_match_quadrature():
    center, width, kmax = 3.0, 1.2, 12
    x = np.linspace(0.0, 2 * np.pi, 1 << 18, endpoint=False)
    y = (x - center + np.pi) % (2 * np.pi) - np.pi
    g = np.where(np.abs(y) <= width / 2,
                 (2 / width) * np.cos(np.pi * y / width) ** 2, 0.0)
    ks = np.arange(-kmax, kmax + 1)
    quad = np.array([np.mean(g * np.exp(-1j * k * x)) for k in ks])
    ghat = ref.raised_cosine_ghat(kmax, center, width)
    assert np.abs(ghat - quad).max() < 1e-9
    assert ghat[kmax] == pytest.approx(1 / (2 * np.pi), rel=1e-15)


def test_input_operator_kills_the_mean_and_is_hermitian():
    op = ref.g_operator(ref.raised_cosine_ghat(16, np.pi, np.pi / 2), 8)
    assert np.abs(op[8, :]).max() < 1e-16
    assert np.abs(op[:, 8]).max() < 1e-16
    assert np.abs(op - op.conj().T).max() < 1e-16


def test_oscillatory_integral_matches_quadrature():
    for a in (0.0, 1e-9, 0.7, -13.0, 250.0):
        re = scipy.integrate.quad(lambda t: np.cos(a * t), 0, 1.3,
                                  limit=400)[0]
        im = scipy.integrate.quad(lambda t: np.sin(a * t), 0, 1.3,
                                  limit=400)[0]
        assert ref.osc_integral(a, 1.3) == pytest.approx(re + 1j * im,
                                                         rel=1e-9, abs=1e-12)


def _small_problem():
    n = 2
    rng = np.random.default_rng(5)
    lam = ref.eigenvalues(n, 1.3, 0.2)
    op = ref.g_operator(ref.raised_cosine_ghat(2 * n, np.pi, np.pi / 2), n)
    freqs = np.array([0.0, 1.5, -4.0])
    coeffs = rng.standard_normal((2 * n + 1, 3)) \
        + 1j * rng.standard_normal((2 * n + 1, 3))
    v0 = rng.standard_normal(2 * n + 1) + 0j
    return lam, op, freqs, coeffs, v0


def test_steered_state_matches_an_ode_solve():
    lam, op, freqs, coeffs, v0 = _small_problem()
    T = 0.8

    def rhs(t, v):
        return -1j * lam * v + op @ (coeffs @ np.exp(-1j * freqs * t))

    sol = scipy.integrate.solve_ivp(rhs, (0, T), v0, method="DOP853",
                                    rtol=1e-12, atol=1e-13)
    assert np.abs(ref.steered_state(v0, op, lam, freqs, coeffs, T)
                  - sol.y[:, -1]).max() < 1e-9


def test_control_norm_matches_quadrature():
    _, _, freqs, coeffs, _ = _small_problem()
    T, s = 0.8, 1.0
    weights = ref.hs_weights(2, s)

    def density(t):
        h = coeffs @ np.exp(-1j * freqs * t)
        return float(weights @ np.abs(h) ** 2)

    quad = scipy.integrate.quad(density, 0, T, limit=200)[0]
    assert ref.control_norm(freqs, coeffs, T, s) == pytest.approx(
        np.sqrt(quad), rel=1e-10)


def test_closed_loop_trajectory_matches_expm():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    closed = np.diag(-1j * np.arange(-3.0, 4.0) ** 3) - 0.1 * (b @ b.conj().T)
    closed[3, :] = closed[:, 3] = 0.0
    v0 = rng.standard_normal(7) + 0j
    times = np.linspace(0.0, 5.0, 6)
    traj = ref.ClosedLoop(closed).trajectory(v0, times)
    for t, row in zip(times, traj):
        assert np.abs(row - scipy.linalg.expm(closed * t) @ v0).max() < 1e-12
    mean_zero = np.linalg.eigvals(np.delete(np.delete(closed, 3, 0), 3, 1))
    assert ref.ClosedLoop(closed).abscissa() == pytest.approx(
        mean_zero.real.max(), rel=1e-12)


def test_observability_delta_grows_with_the_window():
    n = 6
    lam = ref.eigenvalues(n, 1.0, 0.0)
    gg = ref.gg_star(ref.g_operator(
        ref.raised_cosine_ghat(2 * n, np.pi, np.pi / 2), n))
    deltas = [ref.observability_delta(gg, lam, T, n) for T in (0.1, 1, 4)]
    assert 0 < deltas[0] <= deltas[1] <= deltas[2]


@pytest.mark.parametrize("err,digits", [(0.0, 16), (1e-20, 16), (2e-10, 9),
                                        (1e-9, 9), (0.5, 0), (3.0, 0),
                                        (float("nan"), 0)])
def test_correct_digits(err, digits):
    assert ref.correct_digits(err) == digits
