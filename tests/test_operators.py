import importlib.util
from pathlib import Path

import numpy as np
import pytest

import benctrl.operators as operators
from benctrl.errors import ConfigurationError
from benctrl.operators import (apply_G, build_bump, bump_from_coefficients,
                               evolve_free, gg_star_matrix, m_matrix)
from benctrl.spectral import TWO_PI, TorusFunction, sobolev_norm
from oracles import m_entry_quadrature


def raised_cosine_ghat_exact(k, center, width):
    """Analytic Fourier coefficients of (2/w)cos^2(pi(x-x0)/w) on its support."""
    a = TWO_PI / width
    c = 2.0 / width
    if k == 0:
        return 1.0 / TWO_PI
    if abs(k) == a:
        return np.exp(-1j * k * center) / (2.0 * TWO_PI)
    return (c * np.exp(-1j * k * center) * a**2 * np.sin(k * width / 2)
            / (TWO_PI * k * (a**2 - k**2)))


def random_function(n, seed, real=True):
    rng = np.random.default_rng(seed)
    c = np.zeros(2 * n + 1, dtype=complex)
    for k in range(1, n + 1):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + k)
        c[n + k] = z
        c[n - k] = np.conj(z)
    if not real:
        c += 0.1j * rng.standard_normal(2 * n + 1)
        return TorusFunction(n, c)
    return TorusFunction(n, c, real_flag=True)


class TestBumpProfile:
    def test_unit_integral(self):
        for kind in ("uniform", "raised_cosine", "smooth_exp_bump"):
            bump = build_bump(kind=kind, kmax=16)
            assert bump.ghat_at(0).real == pytest.approx(1.0 / TWO_PI, abs=1e-12)
            assert abs(bump.ghat_at(0).imag) <= 1e-15

    def test_nonnegative_samples(self):
        x = np.linspace(0, TWO_PI, 1001)
        for kind in ("raised_cosine", "smooth_exp_bump"):
            g = operators._profile(kind, np.pi, np.pi / 2, x)
            assert g.min() >= -1e-12

    def test_hermitian_coefficients(self):
        bump = build_bump(kmax=12)
        assert np.abs(bump.ghat - np.conj(bump.ghat[::-1])).max() <= 1e-15

    def test_raised_cosine_closed_form(self):
        bump = build_bump("raised_cosine", kmax=16)
        for k in (1, 2, 3, 5, 8, -4):
            exact = raised_cosine_ghat_exact(k, np.pi, np.pi / 2)
            assert bump.ghat_at(k) == pytest.approx(exact, abs=1e-10)

    def test_support_validated(self):
        with pytest.raises(ConfigurationError):
            build_bump("raised_cosine", center=0.1, width=1.0, kmax=4)
        with pytest.raises(ConfigurationError):
            build_bump("raised_cosine", width=TWO_PI + 1, kmax=4)

    def test_negative_band_refused(self):
        for kind in operators.BUMP_KINDS:
            with pytest.raises(ConfigurationError, match="kmax must be >= 0"):
                build_bump(kind, kmax=-1)

    def test_tail_reported(self):
        coarse = build_bump("raised_cosine", kmax=8)
        fine = build_bump("raised_cosine", kmax=32)
        assert coarse.tail_l1 > fine.tail_l1 > 0  # tail mass shrinks with band

    def test_explicit_coefficients(self):
        base = build_bump(kmax=4)
        clone = bump_from_coefficients(base.ghat)
        assert np.array_equal(clone.ghat, base.ghat)
        with pytest.raises(ConfigurationError):
            bump_from_coefficients(np.ones(9))

    def test_complex_valued_localizer_rejected(self):
        # ghat(-k) = conj ghat(k) is what makes G, and every matrix built
        # on it, mirror-symmetric
        ghat = np.array(build_bump(kmax=8).ghat)
        ghat[8 + 3] += 1e-9j
        with pytest.raises(ConfigurationError, match="mirror-symmetric"):
            bump_from_coefficients(ghat)
        ghat[8 - 3] -= 1e-9j                       # conjugate pair: real again
        bump_from_coefficients(ghat)

    def test_benchmark_coefficients_accepted(self):
        # the benchmark's raised cosine in closed form departs from
        # conjugate symmetry by about 3e-17 of max|ghat|
        path = Path(__file__).parents[1] / "perfbench" / "reference.py"
        spec = importlib.util.spec_from_file_location("_reference", path)
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)
        ghat = reference.raised_cosine_ghat(64, np.pi, np.pi / 2)
        defect = np.abs(ghat - ghat[::-1].conj()).max() / np.abs(ghat).max()
        assert 0 < defect < 1e-15
        assert np.array_equal(bump_from_coefficients(ghat).ghat, ghat)

    def test_memoized_on_arguments_and_types(self):
        build_bump.cache_clear()
        bump = build_bump("raised_cosine", kmax=16)
        assert build_bump(kind="raised_cosine", center=np.pi,
                          width=np.pi / 2, kmax=16) is bump
        with pytest.raises(TypeError):    # 16.0 == 16, but is no band
            build_bump("raised_cosine", kmax=16.0)
        build_bump.cache_clear()
        fresh = build_bump("raised_cosine", kmax=16)
        assert fresh is not bump and np.array_equal(fresh.ghat, bump.ghat)


class TestApplyG:
    def test_uniform_scales_basis(self):
        bump = build_bump("uniform", kmax=16)
        for j in (1, -3, 5):
            out = apply_G(bump, TorusFunction.basis(j, 8))
            expected = TorusFunction.basis(j, 8).coeffs / TWO_PI
            assert np.abs(out.coeffs - expected).max() <= 1e-14

    def test_uniform_kills_constant(self):
        bump = build_bump("uniform", kmax=16)
        out = apply_G(bump, TorusFunction.basis(0, 8))
        assert np.abs(out.coeffs).max() <= 1e-15

    def test_constant_input_annihilated(self):
        bump = build_bump(kmax=16)
        c = np.zeros(9, dtype=complex)
        c[4] = 2.5
        out = apply_G(bump, TorusFunction(4, c, real_flag=True))
        assert np.abs(out.coeffs).max() <= 1e-14

    def test_output_mean_zero(self):
        bump = build_bump(kmax=24)
        for seed in range(5):
            h = random_function(8, seed, real=False)
            assert abs(apply_G(bump, h).coeff(0)) <= 1e-15

    def test_self_adjoint(self):
        def inner(f, g):                  # L2 inner product <f, g>
            return TWO_PI * np.vdot(g.coeffs, f.coeffs)

        bump = build_bump(kmax=24)
        for seed in range(4):
            h = random_function(8, seed, real=False)
            f = random_function(8, seed + 20, real=False)
            lhs = inner(apply_G(bump, f), h)
            rhs = inner(f, apply_G(bump, h))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_m_matrix(self):
        bump = build_bump(kmax=16)
        mm = m_matrix(bump, 8)
        h = random_function(8, seed=3, real=False)
        out = apply_G(bump, h)
        via_matrix = mm.operator @ h.psi_coeffs
        assert np.abs(out.psi_coeffs - via_matrix).max() <= 1e-13

    def test_spillover_reported(self):
        bump = build_bump(kmax=32)
        h = random_function(8, seed=1)
        out, spill = apply_G(bump, h, return_spillover=True)
        assert out.n == 8
        assert spill > 0  # the product g*h genuinely widens the band

    def test_kept_matrix_is_the_meshgrid_matrix(self):
        bump = build_bump(kmax=40)
        reach = bump.kmax - 8
        K, J = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-8, 9),
                           indexing="ij")
        fresh = bump.ghat_at(K - J) \
            - TWO_PI * bump.ghat_at(K) * bump.ghat_at(-J)
        kept = operators._widening(bump, 8)
        assert kept.tobytes() == fresh.tobytes() and not kept.flags.writeable
        assert operators._widening(build_bump(kmax=40), 8) is kept

    def test_band_limit_guard(self):
        bump = build_bump(kmax=8)
        with pytest.raises(ConfigurationError):
            apply_G(bump, random_function(6, seed=0))


class TestMMatrix:
    def test_uniform_diagonal(self):
        mm = m_matrix(build_bump("uniform", kmax=16), 8)
        expect = np.eye(17) / TWO_PI
        expect[8, 8] = 0.0
        assert np.abs(mm.entries - expect).max() <= 1e-15

    def test_zero_column_any_bump(self):
        for kind in ("raised_cosine", "smooth_exp_bump"):
            mm = m_matrix(build_bump(kind, kmax=16), 8)
            assert np.abs(mm.entries[:, 8]).max() <= 1e-12
            assert np.abs(mm.entries[8, :]).max() <= 1e-12

    def test_hermitian(self):
        mm = m_matrix(build_bump(kmax=16), 8)
        assert np.abs(mm.entries - mm.entries.conj().T).max() <= 1e-14

    def test_diagonal_formula_and_beta(self):
        bump = build_bump(kmax=16)
        mm = m_matrix(bump, 8)
        g1 = bump.ghat_at(1)
        expect = 1.0 / TWO_PI - TWO_PI * abs(g1) ** 2
        assert mm.entries[9, 9].real == pytest.approx(expect, rel=1e-12)
        assert expect > 0
        assert 0 < mm.beta <= expect

    def test_closed_form_vs_quadrature(self):
        bump = build_bump(kmax=32)
        mm = m_matrix(bump, 16)
        rng = np.random.default_rng(0)
        for _ in range(20):
            j, k = rng.integers(-16, 17, size=2)
            quad = m_entry_quadrature(int(j), int(k))
            assert abs(mm.entries[j + 16, k + 16] - quad) <= 1e-10

    def test_band_requirement(self):
        for _ in range(2):                # an error is never memoized
            with pytest.raises(ConfigurationError):
                m_matrix(build_bump(kmax=8), 8)

    def test_memoized_on_the_coefficients(self):
        m_matrix.cache_clear()
        bump = build_bump(kmax=16)
        mm = m_matrix(bump, 8)
        assert m_matrix(bump_from_coefficients(np.array(bump.ghat)), 8) is mm
        assert m_matrix(bump, 7) is not mm
        assert not mm.entries.flags.writeable

    def test_the_bump_keeps_the_bytes_it_is_keyed_on(self):
        # a bytes object caches its hash: a hit hashes no fresh copy
        bump = bump_from_coefficients(np.array(build_bump(kmax=16).ghat))
        m_matrix(bump, 8)
        key = vars(bump)["key"]
        m_matrix(bump, 8)
        assert vars(bump)["key"] is key and key == bump.ghat.tobytes()


def multiplier(k, t, alpha, mu=0):
    """Factor the free group puts on psi_k, read off the evolved basis function."""
    out = evolve_free(TorusFunction.basis(k, 8), t, alpha, mu)
    assert np.count_nonzero(out.coeffs) == 1
    return out.coeff(k) * np.sqrt(TWO_PI)


class TestPropagator:
    def test_zero_mode_and_time(self):
        assert multiplier(0, 3.7, 1.0) == pytest.approx(1.0)
        assert multiplier(5, 0.0, 2.0, 0.4) == pytest.approx(1.0)

    def test_unit_modulus(self):
        for k in range(-6, 7):
            z = multiplier(k, 1.234, 0.7, 0.3)
            assert abs(z) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_period_example(self):
        # alpha=1, k=2: lambda = 8-4 = 4; e^{-i*4*(pi/4)} = -1
        z = multiplier(2, np.pi / 4, 1.0)
        assert z == pytest.approx(-1.0, abs=1e-14)

    def test_evolution_identity_at_zero(self):
        u = random_function(8, seed=2)
        out = evolve_free(u, 0.0, 1.0)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_group_property(self):
        u = random_function(10, seed=4)
        t = 0.83
        back = evolve_free(evolve_free(u, t, 0.7, 0.2), -t, 0.7, 0.2)
        assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12

    def test_isometry(self):
        u = random_function(10, seed=5)
        for s in (0.0, 1.0, 2.0):
            before = sobolev_norm(u, s)
            after = sobolev_norm(evolve_free(u, 1.37, 1.0, 0.3), s)
            assert after == pytest.approx(before, rel=1e-12)


class TestGGStar:
    def test_uniform_diagonal(self):
        mm = m_matrix(build_bump("uniform", kmax=16), 8)
        gg = gg_star_matrix(mm)
        expect = np.eye(17) / TWO_PI**2
        expect[8, 8] = 0.0
        assert np.abs(gg - expect).max() <= 1e-15

    def test_psd(self):
        mm = m_matrix(build_bump(kmax=16), 8)
        vals = np.linalg.eigvalsh(gg_star_matrix(mm))
        assert vals.min() >= -1e-12

    def test_quadratic_form_is_g_norm(self):
        bump = build_bump(kmax=24)
        mm = m_matrix(bump, 8)
        gg = gg_star_matrix(mm)
        for seed in range(4):
            u = random_function(8, seed, real=False)
            v = u.psi_coeffs
            lhs = np.real(np.sum((gg @ v) * np.conj(v)))
            gu = apply_G(bump, u)
            rhs = sobolev_norm(gu, 0.0) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_formed_once_per_m_matrix(self):
        mm = m_matrix(build_bump(kmax=16), 8)
        gg = gg_star_matrix(mm)
        assert gg_star_matrix(mm) is gg
        assert not gg.flags.writeable
        P = mm.operator @ mm.operator.conj().T
        assert np.array_equal(gg, 0.5 * (P + P.conj().T))

    def test_kernel_contains_mode_zero(self):
        mm = m_matrix(build_bump(kmax=16), 8)
        gg = gg_star_matrix(mm)
        assert np.abs(gg[:, 8]).max() <= 1e-12
        assert np.abs(gg[8, :]).max() <= 1e-12
