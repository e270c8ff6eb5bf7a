import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

import benctrl._closedform as closedform
import benctrl.operators as operators
import benctrl.spectrum as spectrum_mod
from benctrl.cli import random_state
from benctrl.errors import (ConfigurationError, ObservabilityError,
                            SingularGramError)
from benctrl.operators import (build_bump, evolve_free, gg_star_matrix,
                               gramian, m_matrix)
from benctrl.spectral import (TWO_PI, TorusFunction, hs_weights,
                              sobolev_norm)
from benctrl.stabilization import (EIG_COND_LIMIT, FeedbackLaw,
                                   build_L_lambda, energy_identity_defect,
                                   estimate_decay_rate, feedback_gramian,
                                   feedback_simple, norm_history,
                                   observability_constant,
                                   simulate_closed_loop, spectral_abscissa)
from oracles import (energy_identity_defect_centred,
                     estimate_decay_rate_polyfit, feedback_none,
                     weighted_gramian_quadrature)


def setup(n=8, alpha=1.0, mu=0.0, kind="raised_cosine"):
    spec = spectrum_mod.analyze(n, alpha, mu)
    mm = m_matrix(build_bump(kind, kmax=2 * n), n)
    return spec, mm


class TestLLambda:
    def test_diagonal_entries_closed_form(self):
        spec, mm = setup(kind="uniform")
        lam, T = 1.3, 0.8
        L = build_L_lambda(mm, spec, lam, T)
        gg = gg_star_matrix(mm)
        expect = np.diag(gg).real * (1.0 - np.exp(-2 * lam * T)) / (2 * lam)
        assert np.abs(np.diag(L.matrix).real - expect).max() <= 1e-14

    def test_uniform_is_diagonal(self):
        spec, mm = setup(kind="uniform")
        L = build_L_lambda(mm, spec, 1.0, 1.0)
        off = L.matrix - np.diag(np.diag(L.matrix))
        assert np.abs(off).max() <= 1e-15

    def test_small_lambda_limit_recovers_unweighted(self):
        spec, mm = setup()
        gg = gg_star_matrix(mm)
        L = build_L_lambda(mm, spec, 1e-8, 1.0)
        unweighted = gramian(mm, spec.horizon(1.0), flow="backward")
        assert np.abs(L.matrix - unweighted).max() <= 1e-7
        quad = weighted_gramian_quadrature(gg, spec.lambdas, 1.0, rate=0.0,
                                           total_nodes=2048)
        assert np.abs(unweighted - quad).max() <= 1e-9

    def test_closed_form_vs_quadrature(self):
        spec, mm = setup()
        gg = gg_star_matrix(mm)
        lam, T = 0.7, 1.0
        L = build_L_lambda(mm, spec, lam, T)
        quad = weighted_gramian_quadrature(gg, spec.lambdas, T, rate=lam,
                                           total_nodes=1024)
        scale = np.abs(L.matrix).max()
        assert np.abs(L.matrix - quad).max() <= 1e-9 * scale

    def test_positive_definite_on_mean_zero(self):
        spec, mm = setup(n=16)
        L = build_L_lambda(mm, spec, 2.0, 1.0)
        assert L.eigvals[0] > 0
        assert L.cond < 1e12

    def test_validation(self):
        spec, mm = setup()
        with pytest.raises(ConfigurationError):
            build_L_lambda(mm, spec, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            build_L_lambda(mm, spec, 1.0, 0.0)

    @pytest.mark.parametrize("T", [float("nan"), 0.0, -1.0, float("inf")])
    def test_a_bad_horizon_is_refused_before_the_memo(self, T):
        # the kept L_lambda is not evicted by a call that is refused
        spec, mm = setup()
        L = build_L_lambda(mm, spec, 1.0, 1.0)
        with pytest.raises(ConfigurationError,
                           match="horizon T must be positive and finite"):
            build_L_lambda(mm, spec, 1.0, T)
        assert build_L_lambda(mm, spec, 1.0, 1.0) is L


class TestSimpleFeedback:
    def test_uniform_closed_loop_eigenvalues(self):
        spec, mm = setup(kind="uniform")
        law = feedback_simple(mm, spec)
        nz = spec.wavenumbers != 0
        ev = np.sort_complex(np.linalg.eigvals(law.closed_loop[np.ix_(nz, nz)]))
        lam_nz = spec.lambdas[nz]
        expect = np.sort_complex(-1.0 / TWO_PI**2 + 1j * lam_nz)
        assert np.abs(ev - expect).max() <= 1e-12

    def test_abscissa_negative(self):
        for alpha, mu in [(1.0, 0.0), (0.1, 0.3), (7 / 3, 0.0)]:
            spec, mm = setup(n=12, alpha=alpha, mu=mu)
            law = feedback_simple(mm, spec)
            assert spectral_abscissa(law) < 0

    def test_energy_identity(self):
        spec, mm = setup(n=16)
        law = feedback_simple(mm, spec)
        u0 = random_state(3, 16, 1.0)
        times = np.linspace(1.0, 400.0, 20)
        defects = energy_identity_defect(u0, law, times)
        assert defects.max() <= 1e-10  # u0 has unit H^1 norm, L2 norm < 1

    def test_energy_identity_matches_centred_difference(self):
        spec, mm = setup(n=16)
        law = feedback_simple(mm, spec)
        u0 = random_state(3, 16, 1.0)
        times = np.linspace(1.0, 400.0, 20)
        exact = energy_identity_defect(u0, law, times)
        centred = energy_identity_defect_centred(u0, law, times)
        assert np.abs(exact - centred).max() <= 1e-10

    def test_energy_identity_sees_a_perturbed_loop(self):
        # C + 0.1*I on the mean-zero modes adds 0.1*||u - [u]||^2 to
        # d/dt(1/2||u||^2) and leaves <Ku, u> alone; the loop now grows, so
        # the horizon is short and each time is checked on its own scale
        spec, mm = setup(n=16)
        simple = feedback_simple(mm, spec)
        shift = 0.1 * np.diag((spec.wavenumbers != 0).astype(float))
        law = FeedbackLaw("simple", simple.matrix,
                          simple.closed_loop + shift, spec)
        u0 = random_state(3, 16, 1.0)
        times = np.linspace(1.0, 40.0, 20)
        traj = simulate_closed_loop(u0, law, times)
        fluct = np.array([np.delete(u.psi_coeffs, 16) for u in traj])
        expect = 0.1 * np.sum(np.abs(fluct) ** 2, axis=1)
        defects = energy_identity_defect(u0, law, times)
        assert np.all(np.abs(defects - expect) <= 1e-10 * expect)
        centred = energy_identity_defect_centred(u0, law, times)
        assert np.all(np.abs(centred - expect) <= 1e-8 * expect)

    def test_monotone_decay(self):
        spec, mm = setup(n=12)
        law = feedback_simple(mm, spec)
        u0 = random_state(9, 12, 0.0)
        hist = norm_history(u0, law, np.linspace(0, 50, 40))
        norms = hist[0.0]
        assert np.all(norms[1:] <= norms[:-1] * (1 + 1e-12))

    def test_zero_stays_zero(self):
        spec, mm = setup()
        law = feedback_simple(mm, spec)
        traj = simulate_closed_loop(TorusFunction.zero(8), law, [0.0, 1.0, 5.0])
        assert all(np.abs(u.coeffs).max() == 0 for u in traj)

    def test_constant_state_invariant(self):
        spec, mm = setup()
        c = np.zeros(17, dtype=complex)
        c[8] = 0.7
        u0 = TorusFunction(8, c, real_flag=True)
        traj = simulate_closed_loop(u0, feedback_simple(mm, spec), [0.5, 2.0])
        for u in traj:
            assert np.abs(u.coeffs - u0.coeffs).max() <= 1e-14

    def test_mean_invariant(self):
        spec, mm = setup()
        u0 = random_state(4, 8, 0.0)
        u0 = u0.with_coeffs(u0.coeffs + np.eye(1, 17, 8)[0] * 0.3)
        for u in simulate_closed_loop(u0, feedback_simple(mm, spec), [1.0, 10.0]):
            assert abs(u.coeff(0) - 0.3) <= 1e-12


class TestGramianFeedback:
    def test_uniform_per_mode_rate(self):
        spec, mm = setup(kind="uniform")
        lam, T = 1.0, 1.0
        L = build_L_lambda(mm, spec, lam, T)
        law = feedback_gramian(L, mm, spec)
        nz = spec.wavenumbers != 0
        rates = np.diag(law.matrix)[nz].real
        expect = 2 * lam / (1.0 - np.exp(-2 * lam * T))
        assert np.abs(rates - expect).max() <= 1e-12
        assert expect >= 2 * lam

    def test_prescribed_rate_achieved(self):
        spec, mm = setup(n=16)
        for lam in (0.5, 1.0, 2.0):
            L = build_L_lambda(mm, spec, lam, 1.0)
            law = feedback_gramian(L, mm, spec)
            assert spectral_abscissa(law) <= -lam * (1 - 1e-6)

    @pytest.mark.parametrize("alpha,mu,lam", [(1.0, 0.3, 1.0), (7 / 3, 0.0, 1.0),
                                              (0.1, 0.3, 0.5)])
    def test_gain_to_thirty_digits(self, alpha, mu, lam):
        mp = pytest.importorskip("mpmath")
        spec, mm = setup(alpha=alpha, mu=mu)
        L = build_L_lambda(mm, spec, lam, 1.0)
        law = feedback_gramian(L, mm, spec)
        nz = spec.wavenumbers != 0
        gg = gg_star_matrix(mm)[np.ix_(nz, nz)]
        with mp.workdps(30):
            exact = mp.matrix(gg.tolist()) \
                * mp.matrix(L.matrix[np.ix_(nz, nz)].tolist()) ** -1
            exact = np.array(exact.tolist(), dtype=complex)
        got = law.matrix[np.ix_(nz, nz)]
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_mode_zero_annihilated(self):
        spec, mm = setup()
        L = build_L_lambda(mm, spec, 1.0, 1.0)
        law = feedback_gramian(L, mm, spec)
        assert np.abs(law.matrix[:, 8]).max() == 0.0
        assert np.abs(law.matrix[8, :]).max() == 0.0


class TestSimulation:
    def test_zero_feedback_matches_free_flow(self):
        spec, _ = setup(alpha=0.7, mu=0.2)
        u0 = random_state(12, 8, 0.0)
        for t, u in zip([0.3, 1.1], simulate_closed_loop(
                u0, feedback_none(spec), [0.3, 1.1])):
            free = evolve_free(u0, t, 0.7, 0.2)
            assert np.abs(u.coeffs - free.coeffs).max() <= 1e-10

    def test_requires_law(self):
        with pytest.raises(ConfigurationError):
            simulate_closed_loop(TorusFunction.zero(4), None, [1.0])


def law_at_n32(kind, alpha):
    spec, mm = setup(n=32, alpha=alpha)
    if kind == "simple":
        return feedback_simple(mm, spec)
    return feedback_gramian(build_L_lambda(mm, spec, 1.0, 1.0), mm, spec)


LAWS_N32 = [("simple", 1.0), ("simple", 7 / 3), ("gramian", 1.0),
            ("gramian", 7 / 3)]


def sampled_norms(u0, law, times, s):
    """||u(t) - [u0]||_{H^s} from one TorusFunction per sample."""
    out = []
    for u in simulate_closed_loop(u0, law, times):
        c = u.coeffs.copy()
        c[u0.n] -= u0.coeff(0)
        out.append(sobolev_norm(TorusFunction(u0.n, c), s))
    return np.array(out)


#: the unitary Q of ``spectrum.real_form`` on the 4 mean-zero modes at n=2
Q4 = spectrum_mod.from_real(np.eye(4))


def jordan_law(similar=Q4):
    """A closed loop whose mean-zero block is similar(-I + N)similar^H, N
    one Jordan block: its eigenvectors are degenerate, so it is propagated
    by expm.  Under Q4 the block is mirror-symmetric, as every closed loop
    of a real equation is; under the identity it is not."""
    spec = spectrum_mod.analyze(2, 1.0)
    nz = spec.wavenumbers != 0
    C = np.zeros((5, 5), dtype=complex)
    C[np.ix_(nz, nz)] = similar @ (-np.eye(4) + np.eye(4, k=1)) \
        @ similar.conj().T
    return FeedbackLaw("jordan", -C, C, spec)


class TestEigenPropagation:
    @pytest.mark.parametrize("kind,alpha", LAWS_N32)
    def test_norm_history_matches_expm_per_sample(self, kind, alpha):
        law = law_at_n32(kind, alpha)
        assert law.eigensystem.Vinv is not None
        u0 = random_state(31, 32, 0.0)
        times = np.linspace(0.0, 12.0 / abs(spectral_abscissa(law)), 25)
        hist = norm_history(u0, law, times)
        ref = np.array([np.linalg.norm(sla.expm(law.closed_loop * t)
                                       @ u0.psi_coeffs) for t in times])
        # at alpha=7/3 the simple law's horizon is 8e4, and there expm
        # itself missed a 30-digit eigendecomposition by up to 1.3e-9 of the
        # initial norm on the states tried (this path by 3e-13)
        tol = 1e-8 if (kind, alpha) == ("simple", 7 / 3) else 1e-9
        assert np.abs(hist[0.0] - ref).max() <= tol * ref[0]

    @pytest.mark.parametrize("kind,alpha", LAWS_N32)
    def test_abscissa_matches_eigvals(self, kind, alpha):
        law = law_at_n32(kind, alpha)
        nz = law.spectrum.wavenumbers != 0
        block = law.closed_loop[np.ix_(nz, nz)]
        plain = np.linalg.eigvals(block).real.max()
        # eigvals is accurate to about eps*||B|| only, which is 1e-9 relative
        # to the simple law's abscissa of about -1e-4
        tol = max(1e-10 * abs(plain),
                  4 * np.finfo(float).eps * np.linalg.norm(block, 2))
        assert abs(spectral_abscissa(law) - plain) <= tol

    def test_abscissa_to_thirty_digits(self):
        mp = pytest.importorskip("mpmath")
        spec, mm = setup()
        law = feedback_simple(mm, spec)
        nz = spec.wavenumbers != 0
        block = law.closed_loop[np.ix_(nz, nz)].tolist()
        with mp.workdps(30):
            ev = mp.eig(mp.matrix(block), left=False, right=False)
            exact = max(float(mp.re(e)) for e in ev)
        # plain eig is off by 2.6e-12 relative here, the Rayleigh quotient
        # by 7e-16
        assert spectral_abscissa(law) == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("kind,alpha", LAWS_N32)
    def test_norm_history_matches_the_sampled_trajectory(self, kind, alpha):
        law = law_at_n32(kind, alpha)
        u0 = random_state(37, 32, 1.0)
        u0 = u0.with_coeffs(u0.coeffs + 0.4 * (u0.wavenumbers == 0))
        times = np.linspace(0.0, 12.0 / abs(spectral_abscissa(law)), 30)
        hist = norm_history(u0, law, times, s_values=(0.0, 1.0))
        for s in (0.0, 1.0):
            ref = sampled_norms(u0, law, times, s)
            assert np.all(np.abs(hist[s] - ref) <= 1e-14 * ref)

    def test_norm_history_on_the_expm_fallback(self):
        law = jordan_law()
        u0 = TorusFunction(2, np.array([0.3, -0.2j, 0.5, 1.0, 0.4]))
        times = [0.0, 0.5, 2.0, 7.0]
        hist = norm_history(u0, law, times, s_values=(0.0, 2.0))
        for s in (0.0, 2.0):
            ref = sampled_norms(u0, law, times, s)
            assert np.all(np.abs(hist[s] - ref) <= 1e-14 * ref)

    def test_fallback_reads_expm_off_scipy_linalg(self, monkeypatch):
        """Each call looks ``scipy.linalg.expm`` up anew, so a wrapper put
        on the module attribute (as a tracer does) sees every sample."""
        calls, original = [], sla.expm

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(sla, "expm", counted)
        u0 = TorusFunction(2, np.array([0.3, -0.2j, 0.5, 1.0, 0.4]))
        simulate_closed_loop(u0, jordan_law(), [0.0, 0.5, 2.0])
        assert len(calls) == 3

    def test_jordan_block_falls_back_to_expm(self):
        law = jordan_law()
        nz = law.spectrum.wavenumbers != 0
        N = np.eye(4, k=1)
        assert law.eigensystem.cond > EIG_COND_LIMIT
        assert law.eigensystem.Vinv is None
        u0 = TorusFunction(2, np.array([0.3, -0.2j, 0.5, 1.0, 0.4]))
        times = [0.0, 0.5, 2.0, 7.0]
        for t, u in zip(times, simulate_closed_loop(u0, law, times)):
            tN = t * N
            exact = np.exp(-t) * Q4 @ (np.eye(4) + tN + tN @ tN / 2
                                       + tN @ tN @ tN / 6) \
                @ Q4.conj().T @ u0.coeffs[nz]
            assert np.abs(u.coeffs[nz] - exact).max() <= 1e-14
            assert u.coeff(0) == u0.coeff(0)

    def test_a_loop_without_mirror_symmetry_is_rejected(self):
        # -I + N on the modes in their own order breaks B[::-1, ::-1] =
        # conj(B); a real equation cannot produce it
        law = jordan_law(similar=np.eye(4))
        with pytest.raises(ConfigurationError, match="mirror-symmetric"):
            law.eigensystem
        with pytest.raises(ConfigurationError):
            simulate_closed_loop(TorusFunction(2, np.ones(5)), law, [0.0])


class TestDecayFit:
    def test_exact_synthetic_data(self):
        t = np.linspace(0, 5, 50)
        fit = estimate_decay_rate(t, 3.0 * np.exp(-2.0 * t))
        assert fit.rate == pytest.approx(2.0, abs=1e-10)
        assert fit.M == pytest.approx(3.0, abs=1e-10)

    def test_noise_floor_excluded(self):
        t = np.linspace(0, 30, 60)
        norms = 1e-10 * np.exp(-t)          # tail dives below 1e-13
        fit = estimate_decay_rate(t, norms)
        assert fit.n_used < len(t)
        assert fit.rate == pytest.approx(1.0, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            estimate_decay_rate([0, 1, 2], [1, 0.1, 0.01])

    def test_simple_law_rate_matches_abscissa(self):
        spec, mm = setup(n=16)
        law = feedback_simple(mm, spec)
        a = spectral_abscissa(law)
        u0 = random_state(23, 16, 0.0)
        times = np.linspace(0.0, 12.0 / abs(a), 160)
        hist = norm_history(u0, law, times)
        fit = estimate_decay_rate(hist["times"], hist[0.0])
        assert fit.rate == pytest.approx(-a, rel=0.05)

    def test_gramian_law_rate_at_least_prescribed(self):
        spec, mm = setup(n=16)
        lam = 1.0
        law = feedback_gramian(build_L_lambda(mm, spec, lam, 1.0), mm, spec)
        a = spectral_abscissa(law)
        u0 = random_state(29, 16, 0.0)
        times = np.linspace(0.0, 12.0 / abs(a), 160)
        hist = norm_history(u0, law, times)
        fit = estimate_decay_rate(hist["times"], hist[0.0])
        assert fit.rate >= 0.99 * lam

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 7 / 3])
    def test_matches_the_polyfit_scan(self, alpha):
        # both laws and rates up to 2 sampled as the stabilize command does;
        # the large rates exercise the best-R^2 fallback
        fallbacks = 0
        for mu in (0.0, 0.3):
            spec, mm = setup(n=32, alpha=alpha, mu=mu)
            laws = [feedback_simple(mm, spec)] + [
                feedback_gramian(build_L_lambda(mm, spec, lam, 1.0), mm, spec)
                for lam in (0.25, 0.5, 1.0, 1.5, 2.0)]
            for law in laws:
                horizon = min(12.0 / abs(spectral_abscissa(law)), 1e6)
                times = np.linspace(0.0, horizon, 120)
                for seed in range(4):
                    u0 = random_state([seed, 7], 32, float(seed % 2))
                    norms = norm_history(u0, law, times)[0.0]
                    with warnings.catch_warnings(record=True) as got:
                        warnings.simplefilter("always")
                        fit = estimate_decay_rate(times, norms)
                    with warnings.catch_warnings(record=True) as want:
                        warnings.simplefilter("always")
                        ref = estimate_decay_rate_polyfit(times, norms)
                    assert [str(w.message) for w in got] == \
                        [str(w.message) for w in want]
                    assert (fit.n_used, fit.window) == (ref.n_used, ref.window)
                    assert fit.rate == pytest.approx(ref.rate, rel=1e-10)
                    assert fit.M == pytest.approx(ref.M, rel=1e-10)
                    assert fit.r2 == pytest.approx(ref.r2, abs=1e-10)
                    fallbacks += bool(got)
        assert fallbacks > 0


class TestObservability:
    def test_uniform_closed_form(self):
        spec, mm = setup(kind="uniform")
        for T in (0.5, 1.0, 2.0):
            delta, _ = observability_constant(mm, spec, T)
            assert delta == pytest.approx(np.sqrt(T) / TWO_PI, rel=1e-12)

    def test_monotone_in_horizon(self):
        spec, mm = setup(n=16)
        d1, _ = observability_constant(mm, spec, 0.5)
        d2, _ = observability_constant(mm, spec, 1.0)
        assert d1 <= d2

    def test_positive_at_short_horizons(self):
        spec, mm = setup(n=16)
        for T in (0.01, 0.1, 1.0):
            delta, minimizer = observability_constant(mm, spec, T)
            assert delta > 0
            assert abs(minimizer.coeff(0)) == 0.0

    def test_a_matrix_past_the_float_range_raises_the_librarys_error(self):
        # lambda_k T past the float range leaves the kernel, so Gamma and
        # the Gramians, not finite: each is refused, naming T and n, before
        # an eigensolve fails on it with numpy's LinAlgError
        _, mm = setup(n=4)
        with np.errstate(all="ignore"):
            with pytest.raises(ObservabilityError, match=r"T=1e\+307, n=4"):
                observability_constant(mm, spectrum_mod.analyze(4, 1.0), 1e307)
            with pytest.raises(ObservabilityError, match=r"T=1e\+300, n=4"):
                build_L_lambda(mm, spectrum_mod.analyze(4, 1e10), 1.0, 1e300)
            with pytest.raises(SingularGramError, match=r"T=1.0, n=4"):
                spectrum_mod.analyze(4, 7e306).horizon(1.0).duals_h


def _count_calls(monkeypatch, module, name) -> list:
    """The calls made from now on to ``module.name``, one entry each."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestGramianMemo:
    def test_one_certified_gramian_per_flow(self, monkeypatch):
        # the four laws of one plant in the order the stabilize benchmark
        # runs them: each law's backward L_lambda and every law's forward
        # Gramian of delta(T) are kept side by side, so the forward one is
        # assembled once and each L_lambda once: 4 Gramians and 4 kernels,
        # where one memo for both flows would assemble 7
        n, T = 32, 1.0
        build_bump.cache_clear()
        m_matrix.cache_clear()
        spectrum_mod.analyze.cache_clear()
        assembled = _count_calls(monkeypatch, operators, "gramian")
        kernels = _count_calls(monkeypatch, closedform, "phi")
        deltas = []
        for law in ("simple", 0.25, 0.5, 1.0):
            spec = spectrum_mod.analyze(n, 7 / 3, 0.3)
            mm = m_matrix(build_bump(kmax=2 * n), n)
            if law == "simple":
                feedback_simple(mm, spec)
            else:
                feedback_gramian(build_L_lambda(mm, spec, law, T), mm, spec)
            deltas.append(observability_constant(mm, spec, T)[0])
        assert len(assembled) == 4
        assert len(kernels) == 4
        assert deltas == [deltas[0]] * 4


class TestLawMemo:
    """A law depends on the parameters only: an equal call returns the kept
    law and its eigendecomposition without solving anything, also for a
    spectrum rebuilt after eviction; any other parameter recomputes it."""

    @staticmethod
    def law(kind="gramian", n=16, alpha=7 / 3, mu=0, lam=1.0, T=1.0,
            width=np.pi / 2):
        spec = spectrum_mod.analyze(n, alpha, mu)
        mm = m_matrix(build_bump(width=width, kmax=2 * n), n)
        if kind == "simple":
            return feedback_simple(mm, spec)
        return feedback_gramian(build_L_lambda(mm, spec, lam, T), mm, spec)

    @pytest.mark.parametrize("kind", ["simple", "gramian"])
    def test_an_equal_call_solves_nothing(self, monkeypatch, kind):
        first = self.law(kind)
        abscissa = spectral_abscissa(first)
        eigs = _count_calls(monkeypatch, np.linalg, "eig")
        eighs = _count_calls(monkeypatch, np.linalg, "eigh")
        assert self.law(kind) is first
        spectrum_mod.analyze.cache_clear()
        again = self.law(kind)
        assert again is first
        assert spectral_abscissa(again) == abscissa
        assert eigs == [] and eighs == []
        es = first.eigensystem
        for arr in (first.matrix, first.closed_loop, es.w, es.V, es.Vinv):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("kind,change", [
        ("gramian", {"lam": 0.5}), ("gramian", {"T": 0.5}),
        ("gramian", {"alpha": 1.0}), ("gramian", {"mu": 0.3}),
        ("gramian", {"alpha": Fraction(7, 3)}), ("gramian", {"width": 1.0}),
        ("simple", {"alpha": 1.0}), ("simple", {"mu": 0.3}),
        ("simple", {"alpha": Fraction(7, 3)}), ("simple", {"width": 1.0})])
    def test_another_parameter_recomputes(self, monkeypatch, kind, change):
        first = self.law(kind)
        spectral_abscissa(first)
        eigs = _count_calls(monkeypatch, np.linalg, "eig")
        other = self.law(kind, **change)
        assert other is not first
        spectral_abscissa(other)
        assert len(eigs) == 1
        # a rational alpha with an integer mu is clustered exactly
        assert other.spectrum.exact == isinstance(change.get("alpha"),
                                                  Fraction)

    def test_an_ill_conditioned_L_warns_on_every_call(self):
        spec, mm = setup(n=16)
        L = dataclasses.replace(build_L_lambda(mm, spec, 1.0, 1.0),
                                cond=1e13)
        laws = []
        for _ in range(2):
            with pytest.warns(RuntimeWarning,
                              match=r"L_lambda condition number 1\.000e\+13"):
                laws.append(feedback_gramian(L, mm, spec))
        assert laws[1] is laws[0]


class TestLyapunovIdentity:
    """The Gramian law's certificate of the prescribed decay (Komornik,
    SIAM J. Control Optim. 35, 1997): on the mean-zero block, with C the
    closed loop, L = L_lambda, Q = GG* and R = e^{-2 lambda T} U(-T) Q
    U(-T)^*, U(-T) = diag(e^{i lambda_k T}),

        C L + L C^* + 2 lambda L = -(Q + R) <= 0,

    so <L^{-1} u, u> decays at rate 2 lambda along the closed loop."""

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 7 / 3])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
    def test_identity_and_its_sign(self, alpha, mu, lam):
        n, T = 32, 1.0
        spec, mm = setup(n=n, alpha=alpha, mu=mu)
        laws = [feedback_gramian(build_L_lambda(mm, spec, lam, T), mm, spec)
                for _ in range(2)]
        assert laws[1] is laws[0]            # the kept law is the one checked
        nz = spec.wavenumbers != 0
        block = np.ix_(nz, nz)
        C = laws[1].closed_loop[block]
        L = build_L_lambda(mm, spec, lam, T).matrix[block]
        Q = gg_star_matrix(mm)[block]
        U = np.exp(1j * spec.lambdas[nz] * T)
        R = np.exp(-2 * lam * T) * (U[:, None] * Q * U.conj()[None, :])
        lhs = C @ L + L @ C.conj().T + 2 * lam * L
        # measured worst: 1.92e-13 at alpha=7/3, mu=0.3, lambda=0.25
        assert np.abs(lhs + Q + R).max() <= 1e-12 * np.abs(Q).max()
        top = np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T))[-1]
        # measured worst: 1.91e-13
        assert top <= 1e-12 * np.abs(L).max()

    def test_sampled_norms_stay_within_the_certified_bound(self):
        """||u(t)||_s <= M_s e^{-lambda t} ||u0||_s along the closed loop,
        with M_s read off L on its mean-zero block: <L^{-1} u, u> decays at
        rate 2 lambda, so M_0 = sqrt(cond L) (22.57) and, with D the H^1
        weights, M_1 = sqrt(lmax(D^1/2 L D^1/2) lmax(D^-1/2 L^-1 D^-1/2))
        (439.9).  At the point of seed 15 the worst ratio of a norm to its
        bound over 400 states was 0.185 in L2 and 0.0142 in H^1, while the
        log-linear fit (``estimate_decay_rate``) read a rate below lambda
        for 15 of them: the law reaches lambda, the fit falls short."""
        n, lam, T = 32, 1.5, 1.0
        spec, mm = setup(n=n, alpha=1.0, mu=0.3)
        L = build_L_lambda(mm, spec, lam, T)
        law = feedback_gramian(L, mm, spec)
        nz = spec.wavenumbers != 0
        block = L.matrix[np.ix_(nz, nz)]
        d = np.sqrt(hs_weights(n, 1.0)[nz])

        def top(A):
            return np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-1]

        bounds = {0.0: np.sqrt(L.cond),
                  1.0: np.sqrt(top(d[:, None] * block * d)
                               * top(np.linalg.inv(block) / d[:, None] / d))}
        t_final = min(12.0 / abs(spectral_abscissa(law)), 1e6)
        times = np.linspace(0.0, t_final, 120)
        decay = np.exp(-lam * times)
        for seed in range(400):
            hist = norm_history(random_state(seed, n, 1.0), law, times,
                                (0.0, 1.0))
            for s, M in bounds.items():
                assert np.all(hist[s] <= M * decay * hist[s][0]), (seed, s)
