import dataclasses
import gc
import types
import warnings
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import benctrl._closedform as closedform
import benctrl._memo as _memo
import benctrl.moment_control as moment_control
import benctrl.spectrum as spectrum_mod
from benctrl.cli import random_state
from benctrl.errors import (ConfigurationError, SingularClusterBlockError,
                            SingularGramError)
from benctrl.moment_control import (GRAM_COND_LIMIT, ControlProblem,
                                    ControlSignal, assemble_control,
                                    build_biorthogonal, controllability_gramian,
                                    evolve_controlled, hum_control,
                                    reduce_to_zero_start, solve_coefficients,
                                    synthesize_control, terminal_residual,
                                    verify_moments)
from benctrl.operators import (MMatrix, build_bump,
                               bump_from_coefficients, evolve_free,
                               gg_star_matrix, gramian, m_matrix)
from benctrl.spectral import TWO_PI, TorusFunction, hs_weights, mean
from oracles import (duhamel_mpmath, evolve_controlled_quadrature, exp_gram,
                     gauss_legendre_nodes, gramian_direct,
                     l2_hs_norm_conjugate_gram, l2_hs_norm_mpmath,
                     moments_quadrature,
                     weighted_gramian_quadrature)


def clear_memos():
    """Forget the memoized bump, m-matrix and spectrum, and so everything
    that hangs off them (the horizon with its family and its plant)."""
    build_bump.cache_clear()
    m_matrix.cache_clear()
    spectrum_mod.analyze.cache_clear()


def _form_condition(signal, s) -> float:
    """kappa = sum_j w_j |E_j| |Gamma| |E_j|^T / ||h||^2, the condition
    number of the quadratic form behind ``ControlSignal.l2_hs_norm``."""
    A = np.abs(signal.exp_coeffs)
    gram = np.abs(exp_gram(signal.lambdas, signal.T))
    total = hs_weights(signal.n, s) @ ((A @ gram) * A).sum(axis=1)
    return float(total) / l2_hs_norm_conjugate_gram(signal, s) ** 2


def make_problem(n=16, alpha=1.0, mu=0.0, T=1.0, s=0.0, seed=0, bump=None):
    bump = bump or build_bump(kmax=2 * n)
    u0 = random_state(seed, n, s)
    u1 = random_state(seed + 1000, n, s)
    return ControlProblem(alpha, mu, T, s, n, bump, u0, u1)


class TestReduction:
    def test_free_flow_periodic_target(self):
        # alpha=1: lambda_{+-1} = 0, so psi_1 + psi_{-1} is a fixed point
        n = 4
        c = np.zeros(9, dtype=complex)
        c[5] = c[3] = 1.0 / np.sqrt(TWO_PI)
        u = TorusFunction(4, c, real_flag=True)
        prob = ControlProblem(1.0, 0.0, 0.73, 0.0, n, build_bump(kmax=8), u, u)
        assert np.abs(reduce_to_zero_start(prob)).max() <= 1e-14

    def test_zero_start_gives_scaled_target(self):
        n = 6
        u1 = random_state(5, n, 0.0)
        prob = ControlProblem(1.0, 0.0, 1.0, 0.0, n, build_bump(kmax=12),
                              TorusFunction.zero(n), u1)
        c = reduce_to_zero_start(prob)
        assert np.abs(c - np.sqrt(TWO_PI) * u1.coeffs).max() <= 1e-14

    def test_mean_component_always_zero(self):
        n = 8
        bump = build_bump(kmax=16)
        for seed in range(5):
            u0 = random_state(seed, n, 0.0)
            u1 = random_state(seed + 77, n, 0.0)
            shift = np.zeros(2 * n + 1, dtype=complex)
            shift[n] = 0.42  # identical nonzero means
            pair = [u.with_coeffs(u.coeffs + shift) for u in (u0, u1)]
            prob = ControlProblem(0.7, 0.3, 0.9, 0.0, n, bump, *pair)
            assert abs(reduce_to_zero_start(prob)[n]) <= 1e-13

    def test_mean_mismatch_rejected(self):
        n = 4
        u0 = random_state(1, n, 0.0)
        u1 = random_state(2, n, 0.0)
        bad = u1.with_coeffs(u1.coeffs + np.eye(1, 2 * n + 1, n)[0] * 0.1)
        with pytest.raises(ConfigurationError):
            ControlProblem(1.0, 0.0, 1.0, 0.0, n, build_bump(kmax=8), u0, bad)


class TestBiorthogonal:
    def test_single_eigenvalue(self):
        spec = spectrum_mod.analyze(0, 1.0)
        for T in (1.0, 2.0):
            fam = build_biorthogonal(spec, T)
            # q = (1/T) * e^{i*0*t}: int_0^T 1 * conj(q) dt = 1
            assert fam.duals_h[0, 0].conj() == pytest.approx(1.0 / T)

    def test_gram_diagonal_is_horizon(self):
        spec = spectrum_mod.analyze(8, 1.0)
        fam = build_biorthogonal(spec, 0.7)
        assert np.abs(np.diag(fam.gram) - 0.7).max() <= 1e-15

    def test_biorthogonality_closed_form(self):
        spec = spectrum_mod.analyze(8, 1.0)
        fam = build_biorthogonal(spec, 1.0)
        prod = fam.gram @ fam.duals_h                       # [k, j]
        assert np.abs(prod - np.eye(len(fam.lambdas))).max() <= 1e-8

    def test_biorthogonality_fine_quadrature(self):
        # independent oracle: composite Gauss-Legendre with ~1e4 nodes
        spec = spectrum_mod.analyze(8, 1.0)
        T = 1.0
        fam = build_biorthogonal(spec, T)
        nodes, wts = gauss_legendre_nodes(T, 10_016)
        evals = np.exp(1j * np.outer(fam.lambdas, nodes))   # e^{i lam_k t}
        qvals = fam.duals_h.T @ evals.conj()                # conj(q_j)(t)
        prod = (evals * wts[None, :]) @ qvals.T             # [k, j]
        assert np.abs(prod - np.eye(len(fam.lambdas))).max() <= 1e-8

    def test_singular_horizon_raises_with_pair(self):
        spec = spectrum_mod.analyze(16, 0.1)
        for _ in range(2):                # it raises on every call
            with pytest.raises(SingularGramError) as exc:
                build_biorthogonal(spec, 0.05)
            assert exc.value.cond > 1e14
            assert exc.value.pair is not None

    def test_lstsq_fallback_flags_degenerate(self):
        spec = spectrum_mod.analyze(16, 0.1)
        with pytest.warns(RuntimeWarning, match="rank-revealing"):
            fam = build_biorthogonal(spec, 0.05, on_singular="lstsq")
        assert fam.degenerate
        # the second call is a memo hit and warns again
        with pytest.warns(RuntimeWarning, match="rank-revealing"):
            assert build_biorthogonal(spec, 0.05, on_singular="lstsq") is fam
        # an unknown fallback is rejected at every horizon, singular or not
        for T in (1.0, 0.05):
            with pytest.raises(ConfigurationError, match="on_singular"):
                build_biorthogonal(spec, T, on_singular="lsqt")


class TestHorizonKernel:
    @pytest.mark.parametrize("n,alpha,mu,T", [
        (16, 1.0, 0.0, 1.0), (16, 7 / 3, 0.3, 5.0), (12, 0.1, 0.3, 0.5),
        (96, 7 / 3, 0.3, 1.0)])
    def test_gram_rows_are_the_exponential_gram(self, n, alpha, mu, T):
        spec = spectrum_mod.analyze(n, alpha, mu)
        horizon = spec.horizon(T)
        reps = spec.rep_rows
        old = exp_gram(spec.lambdas[reps], T)
        assert np.array_equal(horizon.gram, old)
        assert np.array_equal(horizon.kernel[reps], old)
        assert np.array_equal(build_biorthogonal(spec, T).gram, old)

    def test_one_read_only_kernel_per_horizon(self):
        spec = spectrum_mod.analyze(8, 7 / 3, 0.3)
        horizon = spec.horizon(1.0)
        assert spec.horizon(1.0) is horizon
        assert horizon.kernel is horizon.kernel
        assert horizon.kernel.shape == (17, len(spec.clusters))
        assert not horizon.kernel.flags.writeable
        assert not horizon.gram.flags.writeable
        other = spec.horizon(0.5)
        assert other.T == 0.5 and other is not horizon
        assert np.array_equal(
            horizon.kernel,
            spectrum_mod.analyze(8, 7 / 3, 0.3).horizon(1.0).kernel)

    def test_a_control_on_an_earlier_horizon_keeps_it(self, monkeypatch):
        # the family is its horizon, so a control assembled on one looks
        # nothing up, whether the store still keeps it or not: no eigh, no
        # eviction
        spectrum_mod.analyze.cache_clear()
        n = 16
        spec = spectrum_mod.analyze(n, 1.0)
        early = build_biorthogonal(spec, 1.0)
        late = build_biorthogonal(spec, 5.0)
        h = np.random.default_rng(0).standard_normal(2 * n + 1) + 0j
        h[n] = 0.0
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: calls.append(a) or eigh(*a))
        signal = assemble_control(h, early, spec)
        assert signal.horizon is early and signal.amplitudes is h
        # its (2n+1)^2 path agrees with the one its coefficients take
        mm = m_matrix(build_bump(kmax=2 * n), n)
        bare = ControlSignal(n, 1.0, signal.lambdas, signal.exp_coeffs)
        a, b = (verify_moments(sig, np.zeros(2 * n + 1), spec, mm)["moments"]
                for sig in (signal, bare))
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        assert calls == []
        assert spec.horizon(5.0) is late

    @pytest.mark.parametrize("kw", [
        dict(alpha=7 / 3, mu=0.3, T=5.0, s=1.0, seed=2),
        dict(alpha=1.0, T=1.0, s=0.0, seed=7),
        dict(alpha=0.1, mu=0.3, T=0.5, s=1.0, seed=4),
    ])
    def test_l2_norm_matches_the_conjugate_gram_form(self, kw):
        # Against the exact norm of the emitted coefficients every form errs
        # by at most eps times the condition number kappa of the quadratic
        # form; the moment route's |h_j|^2 slot_norms form and the float
        # conjugate-Gram form differ by rounding of that size, so they are
        # held to each other only where kappa is small.  HUM's norm at s = 0
        # is read from eta and W, not from its coefficients, and may carry
        # a few more ulps of theirs.
        eps = np.finfo(float).eps
        prob = make_problem(n=16, **kw)
        res = synthesize_control(prob)
        hum, _ = hum_control(prob, res.spectrum, res.mmatrix)
        sig = res.signal
        bare = ControlSignal(sig.n, sig.T, sig.lambdas, sig.exp_coeffs)
        for s in (0.0, 1.0):
            exact = l2_hs_norm_mpmath(sig, s)
            for signal, want, ulps in ((sig, exact, 0), (bare, exact, 0),
                                       (hum, l2_hs_norm_mpmath(hum, s), 8)):
                kappa = _form_condition(signal, s)
                assert abs(signal.l2_hs_norm(s) - want) <= \
                    eps * (kappa + ulps) * want
            if _form_condition(sig, s) <= 1e3:
                want = l2_hs_norm_conjugate_gram(sig, s)
                assert abs(sig.l2_hs_norm(s) - want) <= 1e-13 * want
            for signal in (hum, bare):
                want = l2_hs_norm_conjugate_gram(signal, s)
                assert abs(signal.l2_hs_norm(s) - want) <= 1e-13 * want

    def test_cond_is_the_two_norm_condition_number(self):
        # cond comes from eigvalsh, the reference from the SVD; both carry
        # errors of order N*eps*cond, which passes 1e-6 above cond ~1e8
        eps = np.finfo(float).eps
        checked = 0
        for alpha in (0.1, 1.0, 7 / 3):
            for mu in (0.0, 0.3):
                for T in (0.5, 1.0, 5.0):
                    spec = spectrum_mod.analyze(16, alpha, mu)
                    nu = spec.lambdas[spec.rep_rows]
                    sing = np.linalg.svd(exp_gram(nu, T), compute_uv=False)
                    want = sing[0] / sing[-1]
                    if want > 1e12:
                        continue
                    got = build_biorthogonal(spec, T).cond
                    size = len(spec.clusters)
                    assert abs(got / want - 1) <= max(1e-6, size * eps * want)
                    checked += 1
        assert checked >= 15
        spec = spectrum_mod.analyze(96, 7 / 3, 0.3)
        fam = build_biorthogonal(spec, 1.0)
        assert not fam.degenerate
        assert 5e13 < fam.cond <= GRAM_COND_LIMIT

    def test_cond_against_forty_digits(self):
        # alpha=1, mu=0.3, T=0.5: cond 6.8e9, where eigvalsh and the SVD
        # differ by 2e-6 relative
        spec = spectrum_mod.analyze(16, 1.0, 0.3)
        T = 0.5
        nu = spec.lambdas[spec.rep_rows]
        with mpmath.workdps(40):
            gram = mpmath.matrix(len(nu))
            for i, a in enumerate(nu):
                for j, b in enumerate(nu):
                    d = mpmath.mpf(a) - mpmath.mpf(b)
                    gram[i, j] = mpmath.mpf(T) if d == 0 else \
                        (mpmath.exp(1j * d * T) - 1) / (1j * d)
            ev = [abs(v) for v in mpmath.eighe(gram, eigvals_only=True)]
            exact = float(max(ev) / min(ev))
        got = build_biorthogonal(spec, T).cond
        assert abs(got / exact - 1) <= len(nu) * np.finfo(float).eps * exact

    @pytest.mark.parametrize("alpha,mu", [(0.7, 0.3), (1.0, 0.0)])
    def test_evolve_controlled_on_another_spectrum(self, alpha, mu):
        # the signal's kernel holds the eigenvalues of alpha=1, mu=0; at any
        # other alpha or mu the Duhamel integral must not reuse it
        prob = make_problem(n=8, alpha=1.0, seed=2)
        res = synthesize_control(prob)
        for t in (0.6, prob.T):
            a = evolve_controlled(prob.u0, res.signal, t, alpha, mu,
                                  res.mmatrix)
            b = evolve_controlled_quadrature(prob.u0, res.signal, t, alpha,
                                             mu, res.mmatrix)
            assert np.abs(a.coeffs - b.coeffs).max() <= 1e-9

    @staticmethod
    def _count_kernels(monkeypatch) -> list:
        """Shapes of the phi evaluations made from now on."""
        shapes = []
        phi = closedform.phi

        def counting(z, T):
            shapes.append(np.shape(z))
            return phi(z, T)

        monkeypatch.setattr(closedform, "phi", counting)
        return shapes

    @staticmethod
    def _case(prob):
        res = synthesize_control(prob)
        hum, _ = hum_control(prob, res.spectrum, res.mmatrix)
        terminal_residual(prob, hum, res.mmatrix)
        res.signal.l2_hs_norm(0.0)
        hum.l2_hs_norm(0.0)
        return res

    def test_one_kernel_evaluation_per_case(self, monkeypatch):
        # the moment route, the controllability Gramian of the HUM route
        # and both control norms share one (2n+1) x N kernel, whose rows
        # k >= 0 alone are evaluated
        shapes = self._count_kernels(monkeypatch)
        clear_memos()
        n = 16
        res = self._case(make_problem(n=n, alpha=1.0, seed=5))
        nfam = len(res.spectrum.clusters)
        assert nfam < 2 * n + 1
        assert shapes == [(n + 1, nfam)]

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 7 / 3, Fraction(7, 3)])
    def test_gramian_reads_the_kernel(self, alpha, n):
        # the kernel's column at l's cluster stands in for lambda_l, which
        # differs from its representative's eigenvalue by rounding only
        mm = m_matrix(build_bump(kmax=2 * n), n)
        for mu in (0, 0.3):
            spec = spectrum_mod.analyze(n, alpha, mu)
            for T in (0.1, 1.0, 5.0):
                for rate in (0.0, 0.5, 4.0):
                    for flow in ("forward", "backward"):
                        W = gramian(mm, spec.horizon(T), rate, flow)
                        want = gramian_direct(mm, spec, T, rate, flow)
                        assert np.abs(W - want).max() <= \
                            1e-15 * np.abs(want).max()

    def test_no_kernel_evaluation_for_new_states(self, monkeypatch):
        # a second case on the same plant and horizon, with new states,
        # evaluates no kernel at all: both are memoized with the parameters
        clear_memos()
        self._case(make_problem(n=16, alpha=1.0, seed=5))
        shapes = self._count_kernels(monkeypatch)
        self._case(make_problem(n=16, alpha=1.0, seed=6))
        assert shapes == []

    @pytest.mark.parametrize("alpha", [1.0, Fraction(7, 3)])
    def test_a_second_case_forms_no_operator_product(self, alpha,
                                                      monkeypatch):
        # a repeat case reads G only through the arrays kept on the family
        # and the plant: no cluster reduction, and no product with the
        # operator, op * (K D^H) included
        reads, reductions = [], []
        operator = MMatrix.operator
        monkeypatch.setattr(MMatrix, "operator", property(
            lambda mm: reads.append(mm) or operator.fget(mm)))

        class CountingAdd:
            """np.add with its reduceat calls counted."""

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def reduceat(self, *args, **kwargs):
                reductions.append(args)
                return np.add.reduceat(*args, **kwargs)

        counting = types.ModuleType("numpy")
        counting.__dict__.update(np.__dict__, add=CountingAdd())
        monkeypatch.setattr(moment_control, "np", counting)
        clear_memos()
        self._case(make_problem(n=16, alpha=alpha, seed=5))
        assert reads
        reads.clear()
        self._case(make_problem(n=16, alpha=alpha, seed=6))
        assert reads == [] and reductions == []


class TestPerCaseEvaluation:
    """A route-built signal's terminal state and Gramian-route norm come
    from its route's per-horizon products, in (2n+1)^2 work; the Duhamel
    sum over its coefficients stays the reference."""

    @staticmethod
    def _coefficients_only(signal):
        return dataclasses.replace(signal, amplitudes=None, gramian=None)

    @pytest.mark.parametrize("alpha,mu,T,bound", [
        (1.0, 0.0, 1.0, 1e-13), (7 / 3, 0.3, 5.0, 2e-10),
        (0.1, 0.0, 0.5, 5e-9)])
    def test_moment_route_against_fifty_digits(self, alpha, mu, T, bound):
        prob = make_problem(n=16, alpha=alpha, mu=mu, T=T)
        res = synthesize_control(prob)
        lam = res.spectrum.lambdas
        want = np.exp(-1j * lam * T) * duhamel_mpmath(res.signal,
                                                       res.mmatrix, lam)
        scale = np.abs(res.targets).max()
        for signal in (res.signal, self._coefficients_only(res.signal)):
            got = verify_moments(signal, res.targets, res.spectrum,
                                 res.mmatrix)["moments"]
            assert np.abs(got - want).max() <= bound * scale

    @pytest.mark.parametrize("alpha,mu,T,bound", [
        (7 / 3, 0.0, 0.5, 1e-11), (7 / 3, 0.0, 1.0, 1e-12),
        (1.0, 0.3, 0.5, 1e-12), (0.1, 0.3, 5.0, 1e-12)])
    def test_gramian_route_against_fifty_digits(self, alpha, mu, T, bound):
        prob = make_problem(n=16, alpha=alpha, mu=mu, T=T)
        res = synthesize_control(prob)
        hum, _ = hum_control(prob, res.spectrum, res.mmatrix)
        lam = res.spectrum.lambdas
        want = np.exp(-1j * lam * T) * duhamel_mpmath(hum, res.mmatrix, lam)
        free = evolve_free(prob.u0, T, alpha, mu).psi_coeffs
        scale = np.abs(want).max()
        for signal in (hum, self._coefficients_only(hum)):
            uT = evolve_controlled(prob.u0, signal, T, alpha, mu, res.mmatrix)
            assert np.abs(uT.psi_coeffs - free - want).max() <= bound * scale

    @pytest.mark.parametrize("kw", [dict(alpha=7 / 3, mu=0.3, T=5.0, s=1.0),
                                    dict(alpha=1.0, T=1.0)])
    def test_coefficients_are_not_read_at_the_horizon(self, kw):
        prob = make_problem(n=16, seed=3, **kw)
        res = synthesize_control(prob)
        hum, _ = hum_control(prob, res.spectrum, res.mmatrix)
        blind = [dataclasses.replace(
            signal, exp_coeffs=np.full_like(signal.exp_coeffs, np.nan))
            for signal in (res.signal, hum)]
        moments = [verify_moments(signal, res.targets, res.spectrum,
                                  res.mmatrix)["moments"]
                   for signal in (res.signal, blind[0])]
        assert np.all(np.isfinite(moments[1]))
        assert np.array_equal(moments[0], moments[1])
        residuals = [terminal_residual(prob, signal, res.mmatrix)
                     for signal in (hum, blind[1])]
        norms = [signal.l2_hs_norm(0.0) for signal in (hum, blind[1])]
        assert np.isfinite(residuals[1]) and residuals[0] == residuals[1]
        assert np.isfinite(norms[1]) and norms[0] == norms[1]

    def test_another_m_matrix_at_the_horizon(self):
        # W eta holds the G the Gramian was built with; under another
        # localizer the terminal state comes from the coefficients
        prob = make_problem(n=8, alpha=1.0, seed=2)
        res = synthesize_control(prob)
        hum, _ = hum_control(prob, res.spectrum, res.mmatrix)
        other = m_matrix(build_bump("smooth_exp_bump", kmax=16), 8)
        for signal in (res.signal, hum):
            a, b = (evolve_controlled(prob.u0, sig, prob.T, 1.0, 0.0, other)
                    for sig in (signal, self._coefficients_only(signal)))
            assert np.abs(a.coeffs - b.coeffs).max() <= \
                1e-13 * np.abs(b.coeffs).max()

    def test_a_second_case_reuses_the_dual_moments(self):
        clear_memos()
        first = synthesize_control(make_problem(n=16, alpha=1.0, seed=5))
        kdh = first.family.dual_moments
        assert not kdh.flags.writeable
        second = synthesize_control(make_problem(n=16, alpha=1.0, seed=6))
        assert second.family.dual_moments is kdh
        # its rows at the cluster representatives are Gamma Gamma^{-1}
        spec = second.spectrum
        reps = spec.rep_rows
        assert np.abs(kdh[reps][:, reps] - np.eye(len(reps))).max() <= 1e-12


def _pipeline(prob):
    res = synthesize_control(prob)
    hum, info = hum_control(prob, res.spectrum, res.mmatrix)
    return res, hum, info, terminal_residual(prob, hum, res.mmatrix)


class TestMemo:
    def test_a_hit_returns_the_objects_of_the_miss(self):
        clear_memos()
        n = 16
        first = _pipeline(make_problem(n=n, alpha=7 / 3, mu=0.3, seed=3))
        second = _pipeline(make_problem(n=n, alpha=7 / 3, mu=0.3, seed=4))
        assert second[0].problem.bump is first[0].problem.bump
        assert second[0].spectrum is first[0].spectrum
        assert second[0].mmatrix is first[0].mmatrix
        assert second[0].family is first[0].family
        spec, mm = first[0].spectrum, first[0].mmatrix
        assert controllability_gramian(mm, spec, 1.0) is \
            controllability_gramian(mm, spec, 1.0)
        assert spec.horizon(1.0).plant(mm).forward_gramian is \
            controllability_gramian(mm, spec, 1.0)
        # equal coefficients hit as well
        ghat = np.array(first[0].problem.bump.ghat)
        assert m_matrix(bump_from_coefficients(ghat), n) is mm

    @pytest.mark.parametrize("kw", [dict(alpha=7 / 3, mu=0.3, T=1.0, s=1.0),
                                    dict(alpha=1.0, T=0.5, s=0.0)])
    def test_a_hit_is_bitwise_a_fresh_miss(self, kw):
        clear_memos()
        miss = _pipeline(make_problem(n=16, seed=8, **kw))
        hit = _pipeline(make_problem(n=16, seed=8, **kw))
        assert hit[0].family is miss[0].family
        a, b = miss[0], hit[0]
        assert np.array_equal(a.signal.exp_coeffs, b.signal.exp_coeffs)
        assert (a.terminal_residual, a.moment_residual, a.control_norm,
                a.cond_gamma) == (b.terminal_residual, b.moment_residual,
                                  b.control_norm, b.cond_gamma)
        assert np.array_equal(miss[1].exp_coeffs, hit[1].exp_coeffs)
        assert miss[2] == hit[2] and miss[3] == hit[3]

    @pytest.mark.parametrize("alpha,mu,T", [(Fraction(7, 3), 0, 1.0),
                                            (1.0, 0.3, 0.5)])
    def test_a_second_case_reads_the_hoisted_arrays(self, alpha, mu, T):
        clear_memos()
        n = 16
        seen = []
        for seed in (3, 4):
            prob = make_problem(n=n, alpha=alpha, mu=mu, T=T, seed=seed)
            res = synthesize_control(prob)
            hum_control(prob, res.spectrum, res.mmatrix)
            spec, mm, fam = res.spectrum, res.mmatrix, res.family
            W = controllability_gramian(mm, spec, T)
            plant = spec.horizon(T).plant(mm)
            gstar, order, pairs, triples = plant.adjoint
            seen.append((fam, (fam.slot_norms, fam.mode_duals,
                               plant.weighted_moments, gstar, order, pairs,
                               triples, W.eigvecs_h)))
        (fam, first), (again, second) = seen
        assert again is fam
        for a, b in zip(first, second):
            assert a is b and not b.flags.writeable
        D, gram = fam.duals_h.conj().T, fam.gram
        # the columns of G*: every cluster's first member in cluster order,
        # then the second members of ``pairs``, then the third members of
        # ``pairs[triples]``
        N, p = len(spec.clusters), len(pairs)
        assert np.array_equal(np.sort(order), np.arange(2 * n + 1))
        assert np.array_equal(spec.slot[order[:N]], np.arange(N))
        assert np.array_equal(spec.slot[order[N:N + p]], pairs)
        assert np.array_equal(spec.slot[order[N + p:]], pairs[triples])
        sizes = np.bincount(spec.slot)
        assert np.array_equal(pairs, np.flatnonzero(sizes > 1))
        assert np.array_equal(pairs[triples], np.flatnonzero(sizes > 2))
        for c, members in enumerate(spec.clusters):
            got = [order[c]] + [order[N + i] for i in np.flatnonzero(
                pairs == c)] + [order[N + p + i] for i in np.flatnonzero(
                pairs[triples] == c)]
            assert got == list(np.add(members, n))
        assert np.array_equal(plant.weighted_moments,
                              mm.operator * fam.dual_moments)
        for got, want in (
                (fam.slot_norms, np.diag(D @ gram @ D.conj().T).real),
                (fam.mode_duals, D.conj()[spec.slot]),
                (gstar, mm.operator.conj().T[:, order]),
                (W.eigvecs_h, np.linalg.inv(W.eigvecs))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # members of one cluster read the same dual
        for cluster in spec.clusters:
            rows = fam.mode_duals[np.add(cluster, n)]
            assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))

    def test_another_m_matrix_gets_its_own_weighted_moments(self):
        # the horizon keeps the plant, with op * (K D^H), of one m-matrix,
        # compared by identity: another localizer's matrix on the same
        # family is formed afresh and steers to its own terminal state
        clear_memos()
        n = 8
        prob = make_problem(n=n, alpha=1.0, seed=2)
        res = synthesize_control(prob)
        fam, mm = res.family, res.mmatrix
        horizon = res.spectrum.horizon(prob.T)
        mine = horizon.plant(mm).weighted_moments
        for _ in range(2):
            other = m_matrix(build_bump("smooth_exp_bump", kmax=2 * n), n)
            theirs = horizon.plant(other).weighted_moments
            assert theirs is not mine and not theirs.flags.writeable
            assert np.array_equal(theirs, other.operator * fam.dual_moments)
            got = evolve_controlled(prob.u0, res.signal, prob.T, 1.0, 0.0,
                                    other)
            want = evolve_controlled(
                prob.u0, TestPerCaseEvaluation._coefficients_only(res.signal),
                prob.T, 1.0, 0.0, other)
            assert np.abs(got.coeffs - want.coeffs).max() <= \
                1e-13 * np.abs(want.coeffs).max()
            del other, theirs
            gc.collect()
            m_matrix.cache_clear()
        again = horizon.plant(mm).weighted_moments
        assert again is not mine and np.array_equal(again, mine)
        check = verify_moments(res.signal, res.targets, res.spectrum, mm)
        assert check["max_residual"] == res.moment_residual

    def test_memoized_arrays_are_read_only(self):
        prob = make_problem(n=8, alpha=1.0, seed=2)
        res = synthesize_control(prob)
        W = controllability_gramian(res.mmatrix, res.spectrum, prob.T)
        for arr in (res.family.duals_h, res.family.lambdas, W.matrix,
                    W.eigvecs, W.eigvals):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_a_new_key_evicts_the_old_plant(self, monkeypatch):
        # an n=96 horizon with its plant outgrows the store's budget, so
        # it is gone, with its spectrum, before the next horizon is built
        clear_memos()
        prob = make_problem(n=96, alpha=1.0, seed=3)
        res = synthesize_control(prob)
        hum_control(prob, res.spectrum, res.mmatrix)
        horizon = res.spectrum.horizon(prob.T)
        assert horizon.nbytes > _memo.BUDGET
        kept = [weakref.ref(obj) for obj in (
            res.spectrum, horizon, horizon.plant(res.mmatrix))]
        del res, horizon
        gc.collect()
        assert all(ref() is not None for ref in kept)
        seen = []
        built = spectrum_mod.Horizon

        def spy(*args):
            seen.append([ref() for ref in kept])
            return built(*args)

        monkeypatch.setattr(spectrum_mod, "Horizon", spy)
        synthesize_control(make_problem(n=96, alpha=0.7, seed=3))
        assert seen == [[None] * 3]

    def test_an_evicted_horizon_is_freed_without_the_cycle_collector(self):
        # no object refers back to the one that keeps it (a horizon holds
        # the spectrum's arrays, a plant its horizon weakly), so the store
        # dropping an n=96 horizon frees it with all it keeps, and
        # emptying the store frees a spectrum
        clear_memos()
        gc.collect()
        gc.disable()
        try:
            prob = make_problem(n=96, alpha=1.0, seed=3)
            res = synthesize_control(prob)
            hum_control(prob, res.spectrum, res.mmatrix)
            spec = res.spectrum
            kept = [weakref.ref(obj) for obj in (
                spec.horizon(prob.T), res.family,
                spec.horizon(prob.T).plant(res.mmatrix),
                controllability_gramian(res.mmatrix, spec, prob.T))]
            del res
            assert all(ref() is not None for ref in kept)
            spec.horizon(0.5)
            assert [ref() for ref in kept] == [None] * 4
            old = weakref.ref(spec)
            del spec
            spectrum_mod.analyze.cache_clear()
            assert old() is None
        finally:
            gc.enable()

    def test_gramian_solve_matches_the_dense_solve(self):
        n = 16
        prob = make_problem(n=n, alpha=7 / 3, mu=0.3, seed=9)
        res = synthesize_control(prob)
        W = controllability_gramian(res.mmatrix, res.spectrum, prob.T)
        c = reduce_to_zero_start(prob)
        nz = res.spectrum.wavenumbers != 0
        rng = np.random.default_rng(9)
        block = rng.standard_normal((2 * n + 1, 5)) \
            + 1j * rng.standard_normal((2 * n + 1, 5))
        for b in (c, block):
            eta = W.solve(b)
            assert eta.shape == b.shape
            want = np.linalg.solve(W.matrix[np.ix_(nz, nz)], b[nz])
            assert np.all(eta[n] == 0.0)
            assert np.abs(eta[nz] - want).max() <= 1e-12 * W.cond * \
                np.abs(want).max()


class TestSolveCoefficients:
    def test_uniform_no_clusters(self):
        # m = I/(2pi) off mode 0, so h_k = 2pi c_k e^{i lam_k T}
        n, T = 8, 1.0
        spec = spectrum_mod.analyze(n, 0.1)
        mm = m_matrix(build_bump("uniform", kmax=2 * n), n)
        rng = np.random.default_rng(7)
        c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        c[n] = 0.0
        h = solve_coefficients(c, mm, spec, T)
        expect = TWO_PI * c * np.exp(1j * spec.lambdas * T)
        expect[n] = 0.0
        assert np.abs(h - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_zero_target(self):
        n = 8
        spec = spectrum_mod.analyze(n, 1.0)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        h = solve_coefficients(np.zeros(2 * n + 1), mm, spec, 1.0)
        assert np.abs(h).max() == 0.0

    def test_nonzero_mean_target_rejected(self):
        n = 4
        spec = spectrum_mod.analyze(n, 1.0)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = 1.0
        with pytest.raises(ConfigurationError):
            solve_coefficients(c, mm, spec, 1.0)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 7 / 3, Fraction(7, 3)])
    def test_a_repeat_reads_the_kept_blocks(self, alpha, monkeypatch):
        # the lone modes, the diagonal and the cluster blocks are kept on
        # the plant of the m-matrix: a repeat calls np.linalg.cond no more,
        # and its h is bit for bit that of a fresh computation
        conds = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda *a, **k: conds.append(a) or cond(*a, **k))
        n, T = 16, 1.0
        mm = m_matrix(build_bump(kmax=2 * n), n)
        rng = np.random.default_rng(4)
        c1, c2 = rng.standard_normal((2, 2 * n + 1)) \
            + 1j * rng.standard_normal((2, 2 * n + 1))
        c1[n] = c2[n] = 0.0
        spectrum_mod.analyze.cache_clear()
        spec = spectrum_mod.analyze(n, alpha)
        solve_coefficients(c1, mm, spec, T)
        blocks = sum(len([k for k in g if k]) > 1 for g in spec.clusters)
        assert len(conds) == blocks
        h = solve_coefficients(c2, mm, spec, T)
        assert len(conds) == blocks
        spectrum_mod.analyze.cache_clear()
        fresh = solve_coefficients(c2, mm, spectrum_mod.analyze(n, alpha), T)
        assert len(conds) == 2 * blocks
        assert np.array_equal(h, fresh)

    def test_a_singular_block_raises_on_every_call(self):
        # alpha=1: the cluster {-1, 0, 1} couples modes -1 and 1 through a
        # 2x2 block, made singular here
        n = 4
        spec = spectrum_mod.analyze(n, 1.0)
        entries = np.eye(2 * n + 1, dtype=complex)
        entries[np.ix_([n - 1, n + 1], [n - 1, n + 1])] = 1.0
        mm = MMatrix(n, entries, 1.0)
        c = np.ones(2 * n + 1, dtype=complex)
        c[n] = 0.0
        for _ in range(2):
            with pytest.raises(SingularClusterBlockError, match=r"\[-1, 1\]"):
                solve_coefficients(c, mm, spec, 1.0)

    def test_cluster_block_satisfies_moments(self):
        # alpha=1 cluster {-1,0,1}: reduced block solve must still satisfy
        # the moment equations, verified by quadrature afterwards
        n, T = 8, 1.0
        spec = spectrum_mod.analyze(n, 1.0)
        bump = build_bump(kmax=2 * n)
        mm = m_matrix(bump, n)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        c[n] = 0.0
        h = solve_coefficients(c, mm, spec, T)
        fam = build_biorthogonal(spec, T)
        sig = assemble_control(h, fam, spec)
        quad = moments_quadrature(sig, spec, mm)
        assert np.abs(quad - c).max() <= 1e-8


class TestAssembleAndVerify:
    def test_zero_amplitudes(self):
        spec = spectrum_mod.analyze(4, 1.0)
        fam = build_biorthogonal(spec, 1.0)
        sig = assemble_control(np.zeros(9), fam, spec)
        assert np.abs(sig.exp_coeffs).max() == 0.0
        assert sig.l2_hs_norm(0.0) == 0.0

    def test_single_mode_time_dependence(self):
        # singleton clusters (alpha=0.1): mode 1 carries conj(q_1)(t)
        spec = spectrum_mod.analyze(4, 0.1)
        fam = build_biorthogonal(spec, 1.0)
        h = np.zeros(9, dtype=complex)
        h[5] = 2.0
        sig = assemble_control(h, fam, spec)
        times = np.linspace(0, 1, 7)
        profile = sig.mode_values(times)[5]
        ci = spec.slot[1 + 4]
        D = fam.duals_h.conj().T
        duals = D @ np.exp(1j * np.outer(fam.lambdas, times))
        expect = 2.0 * np.conj(duals[ci])
        assert np.abs(profile - expect).max() <= 1e-14
        assert np.abs(sig.mode_values(times)[[0, 1, 2, 3, 4, 6, 7, 8]]).max() == 0

    def test_zero_signal_zero_residual(self):
        n = 6
        spec = spectrum_mod.analyze(n, 1.0)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        fam = build_biorthogonal(spec, 1.0)
        sig = assemble_control(np.zeros(2 * n + 1), fam, spec)
        rep = verify_moments(sig, np.zeros(2 * n + 1), spec, mm)
        assert rep["max_residual"] == 0.0

    def test_moment_residual_synthesized(self):
        res = synthesize_control(make_problem(n=16, alpha=1.0, seed=4))
        assert res.moment_residual <= 1e-9

    @pytest.mark.parametrize("kw", [
        dict(alpha=0.1, mu=0.3, T=5.0, s=1.0, seed=3),   # cond(Gamma) 1.5
        dict(alpha=1.0, T=1.0, seed=7),                  # cluster {-1, 0, 1}
    ])
    def test_residuals_read_off_one_duhamel_sum(self, kw):
        # synthesize_control takes both residuals from moments - c; the
        # standalone checks evolve u(T) and re-evaluate the moments.  Both
        # residuals sit on the scale of the target (the terminal one is
        # relative to ||u1||_{H^s}), where rounding is about 1e-16.
        prob = make_problem(n=16, **kw)
        res = synthesize_control(prob)
        again = terminal_residual(prob, res.signal, res.mmatrix)
        assert abs(res.terminal_residual - again) <= 1e-12
        moments = verify_moments(res.signal, res.targets, res.spectrum,
                                 res.mmatrix)
        assert abs(res.moment_residual - moments["max_residual"]) \
            <= 1e-12 * np.abs(res.targets).max()
        assert res.terminal_residual <= 1e-12

    def test_closed_form_vs_quadrature(self):
        n = 16
        prob = make_problem(n=n, alpha=1.0, seed=9)
        res = synthesize_control(prob)
        quad = moments_quadrature(res.signal, res.spectrum, res.mmatrix)
        closed = verify_moments(res.signal, res.targets, res.spectrum,
                                res.mmatrix)
        assert np.abs(quad - closed["moments"]).max() <= 1e-8


class TestEvolveControlled:
    def test_zero_control_is_free_flow(self):
        n = 8
        spec = spectrum_mod.analyze(n, 0.7, 0.3)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        fam = build_biorthogonal(spec, 1.0)
        sig = assemble_control(np.zeros(2 * n + 1), fam, spec)
        u0 = random_state(11, n, 0.0)
        for t in (0.0, 0.4, 1.0):
            out = evolve_controlled(u0, sig, t, 0.7, 0.3, mm)
            free = evolve_free(u0, t, 0.7, 0.3)
            assert np.abs(out.coeffs - free.coeffs).max() <= 1e-14

    def test_end_to_end_exactness(self):
        for seed in range(5):
            prob = make_problem(n=16, alpha=1.0, seed=seed)
            res = synthesize_control(prob)
            assert res.terminal_residual <= 1e-8

    def test_mean_conserved_along_trajectory(self):
        prob = make_problem(n=8, alpha=1.0, seed=21)
        res = synthesize_control(prob)
        for t in np.linspace(0, prob.T, 9):
            u = evolve_controlled(prob.u0, res.signal, float(t), prob.alpha,
                                  prob.mu, res.mmatrix)
            assert abs(mean(u) - mean(prob.u0)) <= 1e-12

    def test_closed_vs_quadrature_duhamel(self):
        prob = make_problem(n=8, alpha=1.0, seed=2)
        res = synthesize_control(prob)
        a = evolve_controlled(prob.u0, res.signal, 0.6, 1.0, 0.0, res.mmatrix)
        b = evolve_controlled_quadrature(prob.u0, res.signal, 0.6, 1.0, 0.0,
                                         res.mmatrix)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-9


class TestHUM:
    @pytest.mark.parametrize("alpha,mu,sizes", [
        (1.0, 0, [3]), (Fraction(7, 3), 0, [2, 2]),
        (7 / 3 + 1e-12, 0, [2, 2]), (0.7, 0, []),
        (Fraction(6), Fraction(11, 2), [3, 3])])
    def test_cluster_sums_are_bitwise_the_reduction(self, alpha, mu, sizes):
        # the gathered cluster sums add a cluster's terms a, b, c as
        # a + (b + c), as a reduction over runs of columns sorted by cluster
        # does; only a triple without mode 0 (k = 1, 2, 3 at alpha=6,
        # mu=11/2) has three nonzero terms, whose grouping shows in the
        # rounding
        n, T = 16, 1.0
        prob = make_problem(n=n, alpha=alpha, mu=mu, T=T, seed=3)
        spec = spectrum_mod.analyze(n, alpha, mu)
        mm = m_matrix(prob.bump, n)
        assert sorted(len(g) for g in spec.clusters if len(g) > 1) == sizes
        hum, _ = hum_control(prob, spec, mm)
        order = np.argsort(spec.slot, kind="stable")
        starts = np.searchsorted(spec.slot[order],
                                 np.arange(len(spec.clusters)))
        want = np.add.reduceat(mm.operator.conj().T[:, order]
                               * hum.amplitudes[order], starts, axis=1)
        want *= np.exp(1j * spec.lambdas[spec.rep_rows] * T)
        assert hum.exp_coeffs.tobytes() == want.tobytes()

    def test_free_flow_target_needs_no_control(self):
        n = 8
        u0 = random_state(6, n, 0.0)
        u1 = evolve_free(u0, 1.0, 1.0)
        prob = ControlProblem(1.0, 0.0, 1.0, 0.0, n, build_bump(kmax=2 * n),
                              u0, u1)
        sig, _ = hum_control(prob)
        assert sig.l2_hs_norm(0.0) <= 1e-10

    def test_reaches_target_and_is_smaller(self):
        for seed in (1, 5):
            prob = make_problem(n=16, alpha=7 / 3, seed=seed)
            res = synthesize_control(prob)
            sig, info = hum_control(prob, res.spectrum, res.mmatrix)
            assert terminal_residual(prob, sig, res.mmatrix) <= 1e-8
            assert sig.l2_hs_norm(0.0) <= res.signal.l2_hs_norm(0.0) + 1e-8

    def test_gramian_closed_form_vs_quadrature(self):
        n = 8
        spec = spectrum_mod.analyze(n, 1.0)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        W = controllability_gramian(mm, spec, 1.0)
        Wq = weighted_gramian_quadrature(gg_star_matrix(mm), spec.lambdas,
                                         1.0, rate=0.0, flow="forward",
                                         total_nodes=2048)
        assert np.abs(W.matrix - Wq).max() <= 1e-9


class TestProperties:
    def test_linearity_in_target(self):
        n = 8
        bump = build_bump(kmax=2 * n)
        u1 = random_state(31, n, 0.0)
        scaled = u1.with_coeffs(u1.coeffs * 2.5)
        z = TorusFunction.zero(n)
        p1 = ControlProblem(1.0, 0.0, 1.0, 0.0, n, bump, z, u1)
        p2 = ControlProblem(1.0, 0.0, 1.0, 0.0, n, bump, z, scaled)
        r1, r2 = synthesize_control(p1), synthesize_control(p2)
        assert np.abs(r2.signal.exp_coeffs - 2.5 * r1.signal.exp_coeffs).max() \
            <= 1e-12 * np.abs(r2.signal.exp_coeffs).max()

    def test_norm_ratio_bounded(self):
        # empirical nu over 100 seeded trials at fixed (n, T, alpha, g)
        n = 8
        bump = build_bump(kmax=2 * n)
        ratios = []
        for seed in range(100):
            res = synthesize_control(make_problem(n=n, alpha=1.0, seed=seed,
                                                  bump=bump))
            ratios.append(res.nu_empirical)
        nu_empirical = max(ratios)
        print(f"empirical nu over 100 trials (n=8, T=1, alpha=1): "
              f"{nu_empirical:.2f}")
        assert 0 < nu_empirical < 1e4

    def test_time_horizon_robustness(self):
        # synthesis succeeds at every horizon; accuracy follows conditioning
        n = 8
        for T in (0.05, 0.5, 1.0, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = synthesize_control(make_problem(n=n, alpha=0.1, T=T),
                                         on_singular="lstsq")
            tol = 1e-8 if res.cond_gamma <= 1e4 else 1e-12 * res.cond_gamma
            assert res.terminal_residual <= tol

    def test_real_targets_give_real_control(self):
        res = synthesize_control(make_problem(n=12, alpha=7 / 3, seed=13))
        assert res.signal.hermitian_defect() <= 1e-12


class TestHermitianDefect:
    """The realness defect is exact on the exponential coefficients."""

    LAMBDAS = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])     # mirror order

    def _real_signal(self, n=2):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2 * n + 1, 5)) \
            + 1j * rng.standard_normal((2 * n + 1, 5))
        E = (A + np.flip(A).conj()) / 2                  # E = conj(flip(E))
        return ControlSignal(n, 1.0, self.LAMBDAS, E)

    def test_a_shifted_entry_reports_its_shift(self):
        signal = self._real_signal()
        assert signal.hermitian_defect() == 0.0
        E = signal.exp_coeffs.copy()
        delta = 1e-7
        E[1, 3] += 1j * delta
        shifted = dataclasses.replace(signal, exp_coeffs=E)
        assert shifted.hermitian_defect() == pytest.approx(
            delta / np.abs(E).max(), rel=1e-8)

    def test_slots_out_of_mirror_order_raise(self):
        signal = self._real_signal()
        swapped = self.LAMBDAS[[1, 0, 2, 3, 4]]
        for lambdas in (self.LAMBDAS + 0.1, swapped):
            with pytest.raises(ConfigurationError, match="mirror order"):
                dataclasses.replace(signal, lambdas=lambdas) \
                    .hermitian_defect()

    def test_both_routes_are_real_at_a_healthy_point(self):
        prob = make_problem(n=16, alpha=1.0, T=1.0, seed=3)
        res = synthesize_control(prob)
        hum, _ = hum_control(prob, res.spectrum, res.mmatrix)
        assert res.signal.hermitian_defect() <= 1e-12
        assert hum.hermitian_defect() <= 1e-12


class TestIndependentIntegrator:
    """Cross-method oracle: adaptive ODE stepping instead of closed forms."""

    def test_controlled_trajectory_via_solve_ivp(self):
        from scipy.integrate import solve_ivp

        n, alpha, T = 6, 1.0, 1.0
        prob = make_problem(n=n, alpha=alpha, T=T, seed=8)
        res = synthesize_control(prob)
        lam = res.spectrum.lambdas
        gop = res.mmatrix.operator

        def rhs(t, y):
            v = y[: 2 * n + 1] + 1j * y[2 * n + 1:]
            h_t = res.signal.mode_values([t])[:, 0]
            dv = -1j * lam * v + gop @ h_t
            return np.concatenate([dv.real, dv.imag])

        y0 = np.concatenate([prob.u0.psi_coeffs.real, prob.u0.psi_coeffs.imag])
        sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853",
                        rtol=1e-11, atol=1e-13, dense_output=False)
        assert sol.success
        vT = sol.y[: 2 * n + 1, -1] + 1j * sol.y[2 * n + 1:, -1]
        assert np.abs(vT - prob.u1.psi_coeffs).max() <= 1e-7

    def test_closed_loop_flow_via_solve_ivp(self):
        from scipy.integrate import solve_ivp

        import benctrl.spectrum as spectrum_mod2
        from benctrl.stabilization import feedback_simple, simulate_closed_loop

        n = 6
        spec = spectrum_mod2.analyze(n, 1.0)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        law = feedback_simple(mm, spec)
        u0 = random_state(14, n, 0.0)
        C = law.closed_loop

        def rhs(t, y):
            v = y[: 2 * n + 1] + 1j * y[2 * n + 1:]
            dv = C @ v
            return np.concatenate([dv.real, dv.imag])

        t_end = 3.0
        y0 = np.concatenate([u0.psi_coeffs.real, u0.psi_coeffs.imag])
        sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                        rtol=1e-11, atol=1e-13)
        assert sol.success
        v_ivp = sol.y[: 2 * n + 1, -1] + 1j * sol.y[2 * n + 1:, -1]
        u_expm = simulate_closed_loop(u0, law, [t_end])[0]
        assert np.abs(v_ivp - u_expm.psi_coeffs).max() <= 1e-8
