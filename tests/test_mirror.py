"""Mirror symmetry: k -> -k conjugates every matrix the toolkit factors.

Each factorization runs on the real form M = Q^H A Q (``spectrum.real_form``)
and maps back through ``spectrum.from_real``, which needs k -> -k to be an
index reversal on clusters as on modes.  These tests hold the real route to
the complex one it replaces: the same eigenvalues, eigenpairs with the same
residuals, and duals as biorthogonal as before.
"""

import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import benctrl.spectrum as spectrum_mod
from benctrl._closedform import exp_kernel
from benctrl.cli import TERMINAL_TOL, main
from benctrl.errors import ConfigurationError
from benctrl.moment_control import build_biorthogonal, controllability_gramian
from benctrl.operators import build_bump, m_matrix
from benctrl.spectrum import LSTSQ_RCOND, from_real, real_form, require_mirror
from benctrl.stabilization import (build_L_lambda, feedback_gramian,
                                   feedback_simple)
from oracles import brute_force_clusters, phi_masked

GRID = list(itertools.product((0.1, 1.0, 7 / 3), (0.0, 0.3), (8, 32)))

#: spectra whose clusters, listed by smallest member, do not mirror by
#: reversal: alpha=9/5 puts -1 with 2 and -2 with 1; alpha=12, mu=41/2
#: clusters {1, 5, 6} and {2, 3, 7}; alpha=12, mu=0 puts 0 with -12 and 12
UNORDERED = [(Fraction(9, 5), Fraction(0), 8),
             (Fraction(12), Fraction(41, 2), 8),
             (Fraction(12), Fraction(0), 16)]


def mirror_symmetric(N, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return A + np.flip(A).conj()


def plant(alpha, mu, n):
    spec = spectrum_mod.analyze(n, alpha, mu)
    return spec, m_matrix(build_bump(kmax=2 * n), n)


def loops(mm, spec):
    yield feedback_simple(mm, spec)
    yield feedback_gramian(build_L_lambda(mm, spec, 1.0, 1.0), mm, spec)


def complex_eigvals_match(got, block):
    """Each eigenvalue in ``got`` is within 1e-13 ||B|| of one of complex
    ``eig``'s, and each of those of one in ``got``."""
    want = np.linalg.eigvals(block)
    dist = np.abs(got[:, None] - want[None, :])
    tol = 1e-13 * np.linalg.norm(block, 2)
    return dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


class TestTransform:
    @pytest.mark.parametrize("N", range(1, 10))
    def test_real_form_is_the_unitary_similarity(self, N):
        A = mirror_symmetric(N, N)
        Q = from_real(np.eye(N))
        assert np.abs(Q.conj().T @ Q - np.eye(N)).max() <= 4e-16
        M = real_form(A)
        assert M.dtype == float and M.shape == (N, N)
        assert np.abs(M - Q.conj().T @ A @ Q).max() <= 1e-14 * np.abs(A).max()

    @pytest.mark.parametrize("N", range(1, 10))
    def test_from_real_is_Q_times(self, N):
        rng = np.random.default_rng(N)
        Q = from_real(np.eye(N))
        real = rng.standard_normal((N, 3))
        for X in (real, real + 1j * rng.standard_normal((N, 3))):
            assert np.abs(from_real(X) - Q @ X).max() <= 1e-15
        # the inverse comes back as Q M^-1 Q^H
        A = mirror_symmetric(N, N) + 3 * N * np.eye(N)
        inv = np.linalg.inv(real_form(A))
        back = from_real(from_real(inv.T).conj().T)
        assert np.abs(back - np.linalg.inv(A)).max() <= 1e-14

    def test_require_mirror(self):
        A = mirror_symmetric(6, 1)
        require_mirror(A, "A")
        require_mirror(A + 1e-14, "A")            # rounding passes
        with pytest.raises(ConfigurationError, match="A not mirror-symmetric"):
            require_mirror(A + 1e-9 * np.eye(6, k=1), "A")

    def test_require_mirror_allows_the_rounding_of_a_solve(self):
        A = mirror_symmetric(6, 1) + 1e-9 * np.eye(6, k=1)
        require_mirror(A, "A", cond=1e4)
        with pytest.raises(ConfigurationError, match="A not mirror-symmetric"):
            require_mirror(A, "A", cond=1e2)


def reverses(groups) -> bool:
    """Whether group c holds the negated members of group N-1-c."""
    return all(tuple(sorted(-k for k in g)) == m
               for g, m in zip(groups, groups[::-1]))


class TestMirrorMap:
    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_involution_with_one_fixed_cluster(self, alpha, mu, n):
        # k -> -k reverses the clusters: the middle one, the zero cluster,
        # is the only one fixed
        spec = spectrum_mod.analyze(n, alpha, mu)
        N = len(spec.clusters)
        assert N % 2 == 1 and spec.slot[n] == N // 2
        assert reverses(spec.clusters)
        assert not spec.rep_rows.flags.writeable
        assert np.array_equal(spec.rep_rows[::-1], 2 * n - spec.rep_rows)

    def test_the_unordered_spectra_reverse_in_representative_order(self):
        for alpha, mu, n in UNORDERED:
            spec = spectrum_mod.analyze(n, alpha, mu)
            assert reverses(spec.clusters)
            assert not reverses(sorted(spec.clusters))

    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_half_kernel_is_bit_identical(self, alpha, mu, n):
        spec = spectrum_mod.analyze(n, alpha, mu)
        for T, rate in itertools.product((0.1, 1.0, 5.0), (0.0, 0.25, 1.0)):
            horizon = spec.horizon(T)
            got = horizon.kernel if rate == 0 else \
                horizon.weighted_kernel(rate)
            want = exp_kernel(spec.lambdas, spec.distinct_lambdas(), T, rate)
            assert np.array_equal(got.view(float), want.view(float))


class TestKernel:
    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_exp_kernel_is_the_masked_phi(self, alpha, mu, n):
        # the quotient over the whole array, overwritten by the series where
        # |z|T < 1e-6, is bit for bit the evaluation of each on its own
        # entries: the z = 0 diagonal, clustered pairs whose float
        # eigenvalues differ by rounding, columns shifted by 1e-9 and 1e-5
        lam = spectrum_mod.analyze(n, alpha, mu).lambdas
        series = 0
        for T, rate in itertools.product((0.1, 1.0, 5.0), (0.0, 1e-8, 0.25)):
            for cols in (lam, lam + 1e-9, lam - 1e-5):
                got = exp_kernel(lam, cols, T, rate)
                z = 1j * (lam[:, None] - cols[None, :]) - 2.0 * rate
                series += np.count_nonzero(np.abs(z * T) < 1e-6)
                assert np.array_equal(got, phi_masked(z, T))
        assert series > 0


class TestFactorizations:
    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_gram_eigenvalues(self, alpha, mu, n):
        spec = spectrum_mod.analyze(n, alpha, mu)
        gram = spec.horizon(1.0).gram
        got = np.linalg.eigvalsh(real_form(gram))
        want = np.linalg.eigvalsh(gram)
        assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(gram, 2)

    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_gramian_eigenpairs(self, alpha, mu, n):
        spec, mm = plant(alpha, mu, n)
        nz = spec.wavenumbers != 0
        for W in (controllability_gramian(mm, spec, 1.0),
                  build_L_lambda(mm, spec, 0.5, 1.0),
                  build_L_lambda(mm, spec, 2.0, 1.0)):
            block = W.matrix[np.ix_(nz, nz)]
            scale = np.linalg.norm(block, 2)
            want = np.linalg.eigvalsh(block)
            assert np.abs(W.eigvals - want).max() <= 1e-13 * scale
            V = W.eigvecs
            assert np.abs(block @ V - V * W.eigvals).max() <= 1e-13 * scale
            assert np.abs(V.conj().T @ V - np.eye(2 * n)).max() <= 1e-13

    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_closed_loop_eigenpairs(self, alpha, mu, n):
        spec, mm = plant(alpha, mu, n)
        nz = spec.wavenumbers != 0
        for law in loops(mm, spec):
            block = law.closed_loop[np.ix_(nz, nz)]
            es = law.eigensystem
            assert es.Vinv is not None
            assert complex_eigvals_match(es.w, block)
            scale = np.linalg.norm(block, 2)
            assert np.abs(block @ es.V - es.V * es.w).max() <= 1e-13 * scale
            inverse = np.abs(es.Vinv @ es.V - np.eye(2 * n)).max()
            assert inverse <= 1e-13 * es.cond
            assert es.cond == pytest.approx(np.linalg.cond(es.V), rel=1e-12)


class TestDuals:
    #: the horizons of test_moment_control.py::TestPerCaseEvaluation
    POINTS = [(1.0, 0.0, 1.0), (7 / 3, 0.3, 5.0), (0.1, 0.0, 0.5),
              (7 / 3, 0.0, 0.5), (7 / 3, 0.0, 1.0), (1.0, 0.3, 0.5),
              (0.1, 0.3, 5.0)]

    @pytest.mark.parametrize("alpha,mu,T", POINTS)
    def test_as_biorthogonal_as_the_complex_solve(self, alpha, mu, T):
        spec = spectrum_mod.analyze(16, alpha, mu)
        family = build_biorthogonal(spec, T)
        gram, dh = family.gram, family.dual_coeffs.conj().T
        eye = np.eye(len(gram))
        # the complex route: LU of Gamma itself, one refinement step
        x = np.linalg.solve(gram, eye.astype(complex))
        x += x @ (eye - gram @ x)
        complex_defect = np.abs(gram @ x - eye).max()
        # one rounding unit of the product Gamma D^H: both defects lie below
        # it, where a single sample of either route is rounding noise
        unit = np.finfo(float).eps * (np.abs(gram) @ np.abs(dh)).max()
        defect = np.abs(gram @ dh - eye).max()
        assert defect <= 2 * max(complex_defect, unit)
        assert family.dual_coeffs.flags.f_contiguous

    @pytest.mark.parametrize("alpha,mu,n", UNORDERED)
    def test_permuted_clusters(self, alpha, mu, n):
        spec = spectrum_mod.analyze(n, alpha, mu)
        family = build_biorthogonal(spec, 1.0)
        eye = np.eye(len(family.gram))
        defect = np.abs(family.gram @ family.dual_coeffs.conj().T - eye).max()
        assert defect <= 1e-12 * family.cond

    @staticmethod
    def _count_linalg(monkeypatch) -> dict:
        """Calls of the dense factorizations of np.linalg from now on."""
        calls = {}
        for name in ("eigh", "eigvalsh", "solve", "pinv", "svd", "inv"):
            def counting(*args, _name=name, _fn=getattr(np.linalg, name),
                         **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    @pytest.mark.parametrize("alpha,mu,n,T,on_singular", [
        (1.0, 0.0, 16, 1.0, "error"), (7 / 3, 0.3, 16, 5.0, "error"),
        (*UNORDERED[0], 1.0, "error"), (1.0, 0.0, 16, 0.05, "lstsq")])
    def test_one_eigh_per_fresh_family(self, monkeypatch, alpha, mu, n, T,
                                       on_singular):
        spectrum_mod.analyze.cache_clear()      # a fresh horizon
        spec = spectrum_mod.analyze(n, alpha, mu)
        calls = self._count_linalg(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            family = build_biorthogonal(spec, T, on_singular=on_singular)
            assert family.degenerate == (on_singular == "lstsq")
            assert calls == {"eigh": 1}
            assert build_biorthogonal(spec, T, on_singular) is family
        assert calls == {"eigh": 1}

    @pytest.mark.parametrize("alpha,mu,n,T", [
        (1.0, 0.0, 16, 1.0), (7 / 3, 0.3, 16, 5.0), (*UNORDERED[0], 1.0)])
    def test_both_fallbacks_share_one_family(self, monkeypatch, alpha, mu, n,
                                             T):
        # below GRAM_COND_LIMIT on_singular changes nothing, so the horizon
        # keeps one family for both values
        spectrum_mod.analyze.cache_clear()
        spec = spectrum_mod.analyze(n, alpha, mu)
        calls = self._count_linalg(monkeypatch)
        strict = build_biorthogonal(spec, T, on_singular="error")
        assert build_biorthogonal(spec, T, on_singular="lstsq") is strict
        assert build_biorthogonal(spec, T) is strict
        assert not strict.degenerate
        assert calls == {"eigh": 1}

    @pytest.mark.parametrize("alpha,n,T", [(1.0, 16, 0.05), (0.1, 96, 0.1),
                                           (1.0, 96, 0.1), (7 / 3, 96, 0.1)])
    def test_least_squares_duals_are_the_pinv_duals(self, alpha, n, T):
        spec = spectrum_mod.analyze(n, alpha, 0.0)
        with pytest.warns(RuntimeWarning, match="rank-revealing"):
            family = build_biorthogonal(spec, T, on_singular="lstsq")
        assert family.degenerate
        M = real_form(family.gram)
        w = np.linalg.eigvalsh(M)
        sing = np.linalg.svd(M, compute_uv=False)
        kept = np.sum(np.abs(w) > LSTSQ_RCOND * np.abs(w).max())
        assert 0 < kept < len(w)
        assert kept == np.sum(sing > LSTSQ_RCOND * sing.max())
        inv = np.linalg.pinv(M, rcond=LSTSQ_RCOND)
        want = from_real(from_real(inv.T).conj().T)
        # both carry errors of order eps over the cut, 2e-3 of the largest
        # kept 1/|w|; they agree to 5e-7 .. 7e-5, and a direction kept or
        # dropped against pinv's choice would move the largest entry by O(1)
        got = family.duals_h
        bound = np.finfo(float).eps / LSTSQ_RCOND
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


class TestUnorderedEndToEnd:
    """The spectra of ``UNORDERED`` through ``benctrl`` at n=16."""

    @pytest.mark.parametrize("alpha,mu", [case[:2] for case in UNORDERED])
    def test_spectrum_reports_clusters_by_smallest_member(self, tmp_path,
                                                          alpha, mu):
        assert main(["spectrum", "--alpha", str(alpha), "--mu", str(mu),
                     "--n", "16", "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["clusters"] == [
            list(g) for g in brute_force_clusters(16, alpha, mu)]

    @pytest.mark.parametrize("alpha,mu", [case[:2] for case in UNORDERED])
    def test_control_reaches_u1_by_both_routes(self, tmp_path, alpha, mu):
        assert main(["control", "--alpha", str(alpha), "--mu", str(mu),
                     "--n", "16", "--T", "1", "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["terminal_residual"] <= TERMINAL_TOL
        assert report["hum"]["terminal_residual"] <= TERMINAL_TOL
