"""Mirror symmetry: k -> -k conjugates every matrix the toolkit factors.

Each factorization runs on the real form M = Q^H A Q (``spectrum.real_form``)
and maps back through ``spectrum.from_real``.  These tests hold the real
route to the complex one it replaces: the same eigenvalues, eigenpairs with
the same residuals, and duals as biorthogonal as before.
"""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

import benctrl.spectrum as spectrum_mod
from benctrl._closedform import exp_kernel
from benctrl.errors import ConfigurationError
from benctrl.moment_control import (LSTSQ_RCOND, build_biorthogonal,
                                    controllability_gramian)
from benctrl.operators import build_bump, m_matrix
from benctrl.spectrum import from_real, real_form, require_mirror
from benctrl.stabilization import (build_L_lambda, feedback_gramian,
                                   feedback_simple)
from oracles import phi_masked

GRID = list(itertools.product((0.1, 1.0, 7 / 3), (0.0, 0.3), (8, 32)))

#: spectra whose cluster order does not mirror by reversal: alpha=9/5 puts
#: -1 with 2 and -2 with 1; alpha=12, mu=41/2 clusters {1, 5} and {2, 3}
UNORDERED = [(Fraction(9, 5), Fraction(0), 8),
             (Fraction(12), Fraction(41, 2), 8)]


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


class TestMirrorMap:
    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_involution_with_one_fixed_cluster(self, alpha, mu, n):
        spec = spectrum_mod.analyze(n, alpha, mu)
        m = spec.mirror
        assert not m.flags.writeable
        assert np.array_equal(m[m], np.arange(len(m)))
        fixed = np.flatnonzero(m == np.arange(len(m)))
        assert fixed.tolist() == [spec.slot[n]]
        for c, group in enumerate(spec.clusters):
            assert spec.clusters[m[c]] == tuple(sorted(-k for k in group))

    def test_the_unordered_spectra_need_a_permutation(self):
        for alpha, mu, n in UNORDERED:
            m = spectrum_mod.analyze(n, alpha, mu).mirror
            assert not np.all(np.diff(m) == -1)

    @pytest.mark.parametrize("alpha,mu,n", GRID + UNORDERED)
    def test_half_kernel_is_bit_identical(self, alpha, mu, n):
        spec = spectrum_mod.analyze(n, alpha, mu)
        for T, rate in itertools.product((0.1, 1.0, 5.0), (0.0, 0.25, 1.0)):
            got = spec.kernel(T, rate).matrix
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
        gram = spec.kernel(1.0).gram
        order = np.argsort(spec.distinct_lambdas())
        got = np.linalg.eigvalsh(real_form(gram[np.ix_(order, order)]))
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
        spec = spectrum_mod.analyze(n, alpha, mu)
        spec.kernel(T)
        spec._family.clear()
        calls = self._count_linalg(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            family = build_biorthogonal(spec, T, on_singular=on_singular)
            assert family.degenerate == (on_singular == "lstsq")
            assert calls == {"eigh": 1}
            assert build_biorthogonal(spec, T, on_singular) is family
        assert calls == {"eigh": 1}

    @pytest.mark.parametrize("alpha,n,T", [(1.0, 16, 0.05), (0.1, 96, 0.1),
                                           (1.0, 96, 0.1), (7 / 3, 96, 0.1)])
    def test_least_squares_duals_are_the_pinv_duals(self, alpha, n, T):
        spec = spectrum_mod.analyze(n, alpha, 0.0)
        with pytest.warns(RuntimeWarning, match="rank-revealing"):
            family = build_biorthogonal(spec, T, on_singular="lstsq")
        assert family.degenerate
        # the mirror of these spectra is the reversal: no permutation
        assert np.all(np.diff(spec.mirror) == -1)
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
