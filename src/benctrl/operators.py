"""The localized control operator G and the free propagators.

The input map is G(h) = g * (h - int g h), with a real non-negative localizer
g of unit integral supported on an interval of the torus.  Its matrix in the
orthonormal basis psi_k has the closed form

    m[j, k] = <G psi_j, psi_k> = ghat(k-j) - 2*pi*ghat(-j)*ghat(k),

obtained by expanding the product g*psi_j and the averaged term in Fourier
modes.  Column and row 0 vanish (G annihilates constants and produces
mean-zero output) and the matrix is Hermitian with strictly positive
diagonal off mode 0.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import spectrum as spect
from ._memo import Store, nbytes, read_only, stored
from .errors import (ConfigurationError, ObservabilityError,
                     SingularClusterBlockError)
from .spectral import TWO_PI, TorusFunction

#: quadrature resolution used when profiling a bump into Fourier coefficients
BUMP_SAMPLES = 8192

BUMP_KINDS = ("uniform", "raised_cosine", "smooth_exp_bump")


@dataclass(frozen=True, eq=False)
class BumpProfile:
    """Localizer g, real and of unit integral, by its Fourier coefficients.

    ``ghat`` stores them for |k| <= kmax, normalized so that ghat(0) =
    1/(2pi) exactly; ``tail_l1`` reports the l1 mass of coefficients beyond
    kmax dropped at profiling time.  ``key``, the bytes of ``ghat`` formed
    once, is what the memos of ``m_matrix`` and ``_widening`` key on: a
    bytes object keeps its hash.
    """

    kmax: int
    ghat: np.ndarray          # index k + kmax
    tail_l1: float = 0.0

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.ghat, dtype=complex))
        object.__setattr__(self, "ghat", read_only(g))

    @functools.cached_property
    def key(self) -> bytes:
        return self.ghat.tobytes()

    def ghat_at(self, k):
        """ghat(k) for scalar or array k, zero outside the stored band."""
        karr = np.atleast_1d(np.asarray(k))
        out = np.zeros(karr.shape, dtype=complex)
        inside = np.abs(karr) <= self.kmax
        out[inside] = self.ghat[karr[inside] + self.kmax]
        return complex(out[0]) if np.ndim(k) == 0 else out


def _profile(kind: str, center: float, width: float, x) -> np.ndarray:
    """Pointwise values at x of a sampled kind, supported on (center +/-
    width/2), before normalization."""
    y = (np.asarray(x, dtype=float) - center + np.pi) % TWO_PI - np.pi
    half = width / 2.0
    if kind == "raised_cosine":
        return np.where(np.abs(y) <= half,
                        (2.0 / width) * np.cos(np.pi * y / width) ** 2, 0.0)
    u = y / half                                    # smooth_exp_bump
    raw = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    raw[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return raw


def check_support(center: float, width: float) -> None:
    """ConfigurationError unless the support (center -/+ width/2) of a
    sampled bump, of width in (0, 2pi), lies inside (0, 2pi)."""
    if not 0 < width < TWO_PI:
        raise ConfigurationError("bump width must lie in (0, 2pi)")
    a, b = center - width / 2.0, center + width / 2.0
    if not (0.0 < a and b < TWO_PI):
        raise ConfigurationError(
            f"bump support ({a:.4f}, {b:.4f}) must be contained in (0, 2pi)")


@stored(lambda kind="raised_cosine", center=np.pi, width=np.pi / 2, kmax=64:
        tuple((type(v), v) for v in (kind, center, width, kmax)), Store())
def build_bump(kind: str = "raised_cosine", center: float = np.pi,
               width: float = np.pi / 2, kmax: int = 64) -> BumpProfile:
    """Construct a localizer and profile its Fourier coefficients.

    A sampled kind (``_profile``) is profiled by uniform-grid quadrature at
    ``BUMP_SAMPLES`` points and rescaled so ghat(0) = 1/(2pi) holds to
    rounding (unit integral).  The uniform kind is the constant 1/(2pi),
    whose coefficients are exact.  The latest profile is memoized on the
    arguments and their types (``cache_clear()`` forgets it).
    """
    if kind not in BUMP_KINDS:
        raise ConfigurationError(f"bump kind must be one of {BUMP_KINDS}")
    if operator.index(kmax) < 0:             # TypeError: 16.0 is no band
        raise ConfigurationError("bump band kmax must be >= 0")
    if kind == "uniform":
        ghat = np.zeros(2 * kmax + 1, dtype=complex)
        ghat[kmax] = 1.0 / TWO_PI
        return BumpProfile(kmax, ghat)

    check_support(center, width)
    if BUMP_SAMPLES < 2 * kmax + 1:
        raise ConfigurationError("too few samples for the requested band")

    x = np.arange(BUMP_SAMPLES) * (TWO_PI / BUMP_SAMPLES)
    vals = _profile(kind, center, width, x)
    if vals.min() < -1e-12:
        raise ConfigurationError("bump profile must be non-negative")
    full = np.fft.fft(vals) / BUMP_SAMPLES   # full[k % BUMP_SAMPLES] ~ ghat(k)
    full = full * (1.0 / (TWO_PI * full[0].real))   # enforce unit integral
    idx = np.arange(-kmax, kmax + 1) % BUMP_SAMPLES
    tail = full[kmax + 1: BUMP_SAMPLES - kmax]
    return BumpProfile(kmax, full[idx], float(np.abs(tail).sum()))


def bump_from_coefficients(ghat) -> BumpProfile:
    """Wrap an explicit coefficient list (index -kmax..kmax) of a real g."""
    ghat = np.asarray(ghat, dtype=complex)
    if ghat.ndim != 1 or ghat.size % 2 == 0:
        raise ConfigurationError("coefficient list must have odd length")
    kmax = ghat.size // 2
    if not np.isclose(ghat[kmax].real, 1.0 / TWO_PI, rtol=1e-12, atol=1e-14):
        raise ConfigurationError("ghat(0) must equal 1/(2pi) (unit integral)")
    spect.require_mirror(ghat, "localizer coefficients (g must be real)")
    return BumpProfile(kmax, ghat)


# -- the m-matrix ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MMatrix:
    """Matrix of G in the orthonormal psi basis, m[j,k] = <G psi_j, psi_k>.

    ``entries[j+n, k+n]`` holds m[j,k]; ``beta`` is the minimum diagonal
    entry off mode 0.
    """

    n: int
    entries: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "entries", read_only(
            np.ascontiguousarray(self.entries)))

    @property
    def operator(self) -> np.ndarray:
        """Matrix acting on psi coefficient vectors: (Gv)_k = sum_j op[k,j] v_j."""
        return self.entries.T

    @functools.cached_property
    def gg_star(self) -> np.ndarray:
        """Matrix of G G* on psi coefficients (read-only): PSD, Hermitian,
        kernel contains mode 0."""
        gop = self.operator
        out = gop @ gop.conj().T
        return read_only(0.5 * (out + out.conj().T))


@stored(lambda bump, n: (bump.key, n), Store())
def m_matrix(bump: BumpProfile, n: int) -> MMatrix:
    """Assemble m[j,k] = ghat(k-j) - 2*pi*ghat(-j)*ghat(k) for |j|,|k| <= n.

    The latest matrix is memoized on the coefficients of the bump (its
    ``key``) and n, so equal bumps built apart share it (``cache_clear()``
    forgets it).
    """
    if bump.kmax < 2 * n:
        raise ConfigurationError(
            f"bump profiled to kmax={bump.kmax} < 2n={2 * n}; rebuild with a "
            "wider band")
    ks = np.arange(-n, n + 1)
    J, K = np.meshgrid(ks, ks, indexing="ij")
    entries = bump.ghat_at(K - J) - TWO_PI * bump.ghat_at(-J) * bump.ghat_at(K)
    off0 = np.abs(ks) > 0
    beta = float(np.diagonal(entries).real[off0].min())
    if beta <= 0.0:
        raise ConfigurationError(
            f"m[k,k] reaches {beta:.3e} <= 0 at this truncation; the "
            "localizer is too oscillatory for n={n}".format(n=n))
    return MMatrix(n, entries, beta)


@stored(m_matrix.key, Store())
def _widening(bump: BumpProfile, n: int) -> np.ndarray:
    """Matrix of G from modes |j| <= n to |k| <= bump.kmax - n, read-only;
    the latest is kept, so apply_G over samples of one h.n builds it once."""
    K, J = np.ogrid[n - bump.kmax: bump.kmax - n + 1, -n: n + 1]
    return read_only(bump.ghat_at(K - J)
                     - TWO_PI * bump.ghat_at(K) * bump.ghat_at(-J))


def apply_G(bump: BumpProfile, h: TorusFunction,
            return_spillover: bool = False):
    """G(h) = g*(h - int g h), truncated to h's band |k| <= h.n.

    The product with g widens the band; coefficients are computed exactly for
    all modes |k| <= bump.kmax - h.n and the l2 mass beyond h's band is
    available as the spillover diagnostic.  The output has zero mean
    exactly up to rounding.
    """
    n, reach = h.n, bump.kmax - h.n
    if n > reach:
        raise ConfigurationError(
            f"cannot produce modes up to {n}: bump band supports {reach}")
    wide = _widening(bump, n) @ h.coeffs
    out = wide[reach - n: reach + n + 1]
    result = TorusFunction(n, out, real_flag=h.real_flag)
    if return_spillover:
        dropped = np.concatenate([wide[:reach - n], wide[reach + n + 1:]])
        return result, float(np.sqrt(TWO_PI * np.sum(np.abs(dropped) ** 2)))
    return result


def gg_star_matrix(mm: MMatrix) -> np.ndarray:
    """Matrix of G G* on psi coefficients, ``mm.gg_star``: formed once per
    m-matrix, read-only."""
    return mm.gg_star


# -- Gramians ----------------------------------------------------------------


def gramian(mm: MMatrix, horizon: spect.Horizon, rate: float = 0.0,
            flow: str = "forward") -> np.ndarray:
    """Closed form of int_0^T e^{-2*rate*tau} U(s*tau) GG* U(s*tau)^* dtau.

    ``flow="forward"`` (s = +1) at rate=0 is the controllability and
    observability Gramian; ``flow="backward"`` (s = -1) with rate=lambda is
    the weighted Gramian L_lambda of the prescribed-decay feedback.  Entry
    (k,l) is (GG*)_{kl} * int_0^T e^{(-2*rate - i*s*(lam_k - lam_l)) tau} dtau,
    the horizon's kernel at the column of l's cluster, conjugated for the
    forward flow.  (Both flows are Hermitian with identical spectra; the
    eigenvectors conjugate.)
    """
    K = horizon.kernel if rate == 0 else horizon.weighted_kernel(rate)
    K = K[:, horizon.spec.slot]
    if flow == "forward":
        K = K.conj()
    elif flow != "backward":
        raise ConfigurationError("flow must be 'forward' or 'backward'")
    w = gg_star_matrix(mm) * K
    return 0.5 * (w + w.conj().T)


@dataclass(frozen=True, eq=False)
class Gramian:
    """A ``gramian`` certified positive definite on the mean-zero modes.

    ``eigvals`` (ascending) and the columns of ``eigvecs`` are the
    eigenpairs of the mean-zero block, from one ``eigh`` of its real form
    (eigvecs = Q X, ``spectrum.real_form``); ``cond`` is read off them.  G
    annihilates constants, so mode 0 is always in the kernel.  ``mmatrix``
    is the m-matrix of the G it integrates; all arrays are read-only.
    """

    rate: float
    T: float
    matrix: np.ndarray
    cond: float
    eigvals: np.ndarray
    eigvecs: np.ndarray
    mmatrix: MMatrix = field(repr=False)

    def __post_init__(self):
        read_only(self.matrix, self.eigvals, self.eigvecs)

    @property
    def nbytes(self) -> int:
        """Bytes of the Gramian's arrays, ``eigvecs_h`` once formed."""
        return nbytes(*vars(self).values())

    @functools.cached_property
    def eigvecs_h(self) -> np.ndarray:
        """eigvecs^H, formed once per Gramian, read-only."""
        return read_only(self.eigvecs.conj().T)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (W x)_k = b_k for k != 0 and x_0 = 0.

        ``b`` is one right-hand side or a block of them, one per column.
        Applied through the eigenpairs, then one refinement step against
        the matrix itself.
        """
        b = np.asarray(b, dtype=complex)
        nz = np.arange(len(b)) != len(b) // 2
        V, Vh = self.eigvecs, self.eigvecs_h
        w = self.eigvals.reshape((-1,) + (1,) * (b.ndim - 1))
        x = np.zeros(b.shape, dtype=complex)
        x[nz] = V @ ((Vh @ b[nz]) / w)
        r = (b - self.matrix @ x)[nz]
        x[nz] += V @ ((Vh @ r) / w)
        return x


@dataclass(frozen=True, eq=False)
class Plant:
    """What an m-matrix adds at one horizon, each formed on first use; a
    failed computation raises on every call.  A plant is reached as
    ``Horizon.plant(mm)``, which keeps the latest in a zero-budget store,
    and refers to its horizon weakly, so the two make no reference cycle.
    Every array is read-only."""

    horizon: spect.Horizon = field(repr=False)     # a weakref.proxy
    mm: MMatrix

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the plant formed so far, its certified
        forward Gramian's among them (the horizon, which counts the plant,
        left out)."""
        return nbytes(*(value for name, value in vars(self).items()
                        if name != "horizon"))

    @functools.cached_property
    def adjoint(self) -> tuple:
        """(G*[:, rep_rows], G*[:, others], others): the columns of G* at
        the clusters' representatives, in cluster order, and at the rows
        ``others`` of the modes that are not their cluster's
        representative, whose terms add into column ``slot`` of theirs."""
        spec, gstar = self.horizon.spec, self.mm.operator.conj().T
        others = np.flatnonzero(spec.rep_rows[spec.slot]
                                != np.arange(2 * spec.n + 1))
        return read_only(gstar[:, spec.rep_rows], gstar[:, others], others)

    @functools.cached_property
    def blocks(self) -> tuple:
        """(alone, diagonal, blocks): the modes off 0 alone in their
        cluster with their m[k,k], and the rows and block M_j^T of each
        cluster of two or more such modes, for the amplitude solve; the
        rows of cluster c are those of ``slot`` c."""
        spec, entries = self.horizon.spec, self.mm.entries
        nonzero = spec.wavenumbers != 0
        members = np.bincount(spec.slot[nonzero], minlength=len(spec.rep_rows))
        alone = nonzero & (members[spec.slot] == 1)
        blocks = []
        for c in np.flatnonzero(members >= 2):
            pos = np.flatnonzero(nonzero & (spec.slot == c))
            block = entries[np.ix_(pos, pos)]
            if np.linalg.cond(block) > 1e14:
                raise SingularClusterBlockError(
                    f"cluster block {(pos - spec.n).tolist()} numerically "
                    "singular for this localizer")
            blocks.append(read_only(pos, block.T))
        return (*read_only(alone, np.diagonal(entries)[alone]), tuple(blocks))

    @functools.cached_property
    def weighted_moments(self) -> np.ndarray:
        """op * (K D^H), K D^H the horizon's ``dual_moments``: the moment
        route's Duhamel sum at the horizon."""
        return read_only(self.mm.operator * self.horizon.dual_moments)

    @functools.cached_property
    def forward_gramian(self) -> Gramian:
        """W_T, the controllability and observability Gramian."""
        return self._certify(0.0, "forward")

    def backward_gramian(self, rate: float) -> Gramian:
        """L_lambda of the decay ``rate``, certified afresh on each call."""
        return self._certify(rate, "backward")

    def _certify(self, rate: float, flow: str) -> Gramian:
        h = self.horizon
        W = gramian(self.mm, h, rate, flow)
        if not np.isfinite(W).all():
            raise ObservabilityError(
                f"Gramian not finite at rate={rate}, T={h.T}, n={h.spec.n}")
        # mode 0 is the middle index, the real form's last row and column
        vals, vecs = np.linalg.eigh(spect.real_form(W)[:-1, :-1])
        if vals[0] <= 0.0:
            raise ObservabilityError(
                f"Gramian singular on mean-zero modes (min eigenvalue "
                f"{vals[0]:.3e}) at rate={rate}, T={h.T}, n={h.spec.n}")
        return Gramian(rate, h.T, W, float(vals[-1] / vals[0]), vals,
                       spect.from_real(vecs), self.mm)


# -- free propagators --------------------------------------------------------


def evolve_free(u0: TorusFunction, t: float, alpha, mu=0) -> TorusFunction:
    """Free group: multiply mode k by e^{-i*lambda_k*t}.  Isometry in every H^s."""
    lam = spect.eigenvalues(u0.n, alpha, mu)
    return u0.with_coeffs(np.exp(-1j * lam * t) * u0.coeffs)
