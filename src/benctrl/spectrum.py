"""Eigenvalue analysis of the generator on the torus.

Mode k of the evolution carries the real eigenvalue

    lambda_k = k^3 + 2*mu*k - alpha*k*|k|,

and the free propagator multiplies mode k by e^{-i*lambda_k*t}.  Eigenvalues
may coincide for resonant alpha (e.g. alpha=1 groups {-1,0,1}; alpha=7/3
groups {1,2} and {-1,-2}); a maximal group of indices sharing one eigenvalue
is a cluster and never exceeds size 3.  The gap gamma between distinct
eigenvalues controls the conditioning of the moment problem.  lambda is odd
and g real, so k -> -k conjugates each matrix factored (``real_form``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._closedform import exp_kernel
from ._memo import Latest, latest, read_only
from .errors import ClusterSizeError, ConfigurationError

#: Relative tolerance for float clustering decisions.
CLUSTER_RTOL = 1e-9

#: Pairs closer than NEAR_CLUSTER_FRACTION * gamma trigger a conditioning warning.
NEAR_CLUSTER_FRACTION = 1e-3

#: relative departure from mirror symmetry beyond rounding
MIRROR_RTOL = 1e-12


def eigenvalue(k: int, alpha, mu=0):
    """lambda_k = k^3 + 2*mu*k - alpha*k*|k| (mu=0 recovers the unshifted case).

    Exact when alpha and mu are rationals (Fraction in, Fraction out);
    float otherwise.
    """
    if isinstance(alpha, Rational) and isinstance(mu, Rational):
        return Fraction(k**3) + 2 * Fraction(mu) * k - Fraction(alpha) * k * abs(k)
    return float(k) ** 3 + 2.0 * float(mu) * k - float(alpha) * k * abs(k)


@latest(lambda n, alpha, mu=0: (n, type(alpha), alpha, type(mu), mu))
def eigenvalues(n: int, alpha, mu=0) -> np.ndarray:
    """Float array of lambda_k for k = -n..n, read-only; the latest is kept."""
    k = np.arange(-n, n + 1, dtype=float)
    return read_only(k**3 + 2.0 * float(mu) * k - float(alpha) * k * np.abs(k))


def window_bound(alpha) -> int:
    """floor(3*alpha/2) + 1: indices beyond this see rapidly growing gaps."""
    if isinstance(alpha, Rational):
        return int(Fraction(3, 2) * Fraction(alpha)) + 1
    return int(np.floor(1.5 * float(alpha))) + 1


@dataclass(frozen=True)
class HorizonKernel:
    """Time integrals over [0, T] pairing every mode with every frequency slot.

    ``matrix[k+n, m] = int_0^T e^{(-2*rate + i(lambda_k - nu_m))t} dt``,
    with nu the distinct eigenvalues in cluster order.  At rate 0 its rows at
    the cluster representatives are ``gram``, the Gram matrix Gamma of the
    exponentials e^{i nu t} in L2(0, T); its columns at ``Spectrum.slot``
    are the integrals of every Gramian (``operators.gramian``).  ``slot`` is
    the spectrum's map from each row to its cluster's column, ``rows`` its
    map from each cluster to its representative's row.  The arrays are
    read-only.
    """

    T: float
    rate: float
    lambdas: np.ndarray            # lambda_k of the rows, index k+n
    slot: np.ndarray               # column of row k's cluster, index k+n
    rows: np.ndarray               # row of cluster c's representative
    matrix: np.ndarray
    gram: np.ndarray

    @functools.cached_property
    def phases(self) -> tuple:
        """(e^{i lambda_k T}, e^{-i lambda_k T}) of the rows, read-only."""
        return read_only(np.exp(1j * self.lambdas * self.T),
                         np.exp(-1j * self.lambdas * self.T))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the truncated generator with their cluster structure.

    ``clusters`` partitions the wavenumbers -n..n into groups of equal
    eigenvalue; each group is sorted and carries a representative index
    (the member of smallest |k|, which is 0 whenever 0 belongs to the
    group).  ``slot[k+n]`` is the index into ``clusters`` of the group that
    holds wavenumber k: the one map from modes to clusters that every
    cluster-aware computation reads; ``mirror[c]`` is the cluster of the
    negated members of cluster c, ``rep_rows[c]`` the row of its
    representative.  ``kernel(T, rate)`` holds the time integrals over one
    horizon that every closed-form integral of a control and every Gramian
    reads.  ``gap_gamma`` is the minimum spacing between distinct
    eigenvalues at this truncation.  The spectrum also keeps the latest
    biorthogonal family (``moment_control.build_biorthogonal``), the latest
    certified Gramian of each flow (``operators.Gramian.certified``) built
    on it, and, for the latest m-matrix, HUM's adjoint G* in cluster-sum
    order and the amplitude solve's cluster blocks.
    """

    alpha: float
    mu: float
    n: int
    lambdas: np.ndarray            # float lambda_k, index k+n
    clusters: tuple                # tuple of tuples of wavenumbers
    representatives: tuple         # one wavenumber per cluster, same order
    slot: np.ndarray               # cluster index of wavenumber k, index k+n
    gap_gamma: float
    window_bound: int
    exact: bool                    # clusters decided by integer arithmetic
    mirror: np.ndarray = field(init=False, repr=False, compare=False)
    rep_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _kernel: Latest = field(default_factory=Latest, init=False, repr=False,
                            compare=False)
    _family: Latest = field(default_factory=Latest, init=False, repr=False,
                            compare=False)
    _adjoint: Latest = field(default_factory=Latest, init=False, repr=False,
                             compare=False)
    _blocks: Latest = field(default_factory=Latest, init=False, repr=False,
                            compare=False)
    _gramians: dict = field(
        default_factory=lambda: {"forward": Latest(), "backward": Latest()},
        init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.ascontiguousarray(np.asarray(self.lambdas, dtype=float))
        slot = np.array(self.slot, dtype=np.intp)
        mirror = slot[np.subtract(self.n, self.representatives)]
        for name, arr in dict(lambdas=lam, slot=slot, mirror=mirror,
                              rep_rows=np.add(self.representatives, self.n)
                              ).items():
            object.__setattr__(self, name, read_only(arr))

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def distinct_lambdas(self) -> np.ndarray:
        """One eigenvalue per cluster (its representative's), in cluster order."""
        return self.lambdas[self.rep_rows]

    def kernel(self, T: float, rate: float = 0.0) -> HorizonKernel:
        """The HorizonKernel at horizon T under the weight e^{-2*rate*t}.

        The spectrum keeps the kernel of the latest (T, rate) asked for
        (another key replaces it), so the duals, the moments, the controlled
        evolution, the control norms and the controllability Gramian of one
        synthesis share a single evaluation.  Row -k is row k conjugated at
        the mirror clusters, bit for bit, so only rows k >= 0 are evaluated.
        """
        T, rate, n = float(T), float(rate), self.n

        def evaluate():
            matrix = np.empty((2 * n + 1, len(self.representatives)), complex)
            matrix[n:] = exp_kernel(self.lambdas[n:], self.distinct_lambdas(),
                                    T, rate)
            np.conjugate(matrix[:n:-1, self.mirror], out=matrix[:n])
            gram = matrix[self.rep_rows]
            read_only(matrix, gram)
            return HorizonKernel(T, rate, self.lambdas, self.slot,
                                 self.rep_rows, matrix, gram)
        return self._kernel.get((T, rate), evaluate)


def _representative(group):
    """Cluster representative: smallest |k| (ties cannot occur outside the
    zero cluster, where 0 itself wins).  Mirror clusters then get mirrored
    representatives, which keeps real-valued synthesis exactly symmetric."""
    return min(group, key=lambda k: (abs(k), k))


def clusters(n: int, alpha, mu=0):
    """Partition {-n..n} into groups of equal eigenvalue.

    One sweep over the sorted eigenvalues starts a new group wherever
    neighbours differ by more than tol*max(1, |lambda|).  When alpha and mu
    are exact rationals the sweep runs on the integer keys d*lambda_k, with
    d the common denominator of alpha and mu, at tolerance 0 (Python
    integers, so large denominators cannot overflow); otherwise on the float
    eigenvalues at tol = CLUSTER_RTOL.  A group of size > 3
    contradicts the cubic dispersion shape and raises ClusterSizeError.
    """
    exact = isinstance(alpha, Rational) and isinstance(mu, Rational)
    if exact:
        d = math.lcm(alpha.denominator, mu.denominator)
        a = alpha.numerator * (d // alpha.denominator)
        m2 = 2 * mu.numerator * (d // mu.denominator)
        values = np.array([d * k**3 + m2 * k - a * k * abs(k)
                           for k in range(-n, n + 1)], dtype=object)
        tol = 0
    else:
        values = eigenvalues(n, alpha, mu)
        tol = CLUSTER_RTOL
    order = np.argsort(values, kind="stable")
    v = values[order]
    scale = np.maximum(1.0, np.abs(v))   # a gap's larger end: mirror-blind
    breaks = np.abs(np.diff(v)) > tol * np.maximum(scale[1:], scale[:-1])
    ks = (order - n).tolist()
    cuts = [0, *(np.flatnonzero(breaks) + 1).tolist(), len(ks)]
    groups = sorted(tuple(sorted(ks[a:b])) for a, b in zip(cuts, cuts[1:]))
    for g in groups:
        if len(g) > 3:
            raise ClusterSizeError(
                f"cluster {g} of size {len(g)} at alpha={alpha}, mu={mu} "
                "(at most 3 indices may share an eigenvalue)"
            )
    return groups, exact


def analyze(n: int, alpha, mu=0) -> Spectrum:
    """Build the Spectrum: eigenvalues, clusters, gap, and scan window.

    Spectra are memoized by value, one at a time: a call with the same
    arguments, of the same types, returns the same read-only Spectrum (and
    with it the kernel, family and Gramian it keeps), and ``cache_clear()``
    forgets it.  The near-cluster warning is raised on every call.
    """
    spec, near = _spectrum(n, alpha, mu)
    if near:
        warnings.warn(near, RuntimeWarning)
    return spec


@latest(lambda n, alpha, mu: (n, type(alpha), alpha, type(mu), mu))
def _spectrum(n: int, alpha, mu) -> tuple:
    """The Spectrum and its near-cluster warning, None if there is none."""
    if float(alpha) <= 0:
        raise ValueError("alpha must be positive")
    groups, exact = clusters(n, alpha, mu)
    lam = eigenvalues(n, alpha, mu)
    reps = tuple(_representative(g) for g in groups)
    slot = np.empty(2 * n + 1, dtype=np.intp)
    for ci, grp in enumerate(groups):
        for k in grp:
            slot[k + n] = ci
    spec = Spectrum(
        alpha=float(alpha),
        mu=float(mu),
        n=n,
        lambdas=lam,
        clusters=tuple(groups),
        representatives=reps,
        slot=slot,
        gap_gamma=float("nan"),
        window_bound=window_bound(alpha),
        exact=exact,
    )
    object.__setattr__(spec, "gap_gamma", gap_gamma(spec) if len(groups) >= 2
                       else float("inf"))
    # flag nearly-degenerate pairs that were *not* clustered: the smallest
    # gap is compared against the next gap scale (the gap the spectrum would
    # have without the offending pair)
    gaps = np.diff(np.sort(spec.distinct_lambdas()))
    if len(gaps) > 1:
        dmin = gaps.min()
        larger = gaps[gaps > 2.0 * dmin]
        ref = larger.min() if len(larger) else dmin
        if 0 < dmin < NEAR_CLUSTER_FRACTION * ref:
            return spec, (f"eigenvalue pair at distance {dmin:.3e} << "
                          f"neighbouring gap {ref:.3e}: ill-conditioned Gram "
                          "matrix expected")
    return spec, None


analyze.cache_clear = _spectrum.cache_clear


def gap_gamma(spec: Spectrum) -> float:
    """Minimum |lambda_k - lambda_m| over distinct eigenvalues.

    Computed by brute force over all distinct eigenvalues at the truncation.
    (That the minimum is already attained by clusters meeting indices in
    [-1-W, W+1], W = window_bound, is checked by the tests.)
    """
    dist = spec.distinct_lambdas()
    if len(dist) < 2:
        raise ValueError("need at least two distinct eigenvalues")
    return float(np.diff(np.sort(dist)).min())


def require_mirror(a, what: str):
    """ConfigurationError unless max|a - conj(flip(a))| <= MIRROR_RTOL max|a|:
    ghat(-k) = conj ghat(k), or A[::-1, ::-1] = conj(A) to rounding."""
    defect = np.abs(a - np.flip(a).conj()).max()
    if defect > MIRROR_RTOL * np.abs(a).max():
        raise ConfigurationError(f"{what} not mirror-symmetric: {defect:.3e}")


def real_form(A: np.ndarray) -> np.ndarray:
    """M = Q^H A Q, real, for a mirror-symmetric A whose index i mirrors to
    N-1-i.  With p = N // 2, column j of Q is (e_{N-p+j} + e_{p-1-j})/sqrt2,
    column p+j is i(e_{N-p+j} - e_{p-1-j})/sqrt2, and the middle index of an
    odd N is the last.  Reads the upper p rows and the middle row of A."""
    N, p, r = len(A), len(A) // 2, math.sqrt(2.0)
    a, b = A[N - p:, N - p:], A[N - p:, ::-1][:, N - p:]
    row, col = A[p:N - p, N - p:] * r, A[N - p:, p:N - p] * r  # odd N only
    M = np.empty((N, N))
    M[:p, :p], M[:p, p:2 * p] = a.real + b.real, b.imag - a.imag
    M[p:2 * p, :p], M[p:2 * p, p:2 * p] = a.imag + b.imag, a.real - b.real
    M[2 * p:, :p], M[2 * p:, p:2 * p] = row.real, -row.imag
    M[:p, 2 * p:], M[p:2 * p, 2 * p:] = col.real, col.imag
    M[2 * p:, 2 * p:] = A[p:N - p, p:N - p].real
    return M


def from_real(X: np.ndarray) -> np.ndarray:
    """Q X for the Q of ``real_form``: M's eigenvectors X map to A's, and
    A^{-1} = Q M^{-1} Q^H is from_real(from_real(M^{-1}.T).conj().T)."""
    N, p, s = len(X), len(X) // 2, math.sqrt(0.5)
    out = np.empty(X.shape, complex)
    u, upper, lower = X[:p] * s, out[N - p:], out[:p][::-1]
    np.multiply(X[p:2 * p], 1j * s, out=upper)
    np.subtract(u, upper, out=lower)
    np.add(u, upper, out=upper)
    out[p:N - p] = X[2 * p:]
    return out


def spectrum_report(spec: Spectrum) -> dict:
    """JSON-ready summary used by the `spectrum` CLI subcommand."""
    return {
        "alpha": spec.alpha,
        "mu": spec.mu,
        "n": spec.n,
        "lambdas": [float(v) for v in spec.lambdas],
        "clusters": [list(map(int, g)) for g in spec.clusters],
        "gamma": spec.gap_gamma,
        "window_bound": spec.window_bound,
    }
