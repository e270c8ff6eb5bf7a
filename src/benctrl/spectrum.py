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
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._closedform import exp_kernel
from ._memo import Store, nbytes, read_only, stored
from .errors import ClusterSizeError, ConfigurationError, SingularGramError

#: Relative tolerance for float clustering decisions.
CLUSTER_RTOL = 1e-9

#: Pairs closer than NEAR_CLUSTER_FRACTION * gamma trigger a conditioning warning.
NEAR_CLUSTER_FRACTION = 1e-3

#: relative departure from mirror symmetry beyond rounding
MIRROR_RTOL = 1e-12

#: Gram matrices with condition number beyond this are declared singular.
GRAM_COND_LIMIT = 1e14

#: singular-value cutoff (relative) for the rank-revealing fallback solve
LSTSQ_RCOND = 1e-13


def _float(x) -> float:
    """float(x), or NaN for an int or Fraction past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.nan


def eigenvalues(n: int, alpha, mu=0) -> np.ndarray:
    """Float array of lambda_k for k = -n..n, read-only; the latest is kept,
    keyed on the arguments with their types, a spectrum's identity:
    ``Fraction(1) == 1.0``, yet only the rational one clusters exactly.
    Eigenvalues past the float range, or an alpha or mu past it, raise
    ConfigurationError before the store is read."""
    _check_range(n, alpha, mu)
    return _eigenvalues(n, alpha, mu)


@stored(lambda n, alpha, mu=0: (n, type(alpha), alpha, type(mu), mu),
        Store())
def _eigenvalues(n: int, alpha, mu) -> np.ndarray:
    return read_only(_lambda(np.arange(-n, n + 1, dtype=float), alpha, mu))


eigenvalues.key = _eigenvalues.key
eigenvalues.cache_clear = _eigenvalues.cache_clear


def _lambda(k, alpha, mu):
    """lambda_k at the float wavenumber k, a float or an array of them."""
    return k**3 + 2.0 * _float(mu) * k - _float(alpha) * k * abs(k)


def _check_range(n: int, alpha, mu) -> None:
    """ConfigurationError unless lambda_{-n} and lambda_n are finite floats.
    Every term of lambda_k is largest at |k| = n, and keeps its sign on
    each side of 0, so the ends are finite only if every lambda_k is."""
    for k in (-_float(n), _float(n)):
        try:
            finite = math.isfinite(_lambda(k, alpha, mu))
        except OverflowError:              # k**3 past the float range
            finite = False
        if not finite:
            raise ConfigurationError(f"eigenvalues past the float range: "
                                     f"n={n}, alpha={alpha}, mu={mu}")


def window_bound(alpha) -> int:
    """floor(3*alpha/2) + 1: indices beyond this see rapidly growing gaps."""
    if isinstance(alpha, Rational):
        return int(Fraction(3, 2) * Fraction(alpha)) + 1
    return int(np.floor(1.5 * float(alpha))) + 1


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of the truncated generator with their cluster structure.

    ``clusters`` partitions the wavenumbers -n..n into groups of equal
    eigenvalue; each group is sorted and carries a representative index
    (the member of smallest |k|, which is 0 whenever 0 belongs to the
    group).  Clusters are ordered by representative, so of N clusters c
    holds the negated members of N-1-c, as row k+n mirrors to n-k.
    ``slot[k+n]`` is the index into ``clusters`` of the group that holds
    wavenumber k: the one map from modes to clusters that every
    cluster-aware computation reads; ``rep_rows[c]`` is the row of cluster
    c's representative.  ``gap_gamma`` is the minimum spacing between
    distinct eigenvalues at this truncation.  ``analyze`` builds it, its
    arrays read-only, from ``key = (n, type(alpha), alpha, type(mu), mu)``,
    which also keys its horizons.
    """

    alpha: float
    mu: float
    n: int
    lambdas: np.ndarray            # float lambda_k, index k+n
    clusters: tuple                # tuple of tuples of wavenumbers
    slot: np.ndarray               # cluster index of wavenumber k, index k+n
    gap_gamma: float
    window_bound: int
    exact: bool                    # clusters decided by integer arithmetic
    key: tuple = field(repr=False)
    rep_rows: np.ndarray = field(repr=False)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    @property
    def nbytes(self) -> int:
        """Bytes of the spectrum's arrays (its cluster tuples left out)."""
        return nbytes(self.lambdas, self.slot, self.rep_rows)

    def horizon(self, T: float) -> Horizon:
        """The Horizon at a finite T > 0, kept in the store on ``(key,
        float(T))``, so a spectrum rebuilt after eviction finds its
        horizons again."""
        if not 0 < T < math.inf:
            raise ConfigurationError("horizon T must be positive and finite")
        return _horizon(self, float(T))


@stored(lambda spec, T: (spec.key, T))
def _horizon(spec: Spectrum, T: float) -> Horizon:
    return Horizon(T, spec)


@dataclass(frozen=True, eq=False)
class Horizon:
    """What a spectrum and a horizon T determine, each formed on first use,
    among them the family of duals of the exponentials e^{i nu t} over the
    distinct eigenvalues nu.

    ``kernel[k+n, m] = int_0^T e^{i(lambda_k - nu_m)t} dt``; its rows at the
    representatives are ``gram``, the Gram matrix Gamma of the e^{i nu t}.
    D, with D^H = ``duals_h``, gives q_j = sum_m D[j, m] e^{i nu_m t}: the
    rows of Gamma^{-1}, one per cluster.  ``plant(mm)`` is what an m-matrix
    adds; the horizon keeps the latest, in a zero-budget store.  It holds
    its spectrum, which holds no horizon, so the two make no reference
    cycle.  Arrays are read-only; ``nbytes`` counts those formed so far,
    its spectrum's and its plant's among them.
    """

    T: float
    spec: Spectrum
    _plant: Store = field(default_factory=Store, init=False, repr=False)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the horizon holds now: its spectrum's, those
        of each ``cached_property`` formed so far, and its plant's."""
        return nbytes(*vars(self).values())

    def weighted_kernel(self, rate: float) -> np.ndarray:
        """``kernel`` under the weight e^{-2*rate*t}, evaluated afresh on
        the rows k >= 0: row -k is row k conjugated, its columns reversed
        (cluster c mirrors to N-1-c)."""
        n, lam, rows = self.spec.n, self.spec.lambdas, self.spec.rep_rows
        matrix = np.empty((2 * n + 1, len(rows)), complex)
        matrix[n:] = exp_kernel(lam[n:], lam[rows], self.T, rate)
        np.conjugate(matrix[:n:-1, ::-1], out=matrix[:n])
        return matrix

    @functools.cached_property
    def lambdas(self) -> np.ndarray:
        """The distinct eigenvalues nu, one per cluster."""
        return read_only(self.spec.lambdas[self.spec.rep_rows])

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        return read_only(self.weighted_kernel(0.0))

    @functools.cached_property
    def gram(self) -> np.ndarray:
        return read_only(self.kernel[self.spec.rep_rows])

    @functools.cached_property
    def phases(self) -> tuple:
        """(e^{i lambda_k T}, e^{-i lambda_k T}) of the rows, read-only."""
        lam = self.spec.lambdas
        return read_only(np.exp(1j * lam * self.T), np.exp(-1j * lam * self.T))

    @functools.cached_property
    def _duals(self) -> tuple:
        """(D^H, cond, degenerate).  One real ``eigh`` of Gamma's real form
        M gives cond(Gamma) = max|w| / min|w| and Gamma^{-1} = Q M^{-1}
        Q^H, refined once against Gamma.  Beyond ``GRAM_COND_LIMIT`` the
        family is degenerate: least-squares duals from the eigenpairs
        ``np.linalg.pinv`` would keep, |w| > LSTSQ_RCOND max|w|.  A Gamma
        that is not finite raises SingularGramError."""
        if not np.isfinite(self.gram).all():
            raise SingularGramError(
                f"Gram matrix not finite at T={self.T}, n={self.spec.n}")
        w, V = np.linalg.eigh(real_form(self.gram))
        mag = np.abs(w)
        cond = float(mag.max() / mag.min()) if mag.min() > 0 else np.inf
        degenerate = cond > GRAM_COND_LIMIT
        if degenerate:
            # pinv's cut: the singular values of the symmetric M are |w|
            keep = mag > LSTSQ_RCOND * mag.max()
            w, V = w[keep], V[:, keep]
        x = from_real(from_real(V @ (V / w).T).conj().T)
        if not degenerate:
            x += x @ (np.eye(len(x)) - self.gram @ x)
        return read_only(x), cond, degenerate

    duals_h = property(lambda self: self._duals[0], doc="D^H")
    cond = property(lambda self: self._duals[1], doc="cond(Gamma)")
    degenerate = property(lambda self: self._duals[2],
                          doc="whether the duals are least-squares ones")

    @functools.cached_property
    def dual_moments(self) -> np.ndarray:
        """(K D^H)[k, slot j] = int_0^T e^{i lambda_k t} conj(q_{slot j})(t) dt,
        for the kernel K: it turns the Duhamel sum of every control of the
        family into (2n+1)^2 work (``moment_control._duhamel``)."""
        return read_only(self.kernel @ self.mode_duals.T)

    @functools.cached_property
    def mode_duals(self) -> np.ndarray:
        """(D^H)^T[slot] = conj(D)[slot]: row j is the conjugated dual of
        wavenumber j's cluster, so mode j of a control is h_j times it."""
        return read_only(self.duals_h.T[self.spec.slot, :])

    @functools.cached_property
    def slot_norms(self) -> np.ndarray:
        """Re diag(D Gamma D^H) = Re sum_m conj(P[m, c]) D^H[m, c], P = Gamma
        D^H the representatives' block of ``dual_moments``: ||q_c||^2 in
        L2(0, T), so mode j of a control has |h_j|^2 slot_norms[slot j]."""
        rows = self.spec.rep_rows
        P = self.dual_moments[np.ix_(rows, rows)]
        return read_only((P.conj() * self.duals_h).sum(axis=0).real)

    def plant(self, mm):
        """The ``operators.Plant`` of the m-matrix ``mm`` at this horizon."""
        from .operators import Plant    # operators builds on this module
        return self._plant.get(mm, lambda: Plant(weakref.proxy(self), mm))


def _rep_keys(ks: np.ndarray, n: int) -> np.ndarray:
    """(2n+1)|k| + k+n of wavenumbers |k| <= n, which orders them as (|k|,
    k): a cluster's least key is its representative, the member of least
    |k| (ties cannot occur outside the zero cluster, where 0 itself wins),
    and that key modulo 2n+1 is the representative's row k+n.  Mirror
    clusters then get mirrored representatives, so ordering clusters by
    representative reverses them under k -> -k, and real-valued synthesis
    stays exactly symmetric."""
    return (2 * n + 1) * np.abs(ks) + (ks + n)


def clusters(n: int, alpha, mu=0):
    """Partition {-n..n} into groups of equal eigenvalue.

    One sweep over the sorted eigenvalues starts a new group wherever
    neighbours differ by more than tol*max(1, |lambda|).  When alpha and mu
    are exact rationals the sweep runs on the integer keys d*lambda_k, with
    d the common denominator of alpha and mu, at tolerance 0 (Python
    integers in an object array, so large denominators cannot overflow);
    otherwise on the float eigenvalues at tol = CLUSTER_RTOL.  Groups are
    sorted and listed by representative (``_rep_keys``).  A group of size
    > 3 contradicts the cubic dispersion shape and raises ClusterSizeError.
    """
    return _partition(n, alpha, mu)[:2]


def _partition(n: int, alpha, mu):
    """(groups, exact, rows, slot): ``clusters``' two items, the rows k+n
    of the representatives in cluster order, and the cluster of each
    wavenumber k at index k+n."""
    exact = isinstance(alpha, Rational) and isinstance(mu, Rational)
    if exact:
        d = math.lcm(alpha.denominator, mu.denominator)
        a = alpha.numerator * (d // alpha.denominator)
        m2 = 2 * mu.numerator * (d // mu.denominator)
        values = np.array([d * k**3 + m2 * k - a * k * abs(k)
                           for k in range(-n, n + 1)], dtype=object)
    else:
        values = eigenvalues(n, alpha, mu)
    order = np.argsort(values, kind="stable")
    v = values[order]
    if exact:
        breaks = v[1:] != v[:-1]
    else:
        scale = np.maximum(1.0, np.abs(v))   # a gap's larger end: mirror-blind
        breaks = np.abs(np.diff(v)) > CLUSTER_RTOL * np.maximum(scale[1:],
                                                                scale[:-1])
    ks = order - n
    first = np.concatenate([[True], breaks])     # the first of each group
    rows = np.minimum.reduceat(_rep_keys(ks, n), np.flatnonzero(first)) \
        % (2 * n + 1)
    cluster = np.argsort(np.argsort(rows))[np.cumsum(first) - 1]
    members = ks[np.lexsort((ks, cluster))].tolist()
    sizes = np.bincount(cluster)
    cuts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    groups = [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]
    if sizes.max() > 3:
        g = groups[np.argmax(sizes > 3)]
        raise ClusterSizeError(
            f"cluster {g} of size {len(g)} at alpha={alpha}, mu={mu} "
            "(at most 3 indices may share an eigenvalue)"
        )
    return groups, exact, np.sort(rows), cluster[np.argsort(order)]


def analyze(n: int, alpha, mu=0) -> Spectrum:
    """Build the Spectrum: eigenvalues, clusters, gap, and scan window.

    Spectra are memoized by value in the byte-bounded store: a call with
    the same arguments, of the same types, returns the same read-only
    Spectrum while the store keeps it, and ``cache_clear()`` empties the
    store, horizons included.  The near-cluster warning is raised on every
    call.  A bad alpha or mu, one past the float range among them, and
    eigenvalues past the float range are refused before any store is read.
    """
    if not (0 < alpha and math.isfinite(_float(alpha))
            and math.isfinite(_float(mu))):
        raise ConfigurationError("alpha must be positive and finite, mu finite")
    _check_range(n, alpha, mu)
    spec, near = _spectrum(n, alpha, mu)
    if near:
        warnings.warn(near, RuntimeWarning)
    return spec


@stored(eigenvalues.key)
def _spectrum(n: int, alpha, mu) -> tuple:
    """The Spectrum and its near-cluster warning, None if there is none."""
    lam = eigenvalues(n, alpha, mu)
    groups, exact, rows, slot = _partition(n, alpha, mu)
    gaps = np.sort(np.diff(np.sort(lam[rows])))
    dmin = float(gaps[0]) if len(gaps) else float("inf")
    spec = Spectrum(
        alpha=float(alpha),
        mu=float(mu),
        n=n,
        lambdas=lam,
        clusters=tuple(groups),
        slot=read_only(slot),
        gap_gamma=dmin,
        window_bound=window_bound(alpha),
        exact=exact,
        key=eigenvalues.key(n, alpha, mu),
        rep_rows=read_only(rows),
    )
    # flag nearly-degenerate pairs that were *not* clustered: the smallest
    # gap is compared against the next gap scale (the gap the spectrum would
    # have without the offending pair)
    larger = gaps[gaps > 2.0 * dmin]
    if len(larger) and 0 < dmin < NEAR_CLUSTER_FRACTION * larger[0]:
        return spec, (f"eigenvalue pair at distance {dmin:.3e} << "
                      f"neighbouring gap {larger[0]:.3e}: ill-conditioned "
                      "Gram matrix expected")
    return spec, None


analyze.cache_clear = _spectrum.cache_clear


def gap_gamma(spec: Spectrum) -> float:
    """Minimum |lambda_k - lambda_m| over distinct eigenvalues.

    ``analyze`` takes it by brute force from the sorted gaps of all distinct
    eigenvalues at the truncation.  (That the minimum is already attained
    by clusters meeting indices in [-1-W, W+1], W = window_bound, is
    checked by the tests.)
    """
    if len(spec.clusters) < 2:
        raise ValueError("need at least two distinct eigenvalues")
    return spec.gap_gamma


def require_mirror(a, what: str, cond: float = 1.0):
    """ConfigurationError unless max|a - conj(flip(a))| <= MIRROR_RTOL cond
    max|a|: ghat(-k) = conj ghat(k), or A[::-1, ::-1] = conj(A) to the
    rounding of a solve of condition number ``cond`` that formed ``a``."""
    defect = np.abs(a - np.flip(a).conj()).max()
    if defect > MIRROR_RTOL * cond * np.abs(a).max():
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
    """JSON-ready summary used by the `spectrum` CLI subcommand: clusters
    sorted by smallest member, and the gap of a one-cluster spectrum, inf,
    written as null (JSON has no inf)."""
    return {
        "alpha": spec.alpha,
        "mu": spec.mu,
        "n": spec.n,
        "lambdas": spec.lambdas.tolist(),
        "clusters": [list(g) for g in sorted(spec.clusters)],
        "gamma": spec.gap_gamma if math.isfinite(spec.gap_gamma) else None,
        "window_bound": spec.window_bound,
    }
