"""Eigenvalue analysis of the generator on the torus.

Mode k of the evolution carries the real eigenvalue

    lambda_k = k^3 + 2*mu*k - alpha*k*|k|,

and the free propagator multiplies mode k by e^{-i*lambda_k*t}.  Eigenvalues
may coincide for resonant alpha (e.g. alpha=1 groups {-1,0,1}; alpha=7/3
groups {1,2} and {-1,-2}); a maximal group of indices sharing one eigenvalue
is a cluster and never exceeds size 3.  The gap gamma between distinct
eigenvalues controls the conditioning of the moment problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._closedform import exp_kernel
from ._memo import Latest, latest
from .errors import ClusterSizeError

#: Default relative tolerance for float clustering decisions.
CLUSTER_RTOL = 1e-9

#: Pairs closer than NEAR_CLUSTER_FRACTION * gamma trigger a conditioning warning.
NEAR_CLUSTER_FRACTION = 1e-3


def eigenvalue(k: int, alpha, mu=0):
    """lambda_k = k^3 + 2*mu*k - alpha*k*|k| (mu=0 recovers the unshifted case).

    Exact when alpha and mu are rationals (Fraction in, Fraction out);
    float otherwise.
    """
    if isinstance(alpha, Rational) and isinstance(mu, Rational):
        return Fraction(k**3) + 2 * Fraction(mu) * k - Fraction(alpha) * k * abs(k)
    return float(k) ** 3 + 2.0 * float(mu) * k - float(alpha) * k * abs(k)


def eigenvalues(n: int, alpha, mu=0) -> np.ndarray:
    """Float array of lambda_k for k = -n..n."""
    k = np.arange(-n, n + 1, dtype=float)
    return k**3 + 2.0 * float(mu) * k - float(alpha) * k * np.abs(k)


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
    are the integrals of every Gramian (``operators.gramian``).  Both arrays
    are read-only.
    """

    T: float
    rate: float
    lambdas: np.ndarray            # lambda_k of the rows, index k+n
    matrix: np.ndarray
    gram: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the truncated generator with their cluster structure.

    ``clusters`` partitions the wavenumbers -n..n into groups of equal
    eigenvalue; each group is sorted and carries a representative index
    (the member of smallest |k|, which is 0 whenever 0 belongs to the
    group).  ``slot[k+n]`` is the index into ``clusters`` of the group that
    holds wavenumber k: the one map from modes to clusters that every
    cluster-aware computation reads.  ``kernel(T, rate)`` holds the time
    integrals over one horizon that every closed-form integral of a control
    and every Gramian reads.
    ``gap_gamma`` is the minimum spacing between distinct eigenvalues at
    this truncation.  The spectrum also keeps the latest biorthogonal
    family (``moment_control.build_biorthogonal``) and the latest certified
    Gramian (``operators.Gramian.certified``) built on it.
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
    _kernel: Latest = field(default_factory=Latest, init=False, repr=False,
                            compare=False)
    _family: Latest = field(default_factory=Latest, init=False, repr=False,
                            compare=False)
    _gramian: Latest = field(default_factory=Latest, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        lam = np.ascontiguousarray(np.asarray(self.lambdas, dtype=float))
        slot = np.array(self.slot, dtype=np.intp)
        lam.flags.writeable = slot.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "slot", slot)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def distinct_lambdas(self) -> np.ndarray:
        """One eigenvalue per cluster (its representative's), in cluster order."""
        return self.lambdas[np.add(self.representatives, self.n)]

    def kernel(self, T: float, rate: float = 0.0) -> HorizonKernel:
        """The HorizonKernel at horizon T under the weight e^{-2*rate*t}.

        The spectrum keeps the kernel of the latest (T, rate) asked for
        (another key replaces it), so the duals, the moments, the controlled
        evolution, the control norms and the controllability Gramian of one
        synthesis share a single evaluation.
        """
        T, rate = float(T), float(rate)

        def evaluate():
            matrix = exp_kernel(self.lambdas, self.distinct_lambdas(), T, rate)
            gram = matrix[np.add(self.representatives, self.n)]
            matrix.flags.writeable = gram.flags.writeable = False
            return HorizonKernel(T, rate, self.lambdas, matrix, gram)
        return self._kernel.get((T, rate), evaluate)


def _representative(group):
    """Cluster representative: smallest |k| (ties cannot occur outside the
    zero cluster, where 0 itself wins).  Mirror clusters then get mirrored
    representatives, which keeps real-valued synthesis exactly symmetric."""
    return min(group, key=lambda k: (abs(k), k))


def clusters(n: int, alpha, mu=0, tol=None):
    """Partition {-n..n} into groups of equal eigenvalue.

    One sweep over the sorted eigenvalues starts a new group wherever
    neighbours differ by more than tol*max(1, |lambda|).  When alpha and mu
    are exact rationals the sweep runs on the integer keys d*lambda_k, with
    d the common denominator of alpha and mu, at tolerance 0 (Python
    integers, so large denominators cannot overflow); otherwise on the float
    eigenvalues at tol (default 1e-9 relative).  A group of size > 3
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
        tol = CLUSTER_RTOL if tol is None else tol
    order = np.argsort(values, kind="stable")
    v = values[order]
    breaks = np.abs(np.diff(v)) > tol * np.maximum(1.0, np.abs(v[1:]))
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


def analyze(n: int, alpha, mu=0, tol=None) -> Spectrum:
    """Build the Spectrum: eigenvalues, clusters, gap, and scan window.

    Spectra are memoized by value, one at a time: a call with the same
    arguments, of the same types, returns the same read-only Spectrum (and
    with it the kernel, family and Gramian it keeps), and ``cache_clear()``
    forgets it.  The near-cluster warning is raised on every call.
    """
    spec = _spectrum(n, alpha, mu, tol)
    # flag nearly-degenerate pairs that were *not* clustered: the smallest
    # gap is compared against the next gap scale (the gap the spectrum would
    # have without the offending pair)
    dist = np.sort(spec.distinct_lambdas())
    if len(dist) > 2:
        gaps = np.diff(dist)
        dmin = gaps.min()
        larger = gaps[gaps > 2.0 * dmin]
        ref = larger.min() if len(larger) else dmin
        if 0 < dmin < NEAR_CLUSTER_FRACTION * ref:
            warnings.warn(
                f"eigenvalue pair at distance {dmin:.3e} << neighbouring gap "
                f"{ref:.3e}: ill-conditioned Gram matrix expected",
                RuntimeWarning)
    return spec


@latest(lambda n, alpha, mu, tol: (n, type(alpha), alpha, type(mu), mu, tol))
def _spectrum(n: int, alpha, mu, tol) -> Spectrum:
    if float(alpha) <= 0:
        raise ValueError("alpha must be positive")
    groups, exact = clusters(n, alpha, mu, tol)
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
    if len(groups) >= 2:
        gamma = gap_gamma(spec)
    else:
        gamma = float("inf")
    object.__setattr__(spec, "gap_gamma", gamma)
    return spec


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
