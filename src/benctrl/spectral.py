"""Truncated Fourier representation of periodic functions on the torus.

A function f on T = R/(2*pi*Z) is stored through its Fourier coefficients
fhat(k) = (1/2pi) * int_0^{2pi} f(x) e^{-ikx} dx for k = -n..n, so that
f(x) = sum_k fhat(k) e^{ikx}.  The orthonormal basis used by all operator
matrices is psi_k(x) = e^{ikx}/sqrt(2pi); the psi-coefficients of f are
sqrt(2pi)*fhat(k) and the Sobolev norms below make {psi_k} orthonormal in L2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError

TWO_PI = 2.0 * np.pi

#: Hermitian-symmetry defect above which a declared-real function is rejected.
REALITY_TOL = 1e-10


@dataclass(frozen=True)
class TorusFunction:
    """Band-limited periodic function, immutable after construction.

    Attributes
    ----------
    n : int
        Truncation order; modes k = -n..n are stored.
    coeffs : ndarray
        Complex Fourier coefficients fhat(k), indexed by k + n.
    real_flag : bool
        Whether the function is declared real-valued.  When set, the
        coefficients are Hermitian-symmetrized at construction and a
        symmetry defect above ``REALITY_TOL`` (relative) raises.
    """

    n: int
    coeffs: np.ndarray
    real_flag: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.n + 1,):
            raise ValueError(f"expected {2 * self.n + 1} coefficients, got {c.shape}")
        if self.real_flag:
            sym = 0.5 * (c + np.conj(c[::-1]))
            scale = max(1.0, np.abs(c).max()) if c.size else 1.0
            defect = np.abs(c - sym).max() / scale
            if defect > REALITY_TOL:
                raise ValueError(
                    f"real_flag set but Hermitian-symmetry defect {defect:.3e} "
                    f"exceeds {REALITY_TOL:.0e}"
                )
            c = sym
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- indexing helpers ------------------------------------------------

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def coeff(self, k: int) -> complex:
        """Fourier coefficient fhat(k); zero outside the stored band."""
        if abs(k) > self.n:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.n])

    @property
    def psi_coeffs(self) -> np.ndarray:
        """Coefficients in the orthonormal basis psi_k = e^{ikx}/sqrt(2pi)."""
        return np.sqrt(TWO_PI) * self.coeffs

    def with_coeffs(self, coeffs, real_flag=None) -> "TorusFunction":
        return TorusFunction(
            self.n, coeffs, self.real_flag if real_flag is None else real_flag
        )

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n: int, real_flag: bool = True) -> "TorusFunction":
        return TorusFunction(n, np.zeros(2 * n + 1, dtype=complex), real_flag)

    @staticmethod
    def basis(k: int, n: int) -> "TorusFunction":
        """The orthonormal basis element psi_k as a TorusFunction."""
        if abs(k) > n:
            raise ValueError(f"|k|={abs(k)} exceeds truncation n={n}")
        c = np.zeros(2 * n + 1, dtype=complex)
        c[k + n] = 1.0 / np.sqrt(TWO_PI)
        return TorusFunction(n, c, real_flag=(k == 0))

    @staticmethod
    def from_psi_coeffs(v, n: int, real_flag: bool = False) -> "TorusFunction":
        return TorusFunction(n, np.asarray(v, complex) / np.sqrt(TWO_PI), real_flag)


# -- core operations -----------------------------------------------------


def hs_weights(n: int, s: float) -> np.ndarray:
    """H^s weights (1+|k|^2)^s for k = -n..n."""
    k = np.arange(-n, n + 1, dtype=float)
    return (1.0 + k**2) ** s


def sobolev_norm(f: TorusFunction, s: float) -> float:
    """H^s norm: sqrt(2pi * sum_k (1+|k|^2)^s |fhat(k)|^2) over stored modes."""
    return float(np.sqrt(TWO_PI * np.sum(hs_weights(f.n, s)
                                         * np.abs(f.coeffs) ** 2)))


def inner_product(f: TorusFunction, g: TorusFunction, s: float = 0.0) -> complex:
    """H^s inner product 2pi * sum_k (1+|k|^2)^s fhat(k) conj(ghat(k))."""
    if f.n != g.n:
        raise ValueError("truncation orders differ")
    return complex(TWO_PI * np.sum(hs_weights(f.n, s) * f.coeffs
                                   * np.conj(g.coeffs)))


def hilbert_transform(f: TorusFunction) -> TorusFunction:
    """Periodic Hilbert transform as the Fourier multiplier -i*sgn(k).

    Mode 0 is annihilated; a real input yields a real output.
    """
    mult = -1j * np.sign(f.wavenumbers)
    return f.with_coeffs(mult * f.coeffs)


def mean(f: TorusFunction) -> complex:
    """Mean value [f] = (1/2pi) * int f dx = fhat(0)."""
    return complex(f.coeffs[f.n])


def project_mean_zero(f: TorusFunction) -> TorusFunction:
    """Zero the k=0 coefficient, leaving all other modes unchanged."""
    c = f.coeffs.copy()
    c[f.n] = 0.0
    return f.with_coeffs(c)


def synthesize(f: TorusFunction, m: int) -> np.ndarray:
    """Evaluate f on the uniform grid x_i = 2pi*i/m, i = 0..m-1.

    Returns a real array when ``f.real_flag`` is set, complex otherwise.
    """
    x = np.arange(m) * (TWO_PI / m)
    vals = np.exp(1j * np.outer(x, f.wavenumbers)) @ f.coeffs
    return vals.real if f.real_flag else vals


def analyze(samples, n: int, real_flag: bool = False) -> TorusFunction:
    """Recover Fourier coefficients from uniform samples by grid quadrature.

    fhat(k) is approximated by (1/m) * sum_i samples_i e^{-ik x_i}, the
    rectangle rule for (1/2pi) int f e^{-ikx} dx, which is exact for
    band-limited input when m >= 2n+1 and spectrally accurate for smooth
    periodic input.
    """
    samples = np.asarray(samples)
    m = samples.shape[0]
    if m < 2 * n + 1:
        raise AliasingError(f"m={m} samples cannot resolve modes up to n={n} "
                            f"(need m >= {2 * n + 1})")
    x = np.arange(m) * (TWO_PI / m)
    k = np.arange(-n, n + 1)
    coeffs = np.exp(-1j * np.outer(k, x)) @ samples / m
    return TorusFunction(n, coeffs, real_flag)


# -- wire formats ----------------------------------------------------------


def coeffs_to_json(f: TorusFunction) -> str:
    """Serialize coefficients as a JSON array of [k, re, im] triples."""
    triples = [[int(k), float(c.real), float(c.imag)]
               for k, c in zip(f.wavenumbers, f.coeffs)]
    return json.dumps(triples)


def coeffs_from_json(text: str, real_flag: bool = False) -> TorusFunction:
    triples = json.loads(text)
    ks = [int(t[0]) for t in triples]
    n = max(abs(k) for k in ks) if ks else 0
    c = np.zeros(2 * n + 1, dtype=complex)
    for k, re, im in triples:
        c[int(k) + n] = re + 1j * im
    return TorusFunction(n, c, real_flag)


def write_csv(path, header: str, rows) -> None:
    """Write a header line and one line per row of floats (shortest repr)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def samples_to_csv(f: TorusFunction, m: int, path) -> None:
    """Write samples as CSV columns (x, value); complex values as re/im pair."""
    x = np.arange(m) * (TWO_PI / m)
    vals = synthesize(f, m)
    if f.real_flag:
        write_csv(path, "x,value", zip(x, vals))
    else:
        write_csv(path, "x,value_re,value_im", zip(x, vals.real, vals.imag))
