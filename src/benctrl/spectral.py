"""Truncated Fourier representation of periodic functions on the torus.

A function f on T = R/(2*pi*Z) is stored through its Fourier coefficients
fhat(k) = (1/2pi) * int_0^{2pi} f(x) e^{-ikx} dx for k = -n..n, so that
f(x) = sum_k fhat(k) e^{ikx}.  The orthonormal basis used by all operator
matrices is psi_k(x) = e^{ikx}/sqrt(2pi); the psi-coefficients of f are
sqrt(2pi)*fhat(k) and the Sobolev norms below make {psi_k} orthonormal in L2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._memo import read_only

TWO_PI = 2.0 * np.pi

#: Hermitian-symmetry defect above which a declared-real function is rejected.
REALITY_TOL = 1e-10


@dataclass(frozen=True)
class TorusFunction:
    """Band-limited periodic function, immutable after construction.

    ``coeffs[k + n]`` is fhat(k) for the modes k = -n..n.  A function with
    ``real_flag`` set is declared real-valued: its coefficients are
    Hermitian-symmetrized at construction, and a symmetry defect above
    ``REALITY_TOL`` (relative) raises.
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
        object.__setattr__(self, "coeffs", read_only(np.ascontiguousarray(c)))

    # -- indexing helpers ------------------------------------------------

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def coeff(self, k: int) -> complex:
        """Fourier coefficient fhat(k); zero outside the stored band."""
        return complex(self.coeffs[k + self.n]) if abs(k) <= self.n else 0j

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


@functools.lru_cache(maxsize=64)
def hs_weights(n: int, s: float) -> np.ndarray:
    """H^s weights (1+|k|^2)^s for k = -n..n, read-only and memoized, by
    libm's scalar pow: numpy's vectorized one rounds differently by CPU."""
    return read_only(
        np.array([(1.0 + k * k) ** float(s) for k in range(-n, n + 1)]))


def sobolev_norm(f: TorusFunction, s: float) -> float:
    """H^s norm: sqrt(2pi * sum_k (1+|k|^2)^s |fhat(k)|^2) over stored modes."""
    return float(np.sqrt(TWO_PI * np.sum(hs_weights(f.n, s)
                                         * np.abs(f.coeffs) ** 2)))


def mean(f: TorusFunction) -> complex:
    """Mean value [f] = (1/2pi) * int f dx = fhat(0)."""
    return complex(f.coeffs[f.n])


def write_csv(path, header: str, rows) -> None:
    """Write a header line and one line per row of floats (shortest repr);
    ``rows`` is a 2-D array or an iterable of equal-length rows."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write("".join([header + "\n"] + [
            ",".join(map(repr, row)) + "\n" for row in table]))
