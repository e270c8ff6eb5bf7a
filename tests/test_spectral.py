import warnings

import numpy as np
import pytest

from benctrl.errors import ConfigurationError
from benctrl.spectral import (TorusFunction, csv_text, hs_weights,
                              sobolev_norm)


class TestSobolevNorm:
    def test_basis_element_unit_l2(self):
        assert sobolev_norm(TorusFunction.basis(0, 4), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_psi1_h1(self):
        assert sobolev_norm(TorusFunction.basis(1, 4), 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_two_mode_h2(self):
        # fhat(2)=fhat(-2)=1, s=2: 2pi * 2 * (1+4)^2 = 100*pi
        c = np.zeros(9, dtype=complex)
        c[2 + 4] = 1.0
        c[-2 + 4] = 1.0
        f = TorusFunction(4, c, real_flag=True)
        assert sobolev_norm(f, 2.0) == pytest.approx(np.sqrt(100 * np.pi), rel=1e-14)


class TestMeanOps:
    def test_constant(self):
        c = np.array([0, 1.0, 0], dtype=complex)
        assert TorusFunction(1, c).coeff(0) == pytest.approx(1.0)

    def test_basis_mean_zero(self):
        assert TorusFunction.basis(1, 2).coeff(0) == 0

    def test_definitional(self):
        c = np.zeros(3, dtype=complex)
        c[1] = 0.25
        assert TorusFunction(1, c).coeff(0) == pytest.approx(0.25)


class TestRealFlag:
    def test_asymmetric_rejected(self):
        c = np.zeros(3, dtype=complex)
        c[2] = 1.0  # k=+1 without the conjugate partner
        with pytest.raises(ValueError):
            TorusFunction(1, c, real_flag=True)

    def test_tiny_defect_symmetrized(self):
        c = np.array([0.5 - 1e-13j, 0.0, 0.5], dtype=complex)
        f = TorusFunction(1, c, real_flag=True)
        assert f.coeff(-1) == np.conj(f.coeff(1))

    def test_immutable(self):
        f = TorusFunction.basis(1, 2)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0


class TestWireFormats:
    def test_csv_columns(self):
        lines = csv_text("x,value",
                         [(0.0, 1 / 3), (np.pi, -2.5e-17)]).splitlines()
        assert lines == ["x,value", f"0.0,{1 / 3!r}", f"{np.pi!r},-2.5e-17"]
        assert float(lines[1].split(",")[1]) == 1 / 3

    @staticmethod
    def old_csv(header, rows):
        """Reference bytes: ``repr(float(v))`` per value, row by row."""
        return header + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows)

    def test_csv_bytes_are_the_per_value_reprs(self):
        values = [-0.0, 5e-324, 1e16, 0.1 + 0.2, np.nan, np.inf, -np.inf,
                  1 / 3, -2.5e-17, 7]
        table = np.array(values).reshape(-1, 2)
        narrow = np.array([[0.1, -1e-8], [3.3, 2 ** -30]], dtype=np.float32)
        # the control_samples layout: every t and x repeats, the values
        # beside them are distinct, some of them -0.0, 0.0, nan and +-inf
        ts, xs = np.linspace(0.0, 0.3, 4), np.linspace(0.0, 2 * np.pi, 6)
        h = np.arange(48.0).reshape(2, 24) / 7 - 3
        h[0, :6] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324]
        h[1, :3] = [0.0, -0.0, -np.nan]
        grid = np.stack([*np.meshgrid(ts, xs, indexing="ij"),
                         *h.reshape(2, 4, 6)], axis=-1).reshape(-1, 4)
        for make in (lambda: table, lambda: iter(table.tolist()),
                     lambda: zip(*table.T), lambda: grid, lambda: narrow,
                     lambda: (tuple(r) for r in narrow),
                     lambda: [(7, True), (2 ** 60 + 1, -0)], lambda: []):
            assert csv_text("a,b", make()) == self.old_csv("a,b", make())

    def test_complex_entries_fail_as_before(self):
        with pytest.raises(TypeError):
            csv_text("a", [(1 + 2j,)])
        rows = [(np.complex128(1 + 2j),)]
        with pytest.warns(np.exceptions.ComplexWarning):
            assert csv_text("a", rows) == "a\n1.0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.exceptions.ComplexWarning):
                csv_text("a", rows)


class TestHsWeights:
    @pytest.mark.parametrize("n", [0, 1, 5, 96])
    @pytest.mark.parametrize("s", [0, 0.25, 0.5, 0.7, 1, 1.5, 2.0, 2.5])
    def test_scalar_pow_bit_for_bit(self, n, s):
        expected = np.array([(1.0 + k * k) ** s for k in range(-n, n + 1)])
        assert hs_weights(n, s).tobytes() == expected.tobytes()

    def test_memoized_read_only(self):
        w = hs_weights(7, 0.7)
        assert hs_weights(7, 0.7) is w
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_past_the_float_range_is_a_configuration_error(self):
        # 65^400 ~ 1e725: libm's pow overflows at k = 8
        with pytest.raises(ConfigurationError, match="n=8, s=400"):
            hs_weights(8, 400)
