import numpy as np
import pytest

from benctrl.spectral import TorusFunction, mean, sobolev_norm, write_csv


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
        assert mean(TorusFunction(1, c)) == pytest.approx(1.0)

    def test_basis_mean_zero(self):
        assert mean(TorusFunction.basis(1, 2)) == 0

    def test_definitional(self):
        c = np.zeros(3, dtype=complex)
        c[1] = 0.25
        assert mean(TorusFunction(1, c)) == pytest.approx(0.25)


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
    def test_csv_columns(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_csv(path, "x,value", [(0.0, 1 / 3), (np.pi, -2.5e-17)])
        lines = path.read_text().splitlines()
        assert lines == ["x,value", f"0.0,{1 / 3!r}", f"{np.pi!r},-2.5e-17"]
        assert float(lines[1].split(",")[1]) == 1 / 3
