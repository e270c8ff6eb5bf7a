import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import orjson
import pytest

import benctrl.cli as cli
import benctrl.moment_control as mc
import benctrl.operators as operators
import benctrl.spectrum as spectrum_mod
import benctrl.stabilization as stab
from benctrl.cli import (Scenario, load_scenario, main, random_state, run,
                         run_sweep)
from benctrl.errors import BenctrlError, ConfigurationError
from benctrl.moment_control import ControlSignal
from benctrl.operators import apply_G, evolve_free
from benctrl.stabilization import EIG_COND_LIMIT
from benctrl.spectral import TorusFunction, sobolev_norm


def run_fresh(*args):
    """``benctrl`` run with ``args`` in a fresh Python process."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "benctrl.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestRandomState:
    def test_deterministic(self):
        a = random_state(42, 12, 1.0)
        b = random_state(42, 12, 1.0)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_mean_zero(self):
        assert random_state(7, 10, 0.0).coeff(0) == 0

    def test_requested_norm(self):
        for s, norm in [(0.0, 1.0), (1.0, 2.5), (2.0, 0.3)]:
            f = random_state(3, 16, s, norm)
            assert sobolev_norm(f, s) == pytest.approx(norm, rel=1e-12)

    def test_real(self):
        f = random_state(11, 8, 1.0)
        assert f.real_flag

    @pytest.mark.parametrize("seed,n,s", [(42, 12, 1.0), ([7, 1], 33, 0.5),
                                          (0, 1, 0.0), (5, 64, 2.0)])
    def test_one_draw_is_the_per_k_scalar_draws(self, seed, n, s):
        # PCG64 hands out the (n, 2) block in the order of the scalar draws
        # re_1, im_1, re_2, ..., so every state keeps its bits
        rng = np.random.default_rng(seed)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k in range(1, n + 1):
            z = (rng.standard_normal() + 1j * rng.standard_normal()) \
                * (1.0 + k) ** (-s - 1.0)
            c[n + k] = z
            c[n - k] = np.conj(z)
        f = TorusFunction(n, c, real_flag=True)
        f = f.with_coeffs(f.coeffs * (2.5 / sobolev_norm(f, s)))
        assert np.array_equal(random_state(seed, n, s, 2.5).coeffs, f.coeffs)


class TestStates:
    def test_zero(self):
        scn = Scenario(n=4, u0={"type": "zero"}).validate()
        f = cli._build_state(scn, "u0", 0)
        assert np.array_equal(f.coeffs, np.zeros(9))
        assert f.real_flag

    @pytest.mark.parametrize("name,plus,minus", [("cos", 0.5, 0.5),
                                                 ("sin", -0.5j, 0.5j)])
    def test_presets(self, name, plus, minus):
        scn = Scenario(n=3, u0={"type": "preset", "name": name}).validate()
        f = cli._build_state(scn, "u0", 0)
        expect = np.zeros(7, dtype=complex)
        expect[3 + 1], expect[3 - 1] = plus, minus
        assert np.array_equal(f.coeffs, expect)
        assert f.real_flag

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"experiment": "simulate", "n": 4,
                                    "u0": {"type": "preset", "name": "tan"},
                                    "outdir": str(tmp_path)}))
        assert main(["simulate", "--scenario", str(path)]) == 2
        assert "unknown preset 'tan'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestScenario:
    def test_defaults_validate(self):
        Scenario().validate()

    def test_rational_alpha_string(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"experiment": "spectrum", "alpha": "7/3",
                                    "n": 8}))
        scn = load_scenario(path)
        assert float(scn.alpha) == pytest.approx(7 / 3)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"experiment": "spectrum", "bogus": 1}))
        with pytest.raises(Exception):
            load_scenario(path)

    def test_digest_is_the_asdict_digest(self):
        n = 4
        coeffs = {"type": "coeffs", "real": True,
                  "data": [[k, 0.1 * k, -0.3 / (1 + abs(k))]
                           for k in range(-n, n + 1)]}
        bump = {"coefficients": [[k, 1.0 / (2 * np.pi) if k == 0 else 0.0,
                                  0.0] for k in range(-2 * n, 2 * n + 1)]}
        scn = Scenario(experiment="control", alpha=Fraction(7, 3), mu=0.3,
                       n=n, bump=bump, u0=coeffs, u1=coeffs,
                       T_list=(0.5, 1.0)).validate()
        d = dataclasses.asdict(scn)
        d.update(alpha="7/3", mu=0.3, T_list=[0.5, 1.0])
        del d["outdir"]
        text = json.dumps(d, sort_keys=True)
        assert scn.digest() == hashlib.sha256(text.encode()).hexdigest()[:16]

    def test_flag_overrides(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"experiment": "spectrum", "n": 4}))
        scn = load_scenario(path, {"n": 12})
        assert scn.n == 12

    @pytest.mark.parametrize("experiment,field,value,message", [
        ("simulate", "seed", "x", "seed must be an integer"),
        ("simulate", "seed", 1.5, "seed must be an integer"),
        ("simulate", "seed", -1, "seed must be >= 0"),
        ("simulate", "n_times", 2.5, "n_times must be an integer"),
        ("simulate", "n", 4.0, "n must be an integer"),
        ("control", "n_sim", 12.5, "n_sim must be an integer"),
        ("observability", "T_list", ["x"], "not a number: 'x'"),
        ("control", "T", "x", "T must be a finite number"),
        ("control", "u0", "random", "u0 must be an object"),
        ("control", "u0", {"type": "coeffs"}, "u0 data must be a list"),
        ("control", "u1", {"type": "coeffs", "data": [[1, "a", 0]]},
         "u1 data must be a list of [k, re, im]"),
        ("control", "u0", {"type": "random", "norm": "big"},
         "u0 norm must be a finite number"),
        ("control", "bump", {"coefficients": [[0, "x", 0]]},
         "bump coefficients must be a list of [k, re, im]"),
        ("control", "bump", {"coefficients": [[0, 0.1, 0]]},
         "ghat(0) must equal 1/(2pi)"),
        ("control", "bump", {"kind": "nope"}, 'bump kind must be "uniform"'),
        ("control", "bump", {"width": 7}, "bump width must lie in (0, 2pi)"),
        ("control", "u0", {"type": "coeffs", "real": True,
                           "data": [[1, 1, 0]]}, "Hermitian-symmetry defect"),
        ("control", "u0", {"type": "coeffs", "real": "yes",
                           "data": [[1, 1, 0]]},
         "u0 real must be true or false"),
        ("control", "bump", {"center": "x"},
         "bump center and width must be finite numbers"),
        ("control", "bump", {"width": None},
         "bump center and width must be finite numbers"),
        ("control", "u1", {"type": "random", "norm": -1},
         "u1 norm must be a finite number >= 0"),
        ("control", "T", [[1], [1, 2]], "T must be a finite number"),
        ("control", "T", True, "T must be a finite number"),
        ("simulate", "s", True, "s must be a finite number"),
        ("spectrum", "alpha", True, "alpha must be a finite number"),
        ("spectrum", "mu", True, "mu must be a finite number"),
        ("spectrum", "mu", [1], "mu must be a finite number"),
        ("spectrum", "mu", None, "mu must be a finite number"),
        ("spectrum", "alpha", float("inf"), "alpha must be finite"),
        ("spectrum", "mu", float("inf"), "mu must be finite"),
        ("control", "strict", "false", "strict must be true or false"),
        ("control", "T", None, "T must be a finite number"),
        ("stabilize", "decay_lambda", "2",
         "decay_lambda must be a finite number"),
        ("control", "u0", {"type": "random", "norm": True},
         "u0 norm must be a finite number"),
        # rows are placed by k: seventeen rows all labelled k=0 collide
        ("control", "bump", {"coefficients": [
            [0, z.real, z.imag] for z in operators.build_bump(kmax=8).ghat]},
         "bump coefficients must be a list of [k, re, im]"),
        # the kind is a choice for every experiment, as a state's type is
        ("spectrum", "bump", {"kind": "nope"}, 'bump kind must be "uniform"'),
        ("simulate", "bump", {"kind": 1}, 'bump kind must be "uniform"'),
        # so are a sampled bump's width and support
        ("spectrum", "bump", {"width": 7}, "bump width must lie in (0, 2pi)"),
        ("simulate", "bump", {"width": 7}, "bump width must lie in (0, 2pi)"),
        ("spectrum", "bump", {"center": 0.5, "width": 2.0},
         "bump support (-0.5000, 1.5000) must be contained in (0, 2pi)"),
        ("simulate", "bump", {"center": 0.5, "width": 2.0},
         "bump support (-0.5000, 1.5000) must be contained in (0, 2pi)")])
    def test_mistyped_field_exits_2(self, tmp_path, capsys, experiment, field,
                                    value, message):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"n": 4, field: value,
                                    "outdir": str(tmp_path / "out")}))
        assert main([experiment, "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,message", [
        ("[1]", "scenario must be an object"),
        ('"x"', "scenario must be an object"),
        ("null", "scenario must be an object"),
        ('{"n": 4, "alpha": 1e999}', "alpha must be finite"),
        ('{"n": 4, "mu": 1e999}', "mu must be finite"),
        ('{"n": 4, "outdir": 5}', "outdir must be a string")])
    def test_malformed_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                    text, message):
        monkeypatch.chdir(tmp_path)             # the default outdir is out/
        Path("scn.json").write_text(text)
        assert main(["spectrum", "--scenario", "scn.json"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and message in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["scn.json"]

    @pytest.mark.parametrize("argv,message", [
        (["control", "--T", "nan"], "T must be finite"),
        (["control", "--T", "inf"], "T must be finite"),
        (["simulate", "--s", "nan"], "s must be finite"),
        (["stabilize", "--law", "gramian", "--lambda", "nan"],
         "decay_lambda must be finite"),
        (["stabilize", "--t-final", "inf"], "t_final must be finite"),
        (["stabilize", "--t-final", "-1"], "t_final must be positive"),
        (["stabilize", "--t-final", "0"], "t_final must be positive"),
        (["observability", "--T-list", "0.5", "nan"],
         "T_list must be finite"),
        (["observability", "--T-list", "0.5", "-1"],
         "T_list must be a list of positive numbers")])
    def test_non_finite_or_non_positive_flag_exits_2(self, tmp_path, capsys,
                                                    argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--n", "4", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["125", 1.0, {"T": 1.0}, (0.5, 1.0), []])
    def test_T_list_must_be_a_list(self, tmp_path, capsys, value):
        with pytest.raises(ConfigurationError, match="T_list must be a list"):
            load_scenario(None, {"experiment": "observability",
                                 "T_list": value})
        if isinstance(value, tuple):
            return                      # JSON has no tuples
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"n": 4, "T_list": value,
                                    "outdir": str(tmp_path / "out")}))
        assert main(["observability", "--scenario", str(path)]) == 2
        assert "T_list must be a list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSpectrumCommand:
    def test_seven_thirds_reports_cluster(self, tmp_path, capsys):
        code = main(["spectrum", "--alpha", "7/3", "--n", "8",
                     "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [1, 2] in report["clusters"]
        assert [-2, -1] in report["clusters"]
        assert report["schema_version"] == 3
        assert report["provenance"]["toolkit"] == "benctrl"

    def test_invalid_alpha_exits_2(self, tmp_path):
        assert main(["spectrum", "--alpha", "-1", "--n", "4",
                     "--outdir", str(tmp_path)]) == 2

    def test_one_cluster_gap_is_written_as_null(self, tmp_path):
        # the spectrum of n=1, alpha=1 is one cluster, so gamma is inf
        assert main(["spectrum", "--alpha", "1", "--n", "1",
                     "--outdir", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject)
        assert report["clusters"] == [[-1, 0, 1]]
        assert report["gamma"] is None

    @pytest.mark.parametrize("alpha", ["abc", "1/0", "nan", "7/x"])
    def test_unparsable_alpha_exits_2(self, tmp_path, capsys, alpha):
        assert main(["spectrum", "--alpha", alpha, "--n", "8",
                     "--outdir", str(tmp_path)]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("below", [None, "sub"])
    def test_an_unusable_outdir_exits_2_and_writes_nothing(
            self, tmp_path, capsys, below):
        # the output path is an existing file, or a path under one
        blocker = tmp_path / "F"
        blocker.write_text("x")
        out = blocker / below if below else blocker
        assert main(["spectrum", "--n", "4", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["F"] and blocker.read_text() == "x"


class TestSimulateCommand:
    def test_weights_past_the_float_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--n", "8", "--s", "400",
                     "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "n=8" in err and "s=400" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_norms_are_those_of_the_free_flow(self, tmp_path):
        assert main(["simulate", "--alpha", "7/3", "--mu", "0.3", "--n", "8",
                     "--T", "3.0", "--s", "1.5", "--seed", "4",
                     "--outdir", str(tmp_path)]) == 0
        u0 = random_state(4, 8, 1.5)
        rows = np.loadtxt(tmp_path / "norms.csv", delimiter=",", skiprows=1)
        assert rows.shape == (120, 3)
        for t, l2, hs in rows:
            u = evolve_free(u0, t, Fraction(7, 3), Fraction(3, 10))
            assert l2 == pytest.approx(sobolev_norm(u, 0.0), rel=1e-14)
            assert hs == pytest.approx(sobolev_norm(u, 1.5), rel=1e-14)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["t_final"] == 3.0
        assert report["norm_drift"] <= 1e-14
        assert report["mean_drift"] == 0.0

    @pytest.mark.parametrize("n_times", [1, 0, -3])
    def test_no_samples_exits_2(self, tmp_path, capsys, n_times):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"experiment": "simulate", "n": 4,
                                    "n_times": n_times,
                                    "outdir": str(tmp_path / "out")}))
        assert main(["simulate", "--scenario", str(path)]) == 2
        assert "n_times must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_t_final_is_a_flag(self, tmp_path):
        assert main(["simulate", "--n", "8", "--t-final", "2",
                     "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["t_final"] == 2.0
        rows = np.loadtxt(tmp_path / "norms.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] == 2.0


class TestControlCommand:
    def test_free_flow_target_needs_tiny_control(self, tmp_path):
        n, alpha, T = 8, 1.0, 1.0
        u0 = random_state(5, n, 0.0)
        u1 = evolve_free(u0, T, alpha)
        scn = {
            "experiment": "control", "alpha": alpha, "n": n, "T": T,
            "seed": 5, "outdir": str(tmp_path / "out"),
            "u0": {"type": "coeffs", "real": True,
                   "data": [[int(k), float(c.real), float(c.imag)]
                            for k, c in zip(u0.wavenumbers, u0.coeffs)]},
            "u1": {"type": "coeffs", "real": True,
                   "data": [[int(k), float(c.real), float(c.imag)]
                            for k, c in zip(u1.wavenumbers, u1.coeffs)]},
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn))
        assert main(["control", "--scenario", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["control_norm"] <= 1e-10
        assert (tmp_path / "out" / "control_samples.npy").exists()
        assert (tmp_path / "out" / "control_coeffs.json").exists()

    def test_random_targets_report_fields(self, tmp_path):
        code = main(["control", "--alpha", "1.0", "--n", "8", "--T", "1.0",
                     "--seed", "3", "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("terminal_residual", "moment_residual", "nu_empirical",
                    "cond_gamma", "hum"):
            assert key in report
        assert report["terminal_residual"] <= 1e-8
        assert report["hum"]["terminal_residual"] <= 1e-8

    def test_coeffs_json_is_canonical(self, tmp_path, monkeypatch):
        """One line that orjson's sorted re-encoding of its parse repeats,
        whose numbers are the signal's frequencies and coefficients, bit
        for bit."""
        results = []
        synthesize = mc.synthesize_control

        def keeping(*args, **kwargs):
            results.append(synthesize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(mc, "synthesize_control", keeping)
        assert main(["control", "--alpha", "1.0", "--n", "8", "--T", "1.0",
                     "--seed", "3", "--outdir", str(tmp_path)]) == 0
        raw = (tmp_path / "control_coeffs.json").read_bytes()
        assert raw == orjson.dumps(orjson.loads(raw),
                                   option=orjson.OPT_SORT_KEYS)
        payload = json.loads(raw)
        signal, = (result.signal for result in results)
        E = signal.exp_coeffs
        assert [mode["k"] for mode in payload["modes"]] == list(range(-8, 9))
        for parsed, exact in (
                (payload["lambdas"], signal.lambdas),
                ([mode["coeffs"] for mode in payload["modes"]],
                 np.stack([E.real, E.imag], axis=-1))):
            parsed = np.array(parsed, dtype=np.float64)
            assert parsed.shape == exact.shape
            assert np.array_equal(parsed.view(np.uint64),
                                  exact.view(np.uint64))

    def test_samples_npy_is_numeric_grid(self, tmp_path):
        assert main(["control", "--alpha", "7/3", "--n", "8", "--T", "1.0",
                     "--seed", "3", "--outdir", str(tmp_path)]) == 0
        rows = np.load(tmp_path / "control_samples.npy", allow_pickle=False)
        assert rows.shape == (33 * 65, 4) and rows.dtype == np.float64
        payload = json.loads((tmp_path / "control_coeffs.json").read_text())
        coeffs = np.array([[complex(*z) for z in mode["coeffs"]]
                           for mode in payload["modes"]])
        signal = ControlSignal(8, 1.0, np.array(payload["lambdas"]), coeffs)
        xs = np.linspace(0.0, 2 * np.pi, 65, endpoint=False)
        ts = np.linspace(0.0, 1.0, 33)
        assert np.array_equal(rows[:, 0], np.repeat(ts, 65))
        assert np.array_equal(rows[:, 1], np.tile(xs, 33))
        h = (rows[:, 2] + 1j * rows[:, 3]).reshape(33, 65)
        assert np.array_equal(h, signal.sample_grid(xs, ts))

    def test_reached_flags_reported(self, tmp_path):
        assert main(["control", "--alpha", "1.0", "--n", "8", "--T", "1.0",
                     "--seed", "3", "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["reached"] is True
        assert report["hum"]["reached"] is True

    def test_missed_target_exits_3(self, tmp_path, capsys):
        # T=0.01: cond(Gamma) ~1e17, the moment route misses u1 by ~0.9 and
        # the Gramian route by ~1e-5
        with pytest.warns(RuntimeWarning, match="rank-revealing"):
            code = main(["control", "--n", "8", "--T", "0.01",
                         "--outdir", str(tmp_path)])
        assert code == 3
        assert "neither route reached" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "control_coeffs.json", "control_samples.npy", "report.json"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["reached"] is False
        assert report["hum"]["reached"] is False
        assert report["terminal_residual"] > 1e-8
        assert report["hum"]["terminal_residual"] > 1e-8

    def test_run_writes_a_missed_target_then_raises(self, tmp_path):
        scn = load_scenario(None, {"experiment": "control", "n": 8,
                                   "T": 0.01, "outdir": str(tmp_path)})
        with pytest.warns(RuntimeWarning, match="rank-revealing"), \
                pytest.raises(BenctrlError, match="^neither route reached"):
            run(scn)
        assert (tmp_path / "report.json").exists()

    def test_strict_mode_singular_gram_exits_3(self, tmp_path):
        scn = {"experiment": "control", "alpha": 0.1, "n": 16, "T": 0.05,
               "seed": 1, "strict": True, "outdir": str(tmp_path)}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn))
        assert main(["control", "--scenario", str(path)]) == 3

    def test_one_spectrum_for_control_and_stabilize(self, tmp_path,
                                                    monkeypatch):
        # control keeps the parsed Fraction, so stabilize at the same
        # parameters reuses the spectrum control analyzed
        calls = []
        partition = spectrum_mod._partition

        def counting(*args, **kwargs):
            calls.append(args)
            return partition(*args, **kwargs)

        monkeypatch.setattr(spectrum_mod, "_partition", counting)
        spectrum_mod.analyze.cache_clear()
        args = ["--alpha", "7/3", "--n", "8", "--T", "1.0", "--seed", "3"]
        assert main(["control", *args, "--outdir", str(tmp_path / "c")]) == 0
        assert main(["stabilize", *args, "--outdir", str(tmp_path / "s")]) == 0
        assert len(calls) == 1

    def test_each_coefficient_list_is_read_once(self, tmp_path, monkeypatch):
        """Validation reads the rows of u0, u1 and the bump, and the run
        builds from what it read, which is no part of the scenario's hash:
        the hash is the one it was before validation kept them."""
        n = 4
        state = {"type": "coeffs", "real": True,
                 "data": [[k, 0.1 * abs(k), -0.3 * k / (1 + abs(k))]
                          for k in range(-n, n + 1) if k]}
        target = {**state, "data": [[0, 0.0, 0.0], [1, 0.5, 0.0],
                                    [-1, 0.5, 0.0]]}
        bump = {"coefficients": [[k, 0.5 / np.pi ** (1 + abs(k)), 0.0]
                                 for k in range(-2 * n, 2 * n + 1)]}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({
            "experiment": "control", "alpha": "7/3", "n": n, "bump": bump,
            "u0": state, "u1": target, "outdir": str(tmp_path / "out")}))
        calls = []
        rows = cli._rows

        def counting(key, *args):
            calls.append(key)
            return rows(key, *args)

        monkeypatch.setattr(cli, "_rows", counting)
        assert main(["control", "--scenario", str(path)]) == 0
        assert calls == ["u0 data", "u1 data", "bump coefficients"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["provenance"]["scenario_hash"] == "36ed470edb43fea4"


class TestStabilizeCommand:
    def test_gramian_rate_reported(self, tmp_path):
        code = main(["stabilize", "--law", "gramian", "--lambda", "1.0",
                     "--alpha", "1.0", "--n", "12", "--T", "1.0",
                     "--seed", "2", "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fitted_rate"] >= 0.99
        assert report["spectral_abscissa"] <= -1.0 * (1 - 1e-6)
        assert report["delta"] > 0
        decay = (tmp_path / "decay.csv").read_text().splitlines()
        assert decay[0] == "t,L2_norm,Hs_norm"

    def test_short_window_gramian_law(self, tmp_path):
        # cond(L_lambda) ~1e6 at T=0.1: the solve for the gain leaves K
        # mirror-symmetric only to ~1e-10 of its size, which is rounding
        code = main(["stabilize", "--law", "gramian", "--lambda", "1.0",
                     "--alpha", "1", "--n", "8", "--T", "0.1",
                     "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["spectral_abscissa"] <= -1.0

    def test_simple_law(self, tmp_path):
        code = main(["stabilize", "--law", "simple", "--alpha", "1.0",
                     "--n", "8", "--seed", "4", "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fitted_rate"] > 0

    def test_too_few_samples_exits_2(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"experiment": "stabilize", "n": 8,
                                    "n_times": 5, "outdir": str(tmp_path)}))
        assert main(["stabilize", "--scenario", str(path)]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_a_law_outlives_the_runs_between(self, tmp_path, monkeypatch):
        """The runs in between evict the spectrum the law was built on; the
        repeat run rebuilds it, keys alike and finds the law with its
        eigendecomposition kept."""
        stabilize = ["stabilize", "--law", "gramian", "--lambda", "1",
                     "--n", "16"]
        runs = [stabilize, ["spectrum", "--n", "64"],
                ["observability", "--n", "16", "--T-list", "0.05", "0.1",
                 "1"]]
        for i, args in enumerate(runs):
            assert main(args + ["--outdir", str(tmp_path / str(i))]) == 0
        eigs, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda *a, **k: eigs.append(a) or eig(*a, **k))
        assert main(stabilize + ["--outdir", str(tmp_path / "again")]) == 0
        assert eigs == []

    def test_decay_fit_failure_exits_3(self, tmp_path, capsys):
        # a long horizon drives all but two norms below the noise floor
        out = tmp_path / "out"
        assert main(["stabilize", "--law", "gramian", "--lambda", "1",
                     "--n", "8", "--t-final", "1000",
                     "--outdir", str(out)]) == 3
        assert "samples above the noise floor" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_observability_leaves_no_partial_bundle(self, tmp_path,
                                                            capsys):
        # decay.csv is checked with the report, and written only with it
        out = tmp_path / "out"
        assert main(["stabilize", "--n", "16", "--alpha", "1", "--T", "0.001",
                     "--outdir", str(out)]) == 3
        assert "Gramian singular" in capsys.readouterr().err
        assert not out.exists()


class TestObservabilityCommand:
    def test_delta_pairs(self, tmp_path):
        code = main(["observability", "--alpha", "1.0", "--n", "8",
                     "--T-list", "0.01", "0.1", "1.0",
                     "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        deltas = [p["delta"] for p in report["pairs"]]
        assert all(d > 0 for d in deltas)
        assert deltas == sorted(deltas)

    def test_singular_gramian_exits_3_without_a_directory(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        assert main(["observability", "--n", "16", "--alpha", "1",
                     "--T-list", "0.001", "--outdir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err
        assert not out.exists()


class TestReproducibility:
    def test_identical_reports(self, tmp_path):
        args = ["control", "--alpha", "1.0", "--n", "8", "--T", "1.0",
                "--seed", "17"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--outdir", str(out1)]) == 0
        assert main(args + ["--outdir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_identical_stabilize_reports(self, tmp_path):
        args = ["stabilize", "--law", "simple", "--alpha", "7/3", "--n", "8",
                "--seed", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--outdir", str(out1)]) == 0
        assert main(args + ["--outdir", str(out2)]) == 0
        raw = (out1 / "report.json").read_bytes()
        assert raw == (out2 / "report.json").read_bytes()
        assert 1.0 <= json.loads(raw)["closed_loop_cond_V"] <= EIG_COND_LIMIT

    # the decay fit's best-R^2 fallback warns at this order; what is
    # checked here is that every run writes the same bytes
    @pytest.mark.filterwarnings("ignore:no suffix window:RuntimeWarning")
    def test_a_kept_law_writes_the_bytes_of_a_fresh_one(self, tmp_path):
        """The second run here reads the law the first one computed; a
        fresh process computes it again."""
        args = ["stabilize", "--law", "gramian", "--lambda", "1.0", "--n",
                "12", "--seed", "5"]
        stab.build_L_lambda.cache_clear()
        stab.feedback_gramian.cache_clear()
        outs = [tmp_path / name for name in ("first", "kept", "fresh")]
        for out in outs[:2]:
            assert main(args + ["--outdir", str(out)]) == 0
        proc = run_fresh(*args, "--outdir", str(outs[2]))
        assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "decay.csv"):
            first, *others = ((out / name).read_bytes() for out in outs)
            assert others == [first, first]

    # a benchmark bundle: five experiments at n=32, spectrum at n=512
    BUNDLE = {
        "spectrum": ["--n", "512"],
        "simulate": ["--T", "5", "--s", "1"],
        "control": ["--T", "1", "--s", "0"],
        "stabilize": ["--T", "1", "--s", "1", "--law", "gramian",
                      "--lambda", "1"],
        "observability": ["--T-list", "0.05", "0.1", "0.5", "1", "2"],
    }

    @pytest.mark.filterwarnings("ignore:no suffix window:RuntimeWarning")
    def test_a_second_bundle_reads_the_kept_plant(self, tmp_path,
                                                  monkeypatch):
        """The store keeps the n=32 spectrum and its five horizons across
        the n=512 spectrum, so a second bundle in the process certifies
        no forward Gramian and partitions no spectrum, and writes the
        bytes of a bundle run on an empty store."""
        calls = []
        certify, partition = operators.Plant._certify, spectrum_mod._partition
        monkeypatch.setattr(operators.Plant, "_certify", lambda plant, *a: (
            calls.append(a[1]) or certify(plant, *a)))
        monkeypatch.setattr(spectrum_mod, "_partition", lambda *a: (
            calls.append("partition") or partition(*a)))

        def bundle():
            calls.clear()
            for exp, extra in self.BUNDLE.items():
                assert main([exp, "--alpha", "7/3", "--n", "32", "--seed",
                             "11", *extra, "--outdir",
                             str(tmp_path / exp)]) == 0
            return {path.relative_to(tmp_path): path.read_bytes()
                    for path in sorted(tmp_path.rglob("*.*"))}

        def forget():
            spectrum_mod.analyze.cache_clear()
            stab.build_L_lambda.cache_clear()
            stab.feedback_gramian.cache_clear()

        forget()
        first = bundle()
        fresh = ["backward"] + ["forward"] * 5 + ["partition"] * 2
        assert sorted(calls) == fresh
        assert bundle() == first and calls == []
        forget()
        assert bundle() == first and sorted(calls) == fresh

    def test_report_is_one_canonical_line(self, tmp_path):
        assert main(["spectrum", "--alpha", "7/3", "--n", "40",
                     "--outdir", str(tmp_path)]) == 0
        raw = (tmp_path / "report.json").read_text()
        assert raw == json.dumps(json.loads(raw), sort_keys=True) + "\n"


class TestNonFiniteResults:
    """Strict JSON has no NaN or infinity: a result past the float range is
    a numerical failure, and its JSON artifact is not written."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("experiment,n,norms,field", [
        ("simulate", 4, {"u0": 1e308}, "norm_drift"),
        ("stabilize", 8, {"u0": 1e300}, "fitted_rate"),
        ("control", 8, {"u0": 1e300, "u1": 1e300}, "terminal_residual")])
    def test_huge_state_exits_3_without_a_report(self, tmp_path, capsys,
                                                  experiment, n, norms,
                                                  field):
        scn = {"experiment": experiment, "n": n,
               "outdir": str(tmp_path / "out"),
               **{key: {"type": "random", "norm": norm}
                  for key, norm in norms.items()}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn))
        assert main([experiment, "--scenario", str(path)]) == 3
        assert (f"numerical failure: report.json field {field} is not "
                "finite") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,norms,field", [
        ("simulate", {"u0": 1e308}, "norm_drift"),
        ("stabilize", {"u0": 1e300}, "fitted_rate"),
        ("control", {"u0": 1e300, "u1": 1e300}, "terminal_residual")])
    def test_the_failure_is_the_one_line_on_stderr(self, tmp_path, capsys,
                                                    experiment, norms, field):
        """numpy's overflow and invalid-value warnings of the run stay off
        stderr; the refusal of the non-finite field is what it reports."""
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({key: {"type": "random", "norm": norm}
                                    for key, norm in norms.items()}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([experiment, "--n", "4", "--scenario", str(path),
                         "--outdir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure: report.json field {field} is not finite"]
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.parametrize("args", [
        ["spectrum", "--alpha", "1e308"], ["simulate", "--alpha", "1e308"],
        ["control", "--alpha", "1e308"], ["spectrum", "--mu", "1e308"]])
    def test_eigenvalues_past_the_float_range_exit_2(self, tmp_path, args):
        """lambda_k past the float range is a validation error, raised
        before any overflow warns and before any directory is made."""
        out = tmp_path / "out"
        proc = run_fresh(*args, "--n", "8", "--outdir", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "validation error: eigenvalues past the float range" \
            in proc.stderr
        assert "Warning:" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["observability", "--n", "4", "--T-list", "1e307"],
        ["stabilize", "--n", "4", "--alpha", "1e10", "--T", "1e300",
         "--law", "gramian"],
        ["control", "--n", "4", "--alpha", "7e306"],
        ["stabilize", "--n", "4", "--alpha", "1e300"]])
    def test_an_overflow_from_valid_inputs_exits_3(self, tmp_path, args):
        """Valid parameters whose computation leaves the float range (a
        kernel of lambda_k T past it, eigenvalues whose spread is, a decay
        fit over times that underflow) are a numerical failure: numpy's
        LinAlgError or a non-finite field, one line and no warning."""
        out = tmp_path / "out"
        proc = run_fresh(*args, "--outdir", str(out))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "Warning:" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("field,index,bad", [
        ("lambdas[2]", 2, np.nan),
        ("modes[1].coeffs[3][1]", (1, 3, 1), -np.inf),
        ("modes[4].coeffs[0][0]", (4, 0, 0), np.inf)])
    def test_a_non_finite_coefficient_is_named_by_its_path(self, field, index,
                                                           bad):
        lambdas, coeffs = np.arange(5.0), np.ones((5, 5, 2))
        (coeffs if isinstance(index, tuple) else lambdas)[index] = bad
        with pytest.raises(BenctrlError, match="^" + re.escape(
                f"control_coeffs.json field {field} is not finite") + "$"):
            cli._coeffs_json(lambdas, coeffs)

    def test_overflowing_coefficients_exit_3_without_a_directory(
            self, tmp_path, capsys):
        """Targets of norm 1e307 overflow the moment coefficients: the run
        names the first one and writes nothing."""
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({key: {"type": "random", "norm": 1e307}
                                    for key in ("u0", "u1")}))
        assert main(["control", "--n", "4", "--scenario", str(path),
                     "--outdir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: control_coeffs.json field "
            "modes[3].coeffs[0][0] is not finite"]
        assert not (tmp_path / "out").exists()

    def test_the_field_is_named_by_its_path(self):
        payload = {"b": 1.0, "a": [0.5, {"c": [2.0, -np.inf]}]}
        with pytest.raises(BenctrlError,
                           match=r"^x.json field a\[1\].c\[1\] is not finite$"):
            cli._json_text("x.json", payload)
        payload["a"][1]["c"][1] = 3.0
        assert cli._json_text("x.json", payload) == \
            json.dumps(payload, sort_keys=True)


class TestSweep:
    def test_fans_out_with_deterministic_seeds(self, tmp_path):
        scn = {"experiment": "spectrum", "n": 6, "seed": 10,
               "outdir": str(tmp_path),
               "sweep": [{"alpha": 1.0}, {"alpha": "7/3"}, {"alpha": 0.1}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(scn))
        assert main(["sweep", str(path), "--workers", "2"]) == 0
        for i in range(3):
            rep = json.loads(
                (tmp_path / f"case_{i:03d}" / "report.json").read_text())
            assert rep["provenance"]["seed"] == 10 + i


    def test_invalid_case_exits_2_and_the_rest_run(self, tmp_path, capfd):
        scn = {"experiment": "spectrum", "n": 6, "outdir": str(tmp_path),
               "sweep": [{"alpha": 1.0}, {"alpha": "abc"}, {"alpha": "7/3"}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(scn))
        assert main(["sweep", str(path), "--workers", "2"]) == 2
        assert "not a number: 'abc'" in capfd.readouterr().err
        assert (tmp_path / "case_000" / "report.json").exists()
        assert not (tmp_path / "case_001" / "report.json").exists()
        assert (tmp_path / "case_002" / "report.json").exists()

    def test_a_non_object_case_exits_2_and_the_rest_run(self, tmp_path,
                                                        capfd):
        scn = {"experiment": "spectrum", "n": 6, "outdir": str(tmp_path),
               "sweep": [{"alpha": "1"}, 5, {"alpha": "7/3"}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(scn))
        assert main(["sweep", str(path), "--workers", "2"]) == 2
        err = capfd.readouterr().err
        assert "validation error in case 1: a sweep case must be an object" \
            in err and "Traceback" not in err
        assert (tmp_path / "case_000" / "report.json").exists()
        assert not (tmp_path / "case_001").exists()
        assert (tmp_path / "case_002" / "report.json").exists()

    def test_each_case_exits_with_its_own_code_named(self, tmp_path, capfd):
        # case 0 fails numerically, and case 1 cannot make its directory
        (tmp_path / "case_001").write_text("")
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "experiment": "observability", "n": 16, "outdir": str(tmp_path),
            "sweep": [{"T_list": [0.001]}, {"T_list": [1.0]},
                      {"T_list": [0.5]}]}))
        assert main(["sweep", str(path), "--workers", "2"]) == 3
        err = capfd.readouterr().err
        assert "numerical failure in case 0: " in err
        assert "validation error in case 1: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "case_000").exists()
        assert (tmp_path / "case_002" / "report.json").exists()

    @pytest.mark.parametrize("content", [[{"alpha": 1.0}], {"sweep": 5},
                                         {"sweep": {"alpha": 1.0}}])
    def test_a_malformed_sweep_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(content))
        assert main(["sweep", str(path)]) == 2
        assert "needs a non-empty 'sweep' list" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_exit_2(self, tmp_path, capsys, workers):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"experiment": "spectrum", "n": 6,
                                    "outdir": str(tmp_path / "out"),
                                    "sweep": [{}]}))
        assert main(["sweep", str(path), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "validation error: --workers must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_cases_draw_distinct_states(self, tmp_path, monkeypatch):
        drawn = []

        def recording(seed, *args):
            state = random_state(seed, *args)
            drawn.append((seed, state.coeffs))
            return state

        monkeypatch.setattr(cli, "random_state", recording)
        base = {"experiment": "control", "n": 6, "seed": 10,
                "outdir": str(tmp_path)}
        assert [cli._run_sweep_entry((base, {}, i)) for i in range(2)] == [0, 0]
        assert len(drawn) == 4
        for i, (seed_a, a) in enumerate(drawn):
            for seed_b, b in drawn[i + 1:]:
                assert not np.array_equal(a, b), (seed_a, seed_b)

    # the decay fit's best-R^2 fallback warns at this order; what is
    # checked here is that every run writes the same bytes
    @pytest.mark.filterwarnings("ignore:no suffix window:RuntimeWarning")
    def test_cases_under_one_law_match_single_runs(self, tmp_path):
        """One worker runs the three cases, so the later two read the law
        the first one computed."""
        common = {"experiment": "stabilize", "law": "gramian",
                  "decay_lambda": 1.0, "n": 12, "seed": 7}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**common, "outdir": str(tmp_path / "sw"),
                                    "sweep": [{}, {}, {}]}))
        assert main(["sweep", str(path), "--workers", "1"]) == 0
        for i in range(3):
            single = tmp_path / f"single{i}"
            assert main(["stabilize", "--law", "gramian", "--lambda", "1.0",
                         "--n", "12", "--seed", str(7 + i),
                         "--outdir", str(single)]) == 0
            for name in ("report.json", "decay.csv"):
                assert (single / name).read_bytes() == \
                    (tmp_path / "sw" / f"case_{i:03d}" / name).read_bytes()


class TestOversampledDiagnostic:
    def test_spillover_reported(self, tmp_path):
        import json as _json
        scn = {"experiment": "control", "alpha": 1.0, "n": 8, "n_sim": 24,
               "T": 1.0, "seed": 3, "outdir": str(tmp_path)}
        path = tmp_path / "scn.json"
        path.write_text(_json.dumps(scn))
        assert main(["control", "--scenario", str(path)]) == 0
        report = _json.loads((tmp_path / "report.json").read_text())
        assert report["spillover_beyond_n"] is not None
        assert 0 < report["spillover_beyond_n"] < 1

    def test_spillover_is_the_per_sample_apply_G_loop(self, tmp_path):
        """The matrix of G is built once per run; the oracle rebuilds it for
        every sample, as each apply_G call did before it was kept."""
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({
            "experiment": "control", "alpha": 1.0, "n": 8, "n_sim": 24,
            "T": 1.0, "seed": 3, "outdir": str(tmp_path)}))
        assert main(["control", "--scenario", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        scn = load_scenario(path)
        u0 = cli._build_state(scn, "u0", scn.seed)
        u1 = cli._build_state(scn, "u1", [scn.seed, 1])
        problem = mc.ControlProblem(scn.alpha, scn.mu, scn.T, scn.s, scn.n,
                                    cli._build_bump(scn, 2 * scn.n), u0, u1)
        signal = mc.synthesize_control(problem, on_singular="lstsq").signal
        fine = cli._build_bump(scn, scn.n_sim + scn.n)
        oracle = 0.0
        for t in np.linspace(0.0, scn.T, 9):
            operators._widening.cache_clear()
            gh, dropped = apply_G(fine, signal.at_time(float(t)),
                                  return_spillover=True)
            oracle = max(oracle, dropped / sobolev_norm(gh, 0.0))
        assert report["spillover_beyond_n"] == oracle


    def test_one_bump_profile_per_run(self, tmp_path, monkeypatch):
        """The m-matrix reads the spillover band's profile: its
        coefficients at |k| <= 2n are the bits of an order-2n profile, so
        the report is that of two profiles, from one."""
        scn = {"experiment": "control", "alpha": 1.0, "n": 8, "n_sim": 24,
               "T": 1.0, "seed": 3, "outdir": str(tmp_path)}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn))
        profiles, profile = [], operators._profile

        def counted(*args):
            profiles.append(args[:3])
            return profile(*args)

        monkeypatch.setattr(operators, "_profile", counted)
        operators.build_bump.cache_clear()
        reports = []
        for _ in range(3):
            assert main(["control", "--scenario", str(path)]) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert profiles == [("raised_cosine", np.pi, np.pi / 2)]
        assert reports[1] == reports[0] and reports[2] == reports[0]
        wide = operators.build_bump(kmax=32).ghat
        assert len(profiles) == 1                  # served from the memo
        narrow = operators.build_bump(kmax=16).ghat
        assert np.array_equal(wide[16:49], narrow)

    def test_complex_valued_localizer_exits_2(self, tmp_path, capsys):
        n = 4
        ghat = operators.build_bump(kmax=2 * n).ghat.copy()
        ghat[2 * n + 1] *= np.exp(0.1j)      # ghat(-1) != conj ghat(1)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({
            "experiment": "control", "n": n, "outdir": str(tmp_path),
            "bump": {"coefficients": [[k, z.real, z.imag] for k, z in zip(
                range(-2 * n, 2 * n + 1), ghat)]}}))
        assert main(["control", "--scenario", str(path)]) == 2
        assert "mirror-symmetric" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestSharedParser:
    """``main`` builds its parser once per process; no run may leave state
    in it that a later run reads."""

    RUNS = (["stabilize", "--law", "gramian", "--lambda", "2"],
            ["stabilize"], ["spectrum"])

    def test_reports_match_fresh_processes(self, tmp_path):
        common = ["--n", "8", "--seed", "5"]
        for i, args in enumerate(self.RUNS):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*args, *common, "--outdir", str(here)]) == 0
            proc = run_fresh(*args, *common, "--outdir", str(fresh))
            assert proc.returncode == 0, proc.stderr
            assert (here / "report.json").read_bytes() == \
                (fresh / "report.json").read_bytes()
            # the fresh process warns exactly where this one did
            assert proc.stderr.count("Warning: ") == len(caught)
            assert all(str(w.message) in proc.stderr for w in caught)
        reports = [json.loads((tmp_path / f"here{i}" / "report.json")
                              .read_text()) for i in range(3)]
        assert [r.get("law") for r in reports] == ["gramian", "simple", None]
