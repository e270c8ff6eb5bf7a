"""Command-line front end: scenario files, experiments, CSV/JSON emission.

A scenario is a JSON file with explicit keys (flags override file values);
every run writes a ``report.json`` plus experiment CSVs into the output
directory.  All randomness flows from one 64-bit seed through NumPy's PCG64
generator, and reports are canonical JSON (sorted keys, shortest round-trip
float repr, no timestamps), so identical scenario + seed reproduces
byte-identical reports.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import moment_control as mc
from . import spectrum as spectrum_mod
from . import stabilization as stab
from .errors import BenctrlError, ConfigurationError
from .operators import apply_G, build_bump, bump_from_coefficients, m_matrix
from .spectral import (TWO_PI, TorusFunction, hs_weights, mean, sobolev_norm,
                       write_csv)

SCHEMA_VERSION = 1

EXPERIMENTS = ("spectrum", "simulate", "control", "stabilize", "observability")

#: relative H^s distance from u1 within which a control route reaches it
TERMINAL_TOL = 1e-8


def _parse_number(value):
    """Accept floats or exact-rational strings like '7/3'.

    Text that is not a finite number raises ConfigurationError.
    """
    if not isinstance(value, str):
        return value
    try:
        if "/" in value or value.isdigit():
            number = Fraction(value)
        else:
            number = float(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"not a finite number: {value!r}")
    return number


@dataclass
class Scenario:
    """Validated experiment description (see README for the grammar)."""

    experiment: str = "spectrum"
    alpha: object = 1.0            # float or Fraction
    mu: object = 0.0
    n: int = 16
    n_sim: int | None = None
    T: float = 1.0
    s: float = 0.0
    bump: dict = field(default_factory=lambda: {
        "kind": "raised_cosine", "center": float(np.pi),
        "width": float(np.pi / 2)})
    u0: dict = field(default_factory=lambda: {"type": "random", "norm": 1.0})
    u1: dict = field(default_factory=lambda: {"type": "random", "norm": 1.0})
    law: str = "simple"            # stabilize: simple | gramian
    decay_lambda: float = 1.0      # stabilize: requested rate for gramian law
    t_final: float | None = None   # stabilize/simulate horizon (auto if None)
    n_times: int = 120
    T_list: tuple = (0.01, 0.1, 1.0)   # observability horizons
    strict: bool = False           # control: error out on singular Gram
    seed: int = 0
    outdir: str = "out"

    def validate(self):
        for key in ("seed", "n", "n_sim", "n_times"):
            value = getattr(self, key)
            if type(value) is not int and (key != "n_sim" or value is not None):
                raise ConfigurationError(f"{key} must be an integer: {value!r}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        for key in ("T", "s", "decay_lambda", "t_final", "T_list"):
            value = getattr(self, key)      # t_final may be None
            if not all(map(math.isfinite, np.ravel(value or 0.0))):
                raise ConfigurationError(f"{key} must be finite: {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if float(self.alpha) <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.T <= 0:
            raise ConfigurationError("T must be positive")
        if self.n < 1:
            raise ConfigurationError("n must be >= 1")
        if self.s < 0:
            raise ConfigurationError("s must be >= 0")
        if self.n_sim is not None and self.n_sim < self.n:
            raise ConfigurationError("n_sim must be >= n")
        if self.law not in ("simple", "gramian"):
            raise ConfigurationError("law must be 'simple' or 'gramian'")
        if self.law == "gramian" and self.decay_lambda <= 0:
            raise ConfigurationError("decay_lambda must be positive")
        if self.t_final is not None and self.t_final <= 0:
            raise ConfigurationError("t_final must be positive")
        if self.n_times < 1:
            raise ConfigurationError("n_times must be >= 1")
        if self.experiment == "stabilize" and self.n_times < 10:
            raise ConfigurationError(
                "n_times must be >= 10: the decay fit needs 10 samples")
        return self

    def canonical(self) -> dict:
        # a shallow dict: json.dumps writes the same text as for asdict's
        # deep copy of every coefficient list
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["alpha"] = str(self.alpha) if isinstance(self.alpha, Fraction) \
            else float(self.alpha)
        d["mu"] = str(self.mu) if isinstance(self.mu, Fraction) else float(self.mu)
        d["T_list"] = list(self.T_list)
        return d

    def digest(self) -> str:
        ident = {k: v for k, v in self.canonical().items() if k != "outdir"}
        text = json.dumps(ident, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_scenario(path=None, overrides=None) -> Scenario:
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("alpha", "mu"):
        if key in data:
            data[key] = _parse_number(data[key])
    if "T_list" in data:
        if not isinstance(data["T_list"], list):
            raise ConfigurationError(f"T_list must be a list: {data['T_list']!r}")
        data["T_list"] = tuple(float(_parse_number(v)) for v in data["T_list"])
    return Scenario(**data).validate()


# -- deterministic state generation ------------------------------------------


def random_state(seed, n: int, s: float, norm: float = 1.0) -> TorusFunction:
    """Seeded real mean-zero state with coefficients ~ (1+|k|)^{-s-1}.

    Scaled so that the H^s norm equals ``norm`` exactly (to rounding).
    Determinism: NumPy PCG64 seeded with ``seed``, an int or a sequence of
    ints (a separate stream per sequence).
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2))
    # the scalar pow of libm: numpy's vectorized power can round differently
    # on some CPUs, and a state must stay the same bits for a seed
    decay = np.array([(1.0 + k) ** (-s - 1.0) for k in range(1, n + 1)])
    z = (g[:, 0] + 1j * g[:, 1]) * decay
    c = np.concatenate([np.conj(z[::-1]), [0.0], z])
    f = TorusFunction(n, c, real_flag=True)
    current = sobolev_norm(f, s)
    return f.with_coeffs(f.coeffs * (norm / current))


def _state_from_config(cfg: dict, n: int, s: float, seed) -> TorusFunction:
    kind = cfg.get("type", "random")
    if kind == "random":
        return random_state(seed, n, s, float(cfg.get("norm", 1.0)))
    if kind == "zero":
        return TorusFunction.zero(n)
    if kind == "preset":
        name = cfg.get("name", "cos")
        if name not in ("cos", "sin"):
            raise ConfigurationError(f"unknown preset {name!r}")
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n - 1], c[n + 1] = (0.5, 0.5) if name == "cos" else (0.5j, -0.5j)
        return TorusFunction(n, c, real_flag=True)
    if kind == "coeffs":
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, re, im in cfg["data"]:
            if abs(int(k)) > n:
                raise ConfigurationError(f"coefficient index {k} beyond n={n}")
            c[int(k) + n] = re + 1j * im
        return TorusFunction(n, c, real_flag=bool(cfg.get("real", False)))
    raise ConfigurationError(f"unknown state type {kind!r}")


def _build_bump(scn: Scenario, kmax: int):
    """The scenario's localizer, profiled to ``kmax`` unless given by coefficients."""
    cfg = scn.bump
    if "coefficients" in cfg:
        ghat = np.array([re + 1j * im for _, re, im in cfg["coefficients"]])
        return bump_from_coefficients(ghat)
    return build_bump(kind=cfg.get("kind", "raised_cosine"),
                      center=float(cfg.get("center", np.pi)),
                      width=float(cfg.get("width", np.pi / 2)),
                      kmax=kmax)


# -- report/CSV emission -----------------------------------------------------


def _write_report(outdir: Path, payload: dict, scn: Scenario) -> Path:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["provenance"] = {
        "toolkit": "benctrl",
        "version": __version__,
        "scenario_hash": scn.digest(),
        "seed": scn.seed,
    }
    path = outdir / "report.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# -- experiments -------------------------------------------------------------


def _run_spectrum(scn: Scenario, outdir: Path) -> dict:
    spec = spectrum_mod.analyze(scn.n, scn.alpha, scn.mu)
    return spectrum_mod.spectrum_report(spec)


def _run_simulate(scn: Scenario, outdir: Path) -> dict:
    u0 = _state_from_config(scn.u0, scn.n, scn.s, scn.seed)
    t_final = scn.t_final if scn.t_final is not None else scn.T
    times = np.linspace(0.0, t_final, scn.n_times)
    lam = spectrum_mod.eigenvalues(scn.n, scn.alpha, scn.mu)
    traj = np.exp(-1j * np.outer(times, lam)) * u0.coeffs
    power = np.abs(traj) ** 2
    l2, hs = (np.sqrt(TWO_PI * np.sum(hs_weights(scn.n, s) * power, axis=1))
              for s in (0.0, scn.s))
    write_csv(outdir / "norms.csv", "t,L2_norm,Hs_norm", zip(times, l2, hs))
    return {
        "experiment": "simulate",
        "t_final": float(times[-1]),
        "norm_drift": abs(hs[-1] - sobolev_norm(u0, scn.s)),
        "mean_drift": abs(traj[-1, scn.n] - u0.coeffs[scn.n]),
    }


def _run_control(scn: Scenario, outdir: Path) -> dict:
    # one profile for the spillover band n_sim + n and the m-matrix's |k| <= 2n
    fine = scn.n_sim and scn.n_sim > scn.n and "coefficients" not in scn.bump
    bump = _build_bump(scn, scn.n_sim + scn.n if fine else 2 * scn.n)
    u0 = _state_from_config(scn.u0, scn.n, scn.s, scn.seed)
    # u1 draws from its own stream: seed + 1 is the next sweep case's u0
    u1 = _state_from_config(scn.u1, scn.n, scn.s, [scn.seed, 1])
    # the shared mean rides along in mode 0 (feedback/control never touch it);
    # recorded so downstream tools can re-add it after mean-zero analysis
    mu0 = complex(mean(u0))
    problem = mc.ControlProblem(scn.alpha, scn.mu, scn.T, scn.s, scn.n, bump,
                                u0, u1)
    result = mc.synthesize_control(
        problem, on_singular="error" if scn.strict else "lstsq")
    hum_signal, hum_info = mc.hum_control(problem, result.spectrum,
                                          result.mmatrix)
    hum_res = mc.terminal_residual(problem, hum_signal, result.mmatrix)

    # oversampled diagnostic: mass of G(h) in modes n < |k| <= n_sim that the
    # (2n+1)-truncated simulation never sees, relative to |Gh|
    spillover = None
    if fine:
        spillover = 0.0
        for t in np.linspace(0.0, scn.T, 9):
            h_t = result.signal.at_time(float(t))
            gh, dropped = apply_G(bump, h_t, out_n=scn.n,
                                  return_spillover=True)
            base = sobolev_norm(gh, 0.0)
            if base > 0:
                spillover = max(spillover, dropped / base)

    # per-mode coefficient JSON + sampled control CSV
    E = result.signal.exp_coeffs
    coeff_payload = {
        "lambdas": [float(v) for v in result.signal.lambdas],
        "modes": [{"k": k, "coeffs": c} for k, c in zip(
            range(-scn.n, scn.n + 1),
            np.stack([E.real, E.imag], axis=-1).tolist())],
    }
    with open(outdir / "control_coeffs.json", "w") as fh:
        # json.dump never uses the C encoder; json.dumps writes the same bytes
        fh.write(json.dumps(coeff_payload, sort_keys=True))
    xs = np.linspace(0.0, 2 * np.pi, 65, endpoint=False)
    ts = np.linspace(0.0, scn.T, 33)
    vals = result.signal.sample_grid(xs, ts)
    write_csv(outdir / "control_samples.csv", "t,x,h_re,h_im",
              np.stack([*np.meshgrid(ts, xs, indexing="ij"), vals.real,
                        vals.imag], axis=-1).reshape(-1, 4))
    return {
        "experiment": "control",
        "terminal_residual": result.terminal_residual,
        "reached": result.terminal_residual <= TERMINAL_TOL,
        "moment_residual": result.moment_residual,
        "nu_empirical": result.nu_empirical,
        "cond_gamma": result.cond_gamma,
        "control_norm": result.control_norm,
        "hermitian_defect": result.signal.hermitian_defect(),
        "spillover_beyond_n": spillover,
        "mean_carried": [mu0.real, mu0.imag],
        "hum": {"terminal_residual": hum_res,
                "reached": hum_res <= TERMINAL_TOL,
                "control_norm": hum_signal.l2_hs_norm(0.0),
                "cond_W": hum_info["cond_W"]},
    }


def _run_stabilize(scn: Scenario, outdir: Path) -> dict:
    bump = _build_bump(scn, 2 * scn.n)
    spec = spectrum_mod.analyze(scn.n, scn.alpha, scn.mu)
    mm = m_matrix(bump, scn.n)
    if scn.law == "simple":
        law = stab.feedback_simple(mm, spec)
    else:
        L = stab.build_L_lambda(mm, spec, scn.decay_lambda, scn.T)
        law = stab.feedback_gramian(L, mm, spec)
    absc = stab.spectral_abscissa(law)
    u0 = _state_from_config(scn.u0, scn.n, scn.s, scn.seed)
    t_final = scn.t_final if scn.t_final is not None else \
        min(12.0 / max(abs(absc), 1e-6), 1e6)
    times = np.linspace(0.0, t_final, scn.n_times)
    hist = stab.norm_history(u0, law, times, s_values=(0.0, scn.s))
    fitobj = stab.estimate_decay_rate(hist["times"], hist[0.0])
    write_csv(outdir / "decay.csv", "t,L2_norm,Hs_norm",
              zip(hist["times"], hist[0.0], hist[scn.s]))
    delta, _ = stab.observability_constant(mm, spec, scn.T)
    return {
        "experiment": "stabilize",
        "law": scn.law,
        "lambda": scn.decay_lambda if scn.law == "gramian" else 0.0,
        "fitted_rate": fitobj.rate,
        "M": fitobj.M,
        "r2": fitobj.r2,
        "spectral_abscissa": absc,
        "closed_loop_cond_V": law.eigensystem.cond,
        "delta": delta,
        "t_final": float(t_final),
    }


def _run_observability(scn: Scenario, outdir: Path) -> dict:
    bump = _build_bump(scn, 2 * scn.n)
    spec = spectrum_mod.analyze(scn.n, scn.alpha, scn.mu)
    mm = m_matrix(bump, scn.n)
    return {"experiment": "observability", "pairs": [
        {"T": float(T), "delta": stab.observability_constant(mm, spec, float(T))[0]}
        for T in scn.T_list]}


_RUNNERS = {
    "spectrum": _run_spectrum,
    "simulate": _run_simulate,
    "control": _run_control,
    "stabilize": _run_stabilize,
    "observability": _run_observability,
}


def _missed_target(scn: Scenario, payload: dict) -> str | None:
    """Why a written report is still a numerical failure, if it is one."""
    if scn.experiment == "control" and not (
            payload["reached"] or payload["hum"]["reached"]):
        return (f"neither route reached u1 within {TERMINAL_TOL:.0e} "
                f"relative H^s (moment {payload['terminal_residual']:.3e}, "
                f"Gramian {payload['hum']['terminal_residual']:.3e})")
    return None


def run(scn: Scenario) -> int:
    """Dispatch a validated scenario; returns the process exit code.

    A control run that reaches u1 by neither route still writes its report
    and exits 3.
    """
    outdir = Path(scn.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        payload = _RUNNERS[scn.experiment](scn, outdir)
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BenctrlError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    path = _write_report(outdir, payload, scn)
    print(path)
    missed = _missed_target(scn, payload)
    if missed:
        print(f"numerical failure: {missed}", file=sys.stderr)
        return 3
    return 0


def _run_sweep_entry(args):
    base, item, index = args
    try:
        if not isinstance(item, dict):
            raise ConfigurationError(f"a sweep case must be an object: {item!r}")
        outdir = Path(base.get("outdir", "out")) / f"case_{index:03d}"
        merged = {**base, **item, "outdir": str(outdir)}
        if "seed" not in item:
            merged["seed"] = int(base.get("seed", 0)) + index
        scn = load_scenario(None, merged)
    except (ConfigurationError, TypeError, ValueError) as exc:
        print(f"validation error in case {index}: {exc}", file=sys.stderr)
        return 2
    return run(scn)


def run_sweep(path, workers: int | None = None) -> int:
    """Fan independent scenarios out across processes.

    The sweep file holds a base scenario plus a ``sweep`` list of overrides;
    case i runs with seed base_seed + i unless the override pins one.  An
    invalid case exits 2 without stopping the others; the sweep returns the
    largest exit code.
    """
    with open(path) as fh:
        data = json.load(fh)
    cases = data.pop("sweep", None) if isinstance(data, dict) else None
    if not cases or not isinstance(cases, list):
        raise ConfigurationError("sweep file needs a non-empty 'sweep' list")
    jobs = [(data, item, i) for i, item in enumerate(cases)]
    from concurrent.futures import ProcessPoolExecutor  # only sweeps fork
    with ProcessPoolExecutor(max_workers=workers) as ex:
        codes = list(ex.map(_run_sweep_entry, jobs))
    return max(codes)


@functools.cache  # the command-line grammar, built once per process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benctrl",
        description="spectral control toolkit for the linearized Benjamin "
                    "equation on the torus")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="JSON scenario file")
        p.add_argument("--alpha", type=str)
        p.add_argument("--mu", type=str)
        p.add_argument("--n", type=int)
        p.add_argument("--T", type=float)
        p.add_argument("--s", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--outdir", type=str)

    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        add_common(p)
        if name == "stabilize":
            p.add_argument("--law", choices=("simple", "gramian"))
            p.add_argument("--lambda", dest="decay_lambda", type=float)
            p.add_argument("--t-final", dest="t_final", type=float)
        if name == "observability":
            p.add_argument("--T-list", dest="T_list", type=float, nargs="+")

    p = sub.add_parser("sweep")
    p.add_argument("scenario", help="JSON sweep file")
    p.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "sweep":
        try:
            return run_sweep(args.scenario, args.workers)
        except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return 2

    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "scenario") and v is not None}
    overrides["experiment"] = args.command
    try:
        scn = load_scenario(args.scenario, overrides)
    except (ConfigurationError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return run(scn)


if __name__ == "__main__":
    sys.exit(main())
