"""Command-line front end: scenario files, experiments, CSV/JSON/NPY emission.

A scenario is a JSON file with explicit keys (flags override file values);
every run writes a ``report.json`` plus the experiment's CSV, JSON and
``.npy`` files into the output directory.  All randomness flows from one
64-bit seed through NumPy's PCG64 generator, and reports are canonical JSON
(sorted keys, shortest round-trip float repr, no timestamps, one line
written by ``json``'s C encoder), so identical scenario + seed reproduces
byte-identical reports.  ``control_coeffs.json`` is encoded from its
float64 arrays by orjson, imported by a control run only, on one line with
sorted keys and shortest round-trip floats.

Every scenario value is read once, by the one reader for its kind:
``_number``, ``_choice``, ``_typed`` (objects, lists, strings), ``_rows``,
and ``_read_state``/``_read_bump`` for the state and bump objects, whose
results ``Scenario.validate`` keeps for the code that builds a state or bump.

A run computes first and writes last: every artifact is formatted and
checked before the output directory is made, so a run that fails writes
nothing.  It computes with numpy's overflow and invalid-value warnings
off: a non-finite result is refused by name when its report is written.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  One
function, ``_exit_code``, turns every failure of a run or sweep into its
code and its one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
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
from .operators import (BUMP_KINDS, apply_G, build_bump,
                        bump_from_coefficients, check_support, m_matrix)
from .spectral import (TWO_PI, TorusFunction, csv_text, hs_weights,
                       sobolev_norm)

SCHEMA_VERSION = 3

EXPERIMENTS = ("spectrum", "simulate", "control", "stabilize", "observability")

STATE_TYPES = ("random", "zero", "preset", "coeffs")

#: the coefficients fhat(k), placed by k, of each preset state
PRESETS = {"cos": {-1: 0.5, 1: 0.5}, "sin": {-1: 0.5j, 1: -0.5j}}

#: the JSON name of each type of value that is neither number nor choice
JSON_NAME = {dict: "an object", list: "a list", str: "a string"}

#: relative H^s distance from u1 within which a control route reaches it
TERMINAL_TOL = 1e-8


# -- scenario readers --------------------------------------------------------


def _number(key: str, value, low=-math.inf, *, positive=False,
            integer=False, rational=False):
    """``value`` read as the number ``key`` of a scenario, its type kept.

    A number is an int or a float, never a bool, and an ``integer`` an int.
    It must be finite, at least ``low`` and, if ``positive``, above 0.  With
    ``rational`` a Fraction passes and text is parsed: '7/3' and digits to a
    Fraction, other text to a float.
    """
    if rational and isinstance(value, str):
        try:
            value = Fraction(value) if "/" in value or value.isdigit() \
                else float(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigurationError(f"{key} is not a number: {value!r}")
    kinds = (int,) if integer else (int, float, Fraction) if rational \
        else (int, float)
    if type(value) not in kinds:
        noun = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{key} must be {noun}: {value!r}")
    if not abs(value) <= sys.float_info.max:     # nan, inf or past a float
        raise ConfigurationError(f"{key} must be finite: {value!r}")
    if positive and value <= 0 or value < low:
        bound = "positive" if positive else f">= {low}"
        raise ConfigurationError(f"{key} must be {bound}: {value!r}")
    return value


def _choice(key: str, value, choices: tuple):
    """The one of ``choices`` (strings or booleans) that ``value`` is, of
    the same type: 1 is not true, and "false" is not false."""
    if not any(type(value) is type(c) and value == c for c in choices):
        raise ConfigurationError(f"unknown {key} {value!r}: {key} must be "
                                 + " or ".join(map(json.dumps, choices)))
    return value


def _typed(key: str, value, kind: type):
    """ConfigurationError unless ``value`` is a ``kind`` of JSON_NAME."""
    if not isinstance(value, kind):
        raise ConfigurationError(f"{key} must be {JSON_NAME[kind]}: {value!r}")


@contextlib.contextmanager
def _reading(key: str, what: str):
    """Re-raise a ConfigurationError as ``'{key} must be {what}: ...'``."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key} must be {what}: {exc}") from None


def _rows(key: str, rows, n: int | None = None) -> dict:
    """{k: re + 1j*im} of a list of [k, re, im] rows, placed by k: each k an
    integer with |k| <= n (by default half the number of rows) that no
    other row has, re and im finite numbers."""
    with _reading(key, "a list of [k, re, im] rows, k in band, no k twice"):
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and len(row) == 3 for row in rows):
            raise ConfigurationError(f"got {rows!r}")
        band = len(rows) // 2 if n is None else n
        placed = {_number("k", k, -band, integer=True):
                  _number("re", re) + 1j * _number("im", im)
                  for k, re, im in rows}
        if len(placed) < len(rows) or max(placed, default=0) > band:
            raise ConfigurationError(f"a k repeats or exceeds {band}")
        return placed


def _placed(rows: dict, n: int) -> np.ndarray:
    """The coefficients c[k + n], k = -n..n, of placed rows; 0 elsewhere."""
    return np.array([rows.get(k, 0) for k in range(-n, n + 1)], dtype=complex)


def _read_state(key: str, cfg, n: int):
    """The state object ``cfg`` of order n, read with its defaults: the norm
    of a random state, else (placed rows, real) of its coefficients."""
    _typed(key, cfg, dict)
    kind = _choice("state type", cfg.get("type", "random"), STATE_TYPES)
    if kind == "random":
        with _reading(f"{key} norm", "a finite number >= 0"):
            return _number("norm", cfg.get("norm", 1.0), 0)
    if kind == "coeffs":
        return (_rows(f"{key} data", cfg.get("data"), n),
                _choice(f"{key} real", cfg.get("real", False), (True, False)))
    if kind == "preset":
        return PRESETS[_choice("preset", cfg.get("name", "cos"),
                               tuple(PRESETS))], True
    return {}, True


def _read_bump(cfg):
    """The bump object ``cfg``, read with its defaults: the localizer its
    coefficient rows give, or the (kind, center, width) of a profile, the
    support of a sampled kind checked by the library."""
    _typed("bump", cfg, dict)
    if "coefficients" in cfg:
        rows = _rows("bump coefficients", cfg["coefficients"])
        return bump_from_coefficients(_placed(rows, len(rows) // 2))
    kind = _choice("bump kind", cfg.get("kind", "raised_cosine"), BUMP_KINDS)
    with _reading("bump center and width", "finite numbers"):
        center = float(_number("center", cfg.get("center", np.pi)))
        width = float(_number("width", cfg.get("width", np.pi / 2)))
    if kind != "uniform":
        check_support(center, width)
    return kind, center, width


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
        "kind": "raised_cosine", "center": np.pi, "width": np.pi / 2})
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

    #: what validate read of u0, u1 and bump (``_read_state``,
    #: ``_read_bump``); not a field, so not part of the scenario's hash
    parsed = None

    def validate(self):
        """Read every field through its reader, in place: rational text is
        parsed and T_list becomes a tuple of floats.  States and the bump
        are read, not drawn or profiled, and what was read of them is kept
        in ``parsed``."""
        self.experiment = _choice("experiment", self.experiment, EXPERIMENTS)
        self.alpha = _number("alpha", self.alpha, positive=True, rational=True)
        self.mu = _number("mu", self.mu, rational=True)
        self.n = _number("n", self.n, 1, integer=True)
        if self.n_sim is not None:
            self.n_sim = _number("n_sim", self.n_sim, self.n, integer=True)
        self.T = _number("T", self.T, positive=True)
        self.s = _number("s", self.s, 0)
        self.law = _choice("law", self.law, ("simple", "gramian"))
        self.decay_lambda = _number("decay_lambda", self.decay_lambda,
                                    positive=self.law == "gramian")
        if self.t_final is not None:
            self.t_final = _number("t_final", self.t_final, positive=True)
        # samples a decay fit needs, and a trajectory its start and its end
        least = {"stabilize": 10, "simulate": 2}.get(self.experiment, 1)
        self.n_times = _number("n_times", self.n_times, least, integer=True)
        with _reading("T_list", "a list of positive numbers"):
            if not isinstance(self.T_list, (list, tuple)) or not self.T_list:
                raise ConfigurationError(f"got {self.T_list!r}")
            self.T_list = tuple(float(_number("T_list", T, positive=True,
                                              rational=True))
                                for T in self.T_list)
        self.strict = _choice("strict", self.strict, (True, False))
        self.seed = _number("seed", self.seed, 0, integer=True)
        _typed("outdir", self.outdir, str)
        self.parsed = {"u0": _read_state("u0", self.u0, self.n),
                       "u1": _read_state("u1", self.u1, self.n),
                       "bump": _read_bump(self.bump)}
        return self

    def canonical(self) -> dict:
        # a shallow dict: json.dumps writes the same text as for asdict's
        # deep copy of every coefficient list
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["alpha"] = str(self.alpha) if isinstance(self.alpha, Fraction) \
            else float(self.alpha)
        d["mu"] = str(self.mu) if isinstance(self.mu, Fraction) else float(self.mu)
        return d

    def digest(self) -> str:
        ident = {k: v for k, v in self.canonical().items() if k != "outdir"}
        text = json.dumps(ident, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_scenario(path=None, overrides=None) -> Scenario:
    """The validated scenario of the JSON object in ``path`` (if given)
    with ``overrides`` over it."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        _typed("scenario", data, dict)
    data.update(overrides or {})
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
    _typed("T_list", data.get("T_list", []), list)     # a tuple is no JSON
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


def _build_state(scn: Scenario, key: str, seed) -> TorusFunction:
    """The validated scenario's state ``key``, drawn from ``seed`` if it is
    random."""
    read = scn.parsed[key]
    if not isinstance(read, tuple):              # a random state's norm
        return random_state(seed, scn.n, scn.s, float(read))
    rows, real = read
    return TorusFunction(scn.n, _placed(rows, scn.n), real_flag=real)


def _build_bump(scn: Scenario, kmax: int):
    """The validated scenario's localizer, profiled to ``kmax`` unless given
    by coefficients."""
    read = scn.parsed["bump"]
    return build_bump(*read, kmax=kmax) if isinstance(read, tuple) else read


# -- report/CSV emission -----------------------------------------------------


def _non_finite(value, path: str = "") -> str | None:
    """Where the first NaN or infinity in a JSON-ready value sits, if any."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found = _non_finite(item, f"{path}.{key}" if isinstance(key, str)
                            else f"{path}[{key}]")
        if found:
            return found
    return None


def _json_text(name: str, payload) -> str:
    """Canonical JSON text of the artifact ``name``, which JSON's lack of
    NaN and infinity makes a numerical failure naming the field."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise BenctrlError(f"{name} field {_non_finite(payload).lstrip('.')}"
                           " is not finite") from None


def _report_text(payload: dict, scn: Scenario) -> str:
    """report.json: the runner's payload with the schema and provenance."""
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["provenance"] = {
        "toolkit": "benctrl",
        "version": __version__,
        "scenario_hash": scn.digest(),
        "seed": scn.seed,
    }
    return _json_text("report.json", payload) + "\n"


# -- experiments -------------------------------------------------------------


# Each runner returns its report payload and its other artifacts by file
# name: CSV text or the bytes of a binary or JSON file.  ``run`` writes them.


def _run_spectrum(scn: Scenario) -> tuple:
    spec = spectrum_mod.analyze(scn.n, scn.alpha, scn.mu)
    return spectrum_mod.spectrum_report(spec), {}


def _run_simulate(scn: Scenario) -> tuple:
    u0 = _build_state(scn, "u0", scn.seed)
    t_final = scn.t_final if scn.t_final is not None else scn.T
    times = np.linspace(0.0, t_final, scn.n_times)
    lam = spectrum_mod.eigenvalues(scn.n, scn.alpha, scn.mu)
    traj = np.exp(-1j * np.outer(times, lam)) * u0.coeffs
    power = np.abs(traj) ** 2
    l2, hs = (np.sqrt(TWO_PI * np.sum(hs_weights(scn.n, s) * power, axis=1))
              for s in (0.0, scn.s))
    return {
        "experiment": "simulate",
        "t_final": float(times[-1]),
        "norm_drift": abs(hs[-1] - sobolev_norm(u0, scn.s)),
        "mean_drift": abs(traj[-1, scn.n] - u0.coeffs[scn.n]),
    }, {"norms.csv": csv_text("t,L2_norm,Hs_norm", zip(times, l2, hs))}


def _coeffs_json(lambdas: np.ndarray, coeffs: np.ndarray) -> bytes:
    """control_coeffs.json of the frequencies and of the (2n+1, N, 2) array
    of each mode k's [re, im] coefficient pairs, encoded from the float64
    arrays by orjson on one line: sorted keys, shortest round-trip floats.
    orjson writes NaN and infinity as null, so a non-finite value is a
    numerical failure naming its field first."""
    for field_path, arr in (("lambdas[{}]", lambdas),
                            ("modes[{}].coeffs[{}][{}]", coeffs)):
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            raise BenctrlError(f"control_coeffs.json field "
                               f"{field_path.format(*bad[0])} is not finite")
    import orjson                  # only a control run pays for its import
    n = len(coeffs) // 2
    return orjson.dumps(
        {"lambdas": lambdas, "modes": [{"k": k, "coeffs": row} for k, row
                                       in zip(range(-n, n + 1), coeffs)]},
        option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)


def _run_control(scn: Scenario) -> tuple:
    # one profile for the spillover band n_sim + n and the m-matrix's |k| <= 2n
    fine = (scn.n_sim and scn.n_sim > scn.n
            and isinstance(scn.parsed["bump"], tuple))
    bump = _build_bump(scn, scn.n_sim + scn.n if fine else 2 * scn.n)
    u0 = _build_state(scn, "u0", scn.seed)
    # u1 draws from its own stream: seed + 1 is the next sweep case's u0
    u1 = _build_state(scn, "u1", [scn.seed, 1])
    # the shared mean rides along in mode 0 (feedback/control never touch it);
    # recorded so downstream tools can re-add it after mean-zero analysis
    mu0 = u0.coeff(0)
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
            gh, dropped = apply_G(bump, h_t, return_spillover=True)
            base = sobolev_norm(gh, 0.0)
            if base > 0:
                spillover = max(spillover, dropped / base)

    # per-mode coefficient JSON + sampled control table, exact in .npy
    E = result.signal.exp_coeffs
    coeffs_json = _coeffs_json(result.signal.lambdas,
                               np.stack([E.real, E.imag], axis=-1))
    xs = np.linspace(0.0, 2 * np.pi, 65, endpoint=False)
    ts = np.linspace(0.0, scn.T, 33)
    vals = result.signal.sample_grid(xs, ts)
    samples = io.BytesIO()
    np.save(samples, np.stack(
        [*np.meshgrid(ts, xs, indexing="ij"), vals.real, vals.imag],
        axis=-1).reshape(-1, 4))
    return {
        "experiment": "control",
        "terminal_residual": result.terminal_residual,
        "reached": result.terminal_residual <= TERMINAL_TOL,
        "moment_residual": result.moment_residual,
        "nu_empirical": result.nu_empirical,
        "cond_gamma": result.signal.horizon.cond,
        "control_norm": result.control_norm,
        "hermitian_defect": result.signal.hermitian_defect(),
        "spillover_beyond_n": spillover,
        "mean_carried": [mu0.real, mu0.imag],
        "hum": {"terminal_residual": hum_res,
                "reached": hum_res <= TERMINAL_TOL,
                "control_norm": hum_signal.l2_hs_norm(0.0),
                "cond_W": hum_info["cond_W"]},
    }, {"control_coeffs.json": coeffs_json,
        "control_samples.npy": samples.getvalue()}


def _plant(scn: Scenario) -> tuple:
    """The spectrum and the m-matrix of the order-2n bump."""
    bump = _build_bump(scn, 2 * scn.n)
    spec = spectrum_mod.analyze(scn.n, scn.alpha, scn.mu)
    return spec, m_matrix(bump, scn.n)


def _run_stabilize(scn: Scenario) -> tuple:
    spec, mm = _plant(scn)
    if scn.law == "simple":
        law = stab.feedback_simple(mm, spec)
    else:
        L = stab.build_L_lambda(mm, spec, scn.decay_lambda, scn.T)
        law = stab.feedback_gramian(L, mm, spec)
    absc = stab.spectral_abscissa(law)
    u0 = _build_state(scn, "u0", scn.seed)
    t_final = scn.t_final if scn.t_final is not None else \
        min(12.0 / max(abs(absc), 1e-6), 1e6)
    times = np.linspace(0.0, t_final, scn.n_times)
    hist = stab.norm_history(u0, law, times, s_values=(0.0, scn.s))
    fitobj = stab.estimate_decay_rate(hist["times"], hist[0.0])
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
    }, {"decay.csv": csv_text("t,L2_norm,Hs_norm",
                              zip(hist["times"], hist[0.0], hist[scn.s]))}


def _run_observability(scn: Scenario) -> tuple:
    spec, mm = _plant(scn)
    return {"experiment": "observability", "pairs": [
        {"T": T, "delta": stab.observability_constant(mm, spec, T)[0]}
        for T in scn.T_list]}, {}


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
    """Run a validated scenario, write its artifacts and return 0.

    Every artifact is formatted and checked before the output directory is
    made and all of them are written, so a run that fails writes none: a
    JSON artifact that would hold NaN or infinity is a numerical failure.
    A control run that reaches u1 by neither route still writes every
    artifact, then raises BenctrlError.
    """
    with np.errstate(all="ignore"):
        payload, artifacts = _RUNNERS[scn.experiment](scn)
    artifacts["report.json"] = _report_text(payload, scn)
    outdir = Path(scn.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        mode = "wb" if isinstance(text, bytes) else "w"
        with open(outdir / name, mode) as fh:
            fh.write(text)
    print(outdir / "report.json")
    missed = _missed_target(scn, payload)
    if missed:
        raise BenctrlError(missed)
    return 0


def _exit_code(step, where: str = ""):
    """What ``step()`` returns, or the exit code of its failure after one
    line on stderr: 3 for a numerical failure (a BenctrlError other than a
    ConfigurationError, or numpy's LinAlgError, as from an eigensolve that
    did not converge), 2 for a validation error (a
    ConfigurationError, or a file that cannot be read or decoded, or an
    output path that cannot be made: an OSError or any other ValueError)."""
    try:
        return step()
    except (BenctrlError, OSError, ValueError) as exc:
        numerical = isinstance(exc, np.linalg.LinAlgError) or (
            isinstance(exc, BenctrlError)
            and not isinstance(exc, ConfigurationError))
        kind = "numerical failure" if numerical else "validation error"
        print(f"{kind}{where}: {exc}", file=sys.stderr)
        return 3 if numerical else 2


def _sweep_case(base: dict, item, index: int) -> Scenario:
    """Sweep case ``index``: ``item`` over ``base`` in its own outdir."""
    _typed("a sweep case", item, dict)
    scn = load_scenario(None, {**base, **item,
                               "outdir": base.get("outdir", "out")})
    if "seed" not in item:
        scn.seed += index
    scn.outdir = str(Path(scn.outdir) / f"case_{index:03d}")
    return scn


def _run_sweep_entry(args):
    return _exit_code(lambda: run(_sweep_case(*args)), f" in case {args[2]}")


def run_sweep(path, workers: int | None = None) -> int:
    """Fan independent scenarios out across processes.

    The sweep file holds a base scenario plus a ``sweep`` list of overrides;
    case i runs with seed base_seed + i unless the override pins one.  A
    case that fails exits with its code without stopping the others, and
    its stderr line names it; the sweep returns the largest exit code.
    """
    if workers is not None:
        _number("--workers", workers, 1, integer=True)
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
    for name in EXPERIMENTS:            # every experiment takes every flag
        p = sub.add_parser(name)
        p.add_argument("--scenario", help="JSON scenario file")
        for flag, kind in (("alpha", str), ("mu", str), ("n", int),
                           ("T", float), ("s", float), ("seed", int),
                           ("outdir", str), ("law", str)):
            p.add_argument(f"--{flag}", type=kind)
        p.add_argument("--lambda", dest="decay_lambda", type=float)
        p.add_argument("--t-final", dest="t_final", type=float)
        p.add_argument("--T-list", dest="T_list", type=float, nargs="+")

    p = sub.add_parser("sweep")
    p.add_argument("scenario", help="JSON sweep file")
    p.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "sweep":
        return _exit_code(lambda: run_sweep(args.scenario, args.workers))
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "scenario") and v is not None}
    overrides["experiment"] = args.command
    return _exit_code(lambda: run(load_scenario(args.scenario, overrides)))


if __name__ == "__main__":
    sys.exit(main())
