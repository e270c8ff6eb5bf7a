"""sha256 digests of the artifacts of a fixed list of CLI runs.

Runs each scenario below in-process through ``benctrl.cli.main``, in a
temporary directory, and prints each run's exit code, then one line per
file written, ``<sha256>  <run>/<file>``, sorted.  The scenarios cover
every experiment; both feedback laws, with the point of seed 15 (alpha=1,
mu=0.3, lambda=1.5, n=32) among them; a ``control`` scenario file with
``n_sim``; a ``control`` case with the bump and both states given as
coefficient lists, the format of the benchmark's ``cli`` workload; for each
bump kind other than the default raised cosine, a ``control`` scenario file
with ``n_sim`` and a Gramian-law ``stabilize`` one; and an
``observability`` run whose Gramian overflows (exit 3, no files).

Two trees print the same lines when their artifacts are byte-identical.
BLAS and OpenMP are pinned to one thread before numpy loads; compare
digests taken on one machine only, since the BLAS build and the CPU can
move the last bits of a float.

Usage: ``python tools/artifact_digests.py``
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benctrl import cli  # noqa: E402
from benctrl.operators import build_bump  # noqa: E402

#: run name -> command-line arguments of ``benctrl``
RUNS = {
    "spectrum_7-3_n40": ["spectrum", "--alpha", "7/3", "--n", "40"],
    "simulate_n16": ["simulate", "--n", "16", "--T", "5", "--s", "1.5"],
    "control_n8_seed3": ["control", "--n", "8", "--seed", "3"],
    "control_7-3_n16_seed4": ["control", "--alpha", "7/3", "--mu", "3/10",
                              "--n", "16", "--seed", "4"],
    "stabilize_gramian_n12": ["stabilize", "--law", "gramian", "--n", "12"],
    "stabilize_simple_n12": ["stabilize", "--alpha", "0.1", "--n", "12",
                             "--t-final", "3"],
    "stabilize_seed15": ["stabilize", "--alpha", "1", "--mu", "0.3",
                         "--law", "gramian", "--lambda", "1.5", "--n", "32",
                         "--seed", "15"],
    "observability_n10": ["observability", "--n", "10"],
    "observability_overflow": ["observability", "--n", "4",
                               "--T-list", "1e307"],
}


def _rows(values, n: int) -> list:
    """[k, re, im] rows for k = -n..n, the scenario grammar of coefficients."""
    return [[k, float(z.real), float(z.imag)]
            for k, z in zip(range(-n, n + 1), values)]


def scenario_files() -> dict:
    """Run name -> scenario object, each run from ``--scenario`` as its
    ``experiment``, ``control`` by default."""
    n = 12
    ks = np.arange(-n, n + 1)
    state = 1.0 / (1.0 + ks**2) + 1j * ks / (1.0 + np.abs(ks) ** 3)
    target = np.where(ks == 0, 1.0, 0.5j * ks / (1.0 + ks**2))  # same mean
    bump = build_bump(kmax=2 * n).ghat
    return {
        "control_n_sim": {"experiment": "control", "n": 8, "n_sim": 20,
                          "seed": 2},
        "control_coefficients": {
            "alpha": "7/3", "mu": "0", "n": n, "T": 1.0, "s": 0.0,
            "bump": {"coefficients": _rows(bump, 2 * n)},
            "u0": {"type": "coeffs", "real": True, "data": _rows(state, n)},
            "u1": {"type": "coeffs", "real": True, "data": _rows(target, n)},
        },
        **{f"{run}_{kind}": {**scenario, "bump": bump}
           for kind, bump in [
               ("uniform", {"kind": "uniform"}),
               ("smooth_exp_bump", {"kind": "smooth_exp_bump",
                                    "center": 3.0, "width": 2.0})]
           for run, scenario in [
               ("control_n_sim", {"experiment": "control", "n": 8,
                                  "n_sim": 20, "seed": 2}),
               ("stabilize_gramian", {"experiment": "stabilize",
                                      "law": "gramian", "n": 12})]},
    }


def digests() -> list[str]:
    """The exit-code lines in run order, then the sorted digest lines."""
    codes, lines = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = {name: [*argv, "--outdir", str(tmp / name)]
                for name, argv in RUNS.items()}
        for name, scenario in scenario_files().items():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(scenario))
            runs[name] = [scenario.get("experiment", "control"),
                          "--scenario", str(path),
                          "--outdir", str(tmp / name)]
        for name, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            codes.append(f"exit {code}  {name}")
            outdir = tmp / name
            for path in sorted(outdir.iterdir()) if outdir.is_dir() else ():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.name}")
    return codes + sorted(lines)


if __name__ == "__main__":
    print("\n".join(digests()))
