"""Benchmark of benctrl: one workload, one caller, one case at a time.

    python3 perfbench/run.py --workload control --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's cases until ``--seconds`` of wall time
have passed, checks every case against the reference computations in
``reference.py``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced ones and ones with spans around benctrl's public functions,
and the run reports per-layer self times and call counts per case.

BLAS and OpenMP threads are pinned to one before numpy loads.  Artifacts,
traces and the full result go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed for setup_s in every run
SETUP_SAMPLES = 5

#: what one set-up sample does: import benctrl and its CLI, answer one call
SETUP_PROBE = """
import sys
import benctrl, benctrl.cli
sys.exit(benctrl.cli.main(["spectrum", "--alpha", "7/3", "--n", "8",
                           "--outdir", sys.argv[1]]))
"""

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def make_workload(name: str):
    if name == "control":
        return workloads.ControlWorkload()
    if name == "stabilize":
        return workloads.StabilizeWorkload()
    if name == "cli":
        return workloads.CliWorkload(OUT / "cli")
    raise SystemExit(f"unknown workload {name!r}")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first answer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(OUT / "setup")],
            env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit("set-up probe failed:\n"
                             + proc.stderr.decode(errors="replace"))
    return times


class Tally:
    """Outcomes of the counted cases of one phase."""

    def __init__(self):
        self.seconds = []
        self.digits = []
        self.failed = 0
        self.unexpected = Counter()
        self.known = Counter()
        self.counters = Counter()

    def add(self, case, outcome):
        self.seconds.append(outcome.seconds)
        self.counters.update(outcome.counters)
        if not outcome.failed:
            self.digits.append(ref.correct_digits(outcome.rel_error))
            return
        self.failed += 1
        if case.known_fault and \
                set(outcome.problems) <= workloads.KNOWN_FAULT_PROBLEMS:
            self.known[case.known_fault] += 1
        else:
            self.unexpected.update(outcome.problems)

    def cases_per_s(self) -> float:
        return len(self.seconds) / sum(self.seconds)


def execute(workload, case, tracer=None):
    """Prepare, time and check one case; only the program calls are timed
    and, when a tracer is given, traced."""
    inputs = workload.prepare(case)
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        outputs = workload.call(inputs)
    except Exception as exc:                      # noqa: BLE001
        seconds = time.perf_counter() - start
        outcome = workloads.Outcome(
            math.inf, [f"raised {type(exc).__name__}: {exc}"])
    else:
        seconds = time.perf_counter() - start
        outcome = None
    finally:
        if tracer is not None:
            tracer.active = False
    if outcome is None:
        outcome = workload.check(case, inputs, outputs)
    outcome.seconds = seconds
    return outcome


def run_rounds(workload, seed, deadline, tallies, tracer=None):
    """Run whole rounds until the deadline.

    With one tally every round goes to it.  With two, rounds alternate
    between an untraced one (tallies[0]) and one traced with ``tracer``
    (tallies[1]), ending after a traced round, so that a drift of the
    machine's speed reaches both alike.
    """
    r = 0
    while True:
        traced = len(tallies) == 2 and r % 2 == 1
        if traced:
            tracer.install()
        try:
            for case in workload.cases(seed, r):
                if traced:
                    tracer.case = f"{r}:{case.index}"
                tallies[r % len(tallies)].add(
                    case, execute(workload, case, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        r += 1
        if time.perf_counter() >= deadline and r % len(tallies) == 0:
            return


def tail(seconds: list) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(seconds)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) >= 1000.0 - 1e-9:
            return {"percentile": p, "samples": n,
                    "ms": float(np.percentile(seconds, p)) * 1e3}
    return {"percentile": 50.0, "samples": n,
            "ms": statistics.median(seconds) * 1e3}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, setup) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "cases_per_s": metric(tally.cases_per_s(), "1/s"),
        "case_ms.p50": metric(statistics.median(tally.seconds) * 1e3, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "digits.min": metric(min(tally.digits, default=0), "digits"),
    }


def per_layer(tally, untraced, tracer) -> dict:
    cases = len(tally.seconds)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.self_ms"] = metric(
            tracer.self_s[name] * 1e3 / cases, "ms")
        out[f"{name}.calls"] = metric(tracer.calls[name] / cases, "count")
    out[f"{tracing.EXPM}.calls"] = metric(
        tracer.calls[tracing.EXPM] / cases, "count")
    out["cli.bytes_written"] = metric(
        tally.counters["cli.bytes_written"] / cases, "bytes")
    out["trace.covered_pct"] = metric(
        100.0 * tracer.top_level_s / sum(tally.seconds), "%")
    out["trace.overhead_pct"] = metric(
        100.0 * (1.0 - tally.cases_per_s() / untraced.cases_per_s()), "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    warnings.simplefilter("ignore", RuntimeWarning)
    OUT.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload)
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)

    # one uncounted case first, so lazy imports and caches are settled
    execute(workload, workload.cases(args.seed, 0)[0])
    start = time.perf_counter()
    tallies = [Tally(), Tally()] if args.trace else [Tally()]
    if args.trace:
        tracer = tracing.Tracer()
        run_rounds(workload, args.seed, start + args.seconds, tallies, tracer)
        tracer.write(OUT / f"trace-{workload.name}.jsonl")
        metrics = per_layer(tallies[1], tallies[0], tracer)
    else:
        run_rounds(workload, args.seed, start + args.seconds, tallies)
        metrics = end_to_end(tallies[0], setup)
    tally = tallies[-1]

    attempted = sum(len(t.seconds) for t in tallies)
    failed = sum(t.failed for t in tallies)
    unexpected = sum((t.unexpected for t in tallies), Counter())
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "wall_s": time.perf_counter() - start,
        "environment": environment(),
        "case_ms.tail": tail(tally.seconds),
        "setup_s.samples": setup,
        "known_fault_failures": dict(sum((t.known for t in tallies),
                                         Counter())),
        "unexpected_failures": dict(unexpected),
    }
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{workload.name}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
