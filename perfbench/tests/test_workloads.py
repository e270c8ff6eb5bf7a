"""Each workload at a tiny size, through the same runner as the benchmark."""

import dataclasses
import json

import numpy as np
import pytest

import benctrl.cli
import run
import tracing
import workloads


def _round(workload, seed=11, tracer=None):
    tally = run.Tally()
    for case in workload.cases(seed, 0):
        tally.add(case, run.execute(workload, case, tracer))
    return tally


def test_control_round_fails_exactly_its_known_fault_cases():
    workload = workloads.ControlWorkload(n=16, pairs=1)
    cases = workload.cases(11, 0)
    tally = _round(workload)
    faults = [c for c in cases if c.known_fault]
    assert tally.failed == len(faults) == 14
    assert not tally.unexpected
    # one case of each named fault, at least, is counted as failed
    assert len(tally.known) == 2
    assert min(tally.digits) >= 8


def test_known_fault_inputs_do_not_depend_on_the_seed():
    workload = workloads.ControlWorkload(n=16, pairs=1)
    a = {c.index: c for c in workload.cases(1, 0) if c.known_fault}
    b = {c.index: c for c in workload.cases(2, 5) if c.known_fault}
    assert a == b
    plain = [c for c in workload.cases(1, 0) if not c.known_fault]
    assert plain != [c for c in workload.cases(2, 0) if not c.known_fault]


def test_one_perturbed_control_coefficient_fails_the_case():
    workload = workloads.ControlWorkload(n=16, pairs=1)
    case = next(c for c in workload.cases(3, 0) if not c.known_fault)
    x = workload.prepare(case)
    bump, result, hum, hum_residual, hum_norm = workload.call(x)
    assert not workload.check(case, x, (bump, result, hum, hum_residual,
                                        hum_norm)).failed
    coeffs = result.signal.exp_coeffs.copy()
    largest = np.unravel_index(np.abs(coeffs).argmax(), coeffs.shape)
    coeffs[largest] *= 1.0 + 1e-6
    signal = dataclasses.replace(result.signal, exp_coeffs=coeffs)
    bad = dataclasses.replace(result, signal=signal)
    outcome = workload.check(case, x, (bump, bad, hum, hum_residual,
                                       hum_norm))
    assert "moment_terminal" in outcome.problems
    tally = run.Tally()
    tally.add(case, outcome)
    assert tally.failed == 1 and tally.unexpected


def test_a_norm_error_lowers_the_case_digits():
    workload = workloads.ControlWorkload(n=16, pairs=1)
    case = next(c for c in workload.cases(3, 0) if not c.known_fault)
    x = workload.prepare(case)
    bump, result, hum, hum_residual, hum_norm = workload.call(x)
    bad = dataclasses.replace(result,
                              control_norm=result.control_norm * (1 + 1e-7))
    outcome = workload.check(case, x, (bump, bad, hum, hum_residual,
                                       hum_norm))
    assert not outcome.failed
    assert outcome.rel_error > 0.9e-7


def test_stabilize_round_passes():
    workload = workloads.StabilizeWorkload(n=8, n_times=40)
    tally = _round(workload)
    assert tally.failed == 0, tally.unexpected
    assert len(tally.seconds) == 24


def test_stabilize_check_catches_a_wrong_trajectory():
    workload = workloads.StabilizeWorkload(n=8, n_times=40)
    case = workload.cases(4, 0)[1]
    x = workload.prepare(case)
    out = list(workload.call(x))
    hist = dict(out[4])
    hist[0.0] = hist[0.0] * (1.0 + 1e-5)
    out[4] = hist
    assert "trajectory" in workload.check(case, x, tuple(out)).problems


@pytest.mark.parametrize("index", [0, 3])        # simple and Gramian law
def test_stabilize_check_catches_a_wrong_gain(index):
    workload = workloads.StabilizeWorkload(n=8, n_times=40)
    case = workload.cases(4, 0)[index]
    x = workload.prepare(case)
    out = list(workload.call(x))
    law = out[1]
    gain = np.diag(np.diag(law.closed_loop)) - law.closed_loop
    closed = law.closed_loop.copy()
    closed[9, 7] -= 1e-6 * np.abs(gain).max()
    out[1] = dataclasses.replace(law, closed_loop=closed)
    outcome = workload.check(case, x, tuple(out))
    assert "feedback_gain" in outcome.problems
    assert outcome.rel_error > 0.9e-6


@pytest.fixture
def cli_workload(tmp_path):
    return workloads.CliWorkload(tmp_path, n=8, spectrum_n=24, n_times=40)


def test_cli_round_passes_and_reruns_every_experiment(cli_workload):
    cases = cli_workload.cases(9, 0)
    assert {c.params["rerun"] for c in cases} == set(workloads.EXPERIMENTS)
    tally = _round(cli_workload)
    assert tally.failed == 0, tally.unexpected
    assert tally.counters["cli.bytes_written"] > 0


def test_cli_check_catches_a_tampered_control(cli_workload):
    case = cli_workload.cases(9, 0)[0]
    x = cli_workload.prepare(case)
    codes = cli_workload.call(x)
    path = cli_workload.workdir / "control" / "control_coeffs.json"
    payload = json.loads(path.read_text())
    payload["modes"][3]["coeffs"][2][0] += 1e-3
    path.write_text(json.dumps(payload))
    problems = cli_workload.check(case, x, codes).problems
    assert "control_terminal" in problems


def test_tracer_spans_the_timed_calls_and_restores_the_program(cli_workload):
    original = benctrl.cli.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert benctrl.cli.run is not original
        tally = _round(cli_workload, tracer=tracer)
    finally:
        tracer.uninstall()
    assert benctrl.cli.run is original
    cases = len(tally.seconds)
    assert tracer.calls["cli.main"] == 5 * cases      # re-runs are untraced
    assert tracer.calls[tracing.EXPM] > 0
    covered = tracer.top_level_s / sum(tally.seconds)
    assert 0.9 < covered <= 1.0
    names = {s[2] for s in tracer.spans}
    assert {"cli.run", "stabilization.simulate_closed_loop",
            "moment_control.build_biorthogonal"} <= names


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([0.001] * 30)["percentile"] == 50.0
    assert run.tail([0.001] * 100)["percentile"] == 90.0
    assert run.tail(list(np.linspace(0, 1, 1000)))["percentile"] == 99.0


def test_traced_run_alternates_untraced_and_traced_rounds(cli_workload):
    original = benctrl.cli.run
    tallies = [run.Tally(), run.Tally()]
    tracer = tracing.Tracer()
    run.run_rounds(cli_workload, 2, 0.0, tallies, tracer)
    assert benctrl.cli.run is original
    assert len(tallies[0].seconds) == len(tallies[1].seconds) == 5
    assert tracer.calls["cli.main"] == 25
    assert {s[3].split(":")[0] for s in tracer.spans} == {"1"}
