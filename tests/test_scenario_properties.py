"""Property test of the scenario readers: whatever JSON a scenario file
holds, ``load_scenario`` returns a scenario whose numbers are finite, not
booleans and in their documented ranges, or raises ConfigurationError."""

import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benctrl import cli
from benctrl.errors import ConfigurationError
from benctrl.operators import BUMP_KINDS

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6)
           | st.sampled_from(["7/3", "2", "0.5", "-1", "1/0", "nan", "1e999"]))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=8)
NUMBERS = st.integers(-3, 40) | st.floats(-3.0, 40.0) | JSON
ROWS = st.lists(st.lists(NUMBERS, min_size=3, max_size=3) | JSON,
                max_size=5) | JSON
STATES = st.fixed_dictionaries({}, optional={
    "type": st.sampled_from(cli.STATE_TYPES) | JSON,
    "norm": NUMBERS, "name": st.sampled_from(["cos", "sin"]) | JSON,
    "data": ROWS, "real": st.booleans() | JSON}) | JSON
G0 = 1 / (2 * math.pi)                  # ghat(0) of every localizer
BUMPS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["raised_cosine", "uniform"]) | JSON,
    "center": NUMBERS, "width": NUMBERS, "coefficients": ROWS}) | JSON \
    | st.sampled_from([{"coefficients": [[0, G0, 0]]}, {"coefficients": [
        [1, 0.1, 0.2], [0, G0, 0.0], [-1, 0.1, -0.2]]}])
FIELDS = {
    "alpha": NUMBERS, "mu": NUMBERS, "n": NUMBERS, "n_sim": NUMBERS,
    "T": NUMBERS, "s": NUMBERS, "decay_lambda": NUMBERS, "t_final": NUMBERS,
    "n_times": NUMBERS, "seed": NUMBERS, "T_list": st.lists(NUMBERS) | JSON,
    "law": st.sampled_from(["simple", "gramian"]) | JSON,
    "strict": st.booleans() | JSON, "outdir": st.text(max_size=4) | JSON,
    "bump": BUMPS, "u0": STATES, "u1": STATES,
}
FILES = st.fixed_dictionaries({}, optional=FIELDS) | JSON
#: files whose every other field is valid, so the state and bump readers run
OBJECTS = st.fixed_dictionaries({"n": st.integers(1, 8)}, optional={
    "u0": STATES, "u1": STATES, "bump": BUMPS})


def _number(value, low=-math.inf, *, positive=False, integer=False):
    assert type(value) in ((int,) if integer else (int, float, Fraction))
    assert math.isfinite(value)
    assert value > 0 if positive else value >= low


def _check(scn):
    _number(scn.alpha, positive=True)
    _number(scn.mu)
    _number(scn.n, 1, integer=True)
    if scn.n_sim is not None:
        _number(scn.n_sim, scn.n, integer=True)
    _number(scn.T, positive=True)
    _number(scn.s, 0)
    _number(scn.decay_lambda, positive=scn.law == "gramian")
    if scn.t_final is not None:
        _number(scn.t_final, positive=True)
    _number(scn.n_times,
            {"stabilize": 10, "simulate": 2}.get(scn.experiment, 1),
            integer=True)
    _number(scn.seed, 0, integer=True)
    assert scn.T_list and all(type(T) is float for T in scn.T_list)
    for T in scn.T_list:
        _number(T, positive=True)
    assert scn.law in ("simple", "gramian") and type(scn.strict) is bool
    assert isinstance(scn.outdir, str)
    for key in ("u0", "u1"):
        state = cli._read_state(key, getattr(scn, key), scn.n)
        if not isinstance(state, tuple):
            _number(state, 0)
            continue
        rows, real = state
        assert type(real) is bool
        assert all(type(k) is int and abs(k) <= scn.n and cmath.isfinite(z)
                   for k, z in rows.items())
    bump = cli._read_bump(scn.bump)
    if isinstance(bump, tuple):             # (kind, center, width)
        kind, center, width = bump
        assert kind in BUMP_KINDS
        _number(center)
        _number(width)
        if kind != "uniform":               # a sampled kind's support
            assert 0 < width < 2 * math.pi
            assert 0 < center - width / 2 and center + width / 2 < 2 * math.pi
    else:                                   # the localizer of its rows
        assert all(map(cmath.isfinite, bump.ghat))


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario") / "scn.json"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=FILES | OBJECTS, experiment=st.sampled_from(cli.EXPERIMENTS))
def test_a_file_loads_checked_or_raises_configuration_error(
        scenario_file, data, experiment):
    """``main``'s path: the file, with the experiment as a flag."""
    scenario_file.write_text(json.dumps(data))
    try:
        scn = cli.load_scenario(scenario_file, {"experiment": experiment})
    except ConfigurationError:
        return
    _check(scn)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(bump=BUMPS, experiment=st.sampled_from(cli.EXPERIMENTS))
def test_a_bump_object_loads_checked_or_raises_configuration_error(
        bump, experiment):
    """The bump reader with every other field valid, so that a drawn
    center and width reach ``_check`` for every experiment."""
    try:
        scn = cli.load_scenario(overrides={"experiment": experiment, "n": 4,
                                           "bump": bump})
    except ConfigurationError:
        return
    _check(scn)
