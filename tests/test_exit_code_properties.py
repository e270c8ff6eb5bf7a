"""Property test of the exit-code contract: whatever flags, values, output
path and scenario file an experiment is given, ``main`` returns 0, 2 or 3
(argparse's exit counts as its code) with one line of stderr naming the
failure, and raises nothing else."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from benctrl import cli

VALUES = st.sampled_from(["1", "0.5", "2", "7/3", "0", "-1", "1e-3", "1e300",
                          "nan", "inf", "x", ""])
FLAGS = {
    "--alpha": VALUES, "--mu": VALUES, "--s": VALUES, "--lambda": VALUES,
    # short horizons miss a control's target, and long ones leave too few
    # norms for a decay fit: both exit 3
    "--T": st.sampled_from(["1", "0.01", "1e-3", "0", "nan", "x"]),
    "--t-final": st.sampled_from(["2", "1e300", "0", "nan", "x"]),
    "--seed": st.sampled_from(["0", "3", "-1", "x"]),
    "--law": st.sampled_from(["simple", "gramian", "x"]),
    "--T-list": st.lists(VALUES, min_size=1, max_size=3),
}
#: at most three flags a draw, so that some runs get through
SOME_FLAGS = st.lists(st.sampled_from(sorted(FLAGS)), max_size=3, unique=True
                      ).flatmap(lambda chosen: st.fixed_dictionaries(
                          {flag: FLAGS[flag] for flag in chosen}))
#: each kind of output path, in a directory that holds the file "file"
OUTPATHS = {"fresh": "out", "a file": "file", "under a file": "file/out"}
OUTDIRS = st.just("fresh") | st.sampled_from(["a file", "under a file"])
SCENARIOS = st.none() | st.sampled_from(["missing", "a directory",
                                         "not JSON", "a JSON list"])


def _argv(root: Path, experiment, n, flags, outdir, scenario) -> list:
    (root / "file").write_text("x")
    (root / "a directory").mkdir()
    (root / "not JSON").write_text("{n: 4")
    (root / "a JSON list").write_text(json.dumps([{"n": 4}]))
    argv = [experiment, "--n", n, "--outdir", str(root / OUTPATHS[outdir])]
    if scenario is not None:
        argv += ["--scenario", str(root / scenario)]
    for flag, value in flags.items():
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(experiment=st.sampled_from(cli.EXPERIMENTS),
       n=st.sampled_from(["1", "2", "4", "8", "0", "x"]),
       flags=SOME_FLAGS,
       outdir=OUTDIRS, scenario=SCENARIOS)
def test_main_exits_0_2_or_3(experiment, n, flags, outdir, scenario):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")      # warnings are not failures
        argv = _argv(Path(tmp), experiment, n, flags, outdir, scenario)
        try:
            code = cli.main(argv)
        except SystemExit as exc:            # argparse rejected the argv
            assert exc.code == 2, argv
            return
    failure = {0: "", 2: "validation error: ", 3: "numerical failure: "}
    assert code in failure, argv
    assert err.getvalue().startswith(failure[code]), (argv, err.getvalue())
    assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())
