import ast
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import benctrl
import benctrl.cli


def test_all_lists_every_public_name_once():
    names = benctrl.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(benctrl, name) for name in names)
    public = {name for name, value in vars(benctrl).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(names)
    modules = {name for name in names
               if isinstance(getattr(benctrl, name), types.ModuleType)}
    assert modules == {"errors", "moment_control", "operators", "spectral",
                       "spectrum", "stabilization"}


def test_import_loads_neither_scipy_nor_the_process_pool(tmp_path):
    """Start-up pays for numpy and the standard library only: scipy loads
    with the expm fallback, the process pool with a sweep.  A ``spectrum``
    run draws no random state and profiles no bump, so it loads neither
    ``numpy.random`` nor ``numpy.fft``."""
    src = Path(benctrl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    loaded = ("print(sorted(m for m in ('scipy', 'concurrent.futures.process',"
              " 'numpy.random', 'numpy.fft') if m in sys.modules))")
    spectrum = ("benctrl.cli.main(['spectrum', '--alpha', '7/3', '--n', '8',"
                f" '--outdir', {str(tmp_path)!r}])")
    probe = f"import sys, benctrl, benctrl.cli; {loaded}; {spectrum}; {loaded}"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str(tmp_path / "report.json"),
                                        "[]"]


def test_no_module_reads_another_objects_private_attribute():
    """Private state stays with its object: a module reads a
    single-underscore attribute of ``self`` or ``cls`` only."""
    reads = []
    for path in sorted(Path(benctrl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                reads.append(f"{path.name}:{node.lineno}: "
                             f"{ast.unparse(node)}")
    assert reads == []


def test_only_run_writes_a_runs_files():
    """A runner computes and formats; ``cli.run`` checks every artifact,
    then makes the output directory and writes them all, so no runner
    opens, makes or writes a file."""
    runners = {runner.__name__ for runner in benctrl.cli._RUNNERS.values()}
    tree = ast.parse(Path(benctrl.cli.__file__).read_text())
    bodies = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in runners]
    assert {node.name for node in bodies} == runners
    writes = []
    for body in bodies:
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if name in ("open", "mkdir", "_artifact"):
                    writes.append(f"{body.name}:{node.lineno}: {name}")
    assert writes == []


@pytest.fixture(scope="module")
def records():
    """One of each record that holds arrays, from one small pipeline."""
    n = 8
    u0, u1 = (benctrl.TorusFunction.basis(k, n) for k in (1, 2))
    bump = benctrl.build_bump(kmax=2 * n)
    problem = benctrl.ControlProblem(1.0, 0.0, 1.0, 0.0, n, bump, u0, u1)
    result = benctrl.synthesize_control(problem)
    L = benctrl.build_L_lambda(result.mmatrix, result.spectrum, 1.0, 1.0)
    law = benctrl.feedback_gramian(L, result.mmatrix, result.spectrum)
    return {"TorusFunction": u0, "BumpProfile": bump, "Gramian": L,
            "FeedbackLaw": law, "ControlProblem": problem,
            "ControlSignal": result.signal, "SynthesisResult": result,
            "Spectrum": result.spectrum}


@pytest.mark.parametrize("name", [
    "TorusFunction", "BumpProfile", "Gramian", "FeedbackLaw",
    "ControlProblem", "ControlSignal", "SynthesisResult", "Spectrum"])
def test_records_compare_and_hash_by_identity(records, name):
    """A memo key may hold any of them: == and hash() never raise."""
    record = records[name]
    twin = dataclasses.replace(record)      # equal content, another object
    assert type(record).__name__ == name
    assert record == record and not record != record
    assert record != twin and not twin == record
    assert hash(record) == hash(record) != hash(twin)


def test_a_rebuilt_spectrum_keys_alike_and_compares_apart():
    first = benctrl.analyze_spectrum(8, 1.0)
    benctrl.analyze_spectrum.cache_clear()
    again = benctrl.analyze_spectrum(8, 1.0)
    assert again is not first and again != first
    assert again.key == first.key == (8, float, 1.0, int, 0)
