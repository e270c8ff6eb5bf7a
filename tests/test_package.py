import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import benctrl
import benctrl.cli


def test_the_package_exposes_its_modules_only():
    """Each public name has one import path, through its module: the
    package's ``__all__`` is its six modules, and every public attribute of
    the package is a module."""
    assert benctrl.__all__ == ["errors", "moment_control", "operators",
                               "spectral", "spectrum", "stabilization"]
    public = {name: value for name, value in vars(benctrl).items()
              if not name.startswith("_")}
    assert all(isinstance(value, types.ModuleType)
               for value in public.values())
    assert set(benctrl.__all__) <= set(public)


def test_no_file_reads_a_name_from_the_package_itself():
    """``src``, ``tests``, ``demos``, ``tools`` and ``perfbench`` read a
    public name through its module: no ``benctrl.<name>`` and no ``from
    benctrl import <name>`` unless the name is a submodule or a dunder."""
    root = Path(benctrl.__file__).resolve().parents[2]
    modules = {path.stem for path in Path(benctrl.__file__).parent.glob("*.py")}

    def flat(name):
        return name not in modules and not name.startswith("__")

    reads = []
    for d in ("src", "tests", "demos", "tools", "perfbench"):
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "benctrl" and flat(node.attr)):
                    reads.append(f"{path.name}:{node.lineno}: {node.attr}")
                if (isinstance(node, ast.ImportFrom)
                        and node.module == "benctrl" and node.level == 0):
                    reads += [f"{path.name}:{node.lineno}: {alias.name}"
                              for alias in node.names if flat(alias.name)]
    assert reads == []


def test_import_loads_neither_scipy_nor_the_process_pool(tmp_path):
    """Start-up pays for numpy and the standard library only: scipy loads
    with the expm fallback, the process pool with a sweep, orjson when a
    ``control`` run writes its coefficients.  A ``spectrum``
    run draws no random state and profiles no bump, so it loads neither
    ``numpy.random`` nor ``numpy.fft``.  The import itself loads the ten
    modules of the package and no more."""
    src = Path(benctrl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    loaded = ("print(sorted(m for m in ('scipy', 'concurrent.futures.process',"
              " 'numpy.random', 'numpy.fft', 'orjson') if m in sys.modules))")
    spectrum = ("benctrl.cli.main(['spectrum', '--alpha', '7/3', '--n', '8',"
                f" '--outdir', {str(tmp_path)!r}])")
    own = "print(sorted(m for m in sys.modules if m.startswith('benctrl')))"
    probe = (f"import sys, benctrl, benctrl.cli; {own}; {loaded}; {spectrum};"
             f" {loaded}")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    package = ["benctrl", "benctrl._closedform", "benctrl._memo",
               "benctrl.cli", "benctrl.errors", "benctrl.moment_control",
               "benctrl.operators", "benctrl.spectral", "benctrl.spectrum",
               "benctrl.stabilization"]
    assert proc.stdout.splitlines() == [str(package), "[]",
                                        str(tmp_path / "report.json"), "[]"]


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


def test_every_record_field_has_a_reader():
    """Each annotated field of a class in ``src/benctrl`` is read as an
    attribute (``x.field``) somewhere in ``src``, ``tests``, ``demos``,
    ``tools`` or ``perfbench``: a field that nothing reads goes.  The scan
    matches names only, so a field counts as read where any attribute of
    its name is: it cannot see that ``Gramian.rate`` is unread, because
    ``DecayFit.rate`` is (``fit.rate``)."""
    root = Path(benctrl.__file__).resolve().parents[2]

    def trees(*dirs):
        for d in dirs:
            for path in sorted((root / d).rglob("*.py")):
                yield path, ast.parse(path.read_text())

    read = {node.attr for _, tree in trees("src", "tests", "demos", "tools",
                                           "perfbench")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}: {cls.name}.{stmt.target.id}"
              for path, tree in trees("src/benctrl")
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert unread == []


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
    mc, stab = benctrl.moment_control, benctrl.stabilization
    u0, u1 = (benctrl.spectral.TorusFunction.basis(k, n) for k in (1, 2))
    bump = benctrl.operators.build_bump(kmax=2 * n)
    problem = mc.ControlProblem(1.0, 0.0, 1.0, 0.0, n, bump, u0, u1)
    result = mc.synthesize_control(problem)
    L = stab.build_L_lambda(result.mmatrix, result.spectrum, 1.0, 1.0)
    law = stab.feedback_gramian(L, result.mmatrix, result.spectrum)
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
    first = benctrl.spectrum.analyze(8, 1.0)
    benctrl.spectrum.analyze.cache_clear()
    again = benctrl.spectrum.analyze(8, 1.0)
    assert again is not first and again != first
    assert again.key == first.key == (8, float, 1.0, int, 0)


def test_the_line_counter_leaves_out_blanks_comments_and_docstrings():
    path = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    text = ('"""Module\n\ndocstring."""\n\n# a comment\n'
            'def f(x):\n    """One line."""\n    return (x +  # why\n'
            '            1)\n\n\nTEXT = """not\na docstring"""\n')
    assert src_lines.code_lines(text) == 5
