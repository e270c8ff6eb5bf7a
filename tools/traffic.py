"""Memo traffic and unexecuted library lines of the benchmark's workloads.

Runs the cases of each workload in ``perfbench/workloads.py`` (``control``,
``stabilize``, ``cli``) for rounds 0 and 1 at seed 11, each workload from a
cold start (every memo emptied), the ``cli`` workload's scenario files and
artifacts in a temporary directory.  Each case goes through
``perfbench/run.py``'s ``execute``, without its warm-up case; importing
``run`` pins BLAS and OpenMP threads to one before numpy loads.  Prints,
per workload, the hits and misses of each memo inside the workload's
``call``, counted by wrapping ``benctrl._memo.Store.get``: a memo is named
by its function's ``__qualname__``, a horizon's plant slot ``Horizon.plant``.

Then the statement lines of ``src/benctrl`` that no workload executed, a
line trace taken from before the library is imported, docstrings left out.
A statement is executed when any of its own lines (a compound statement's
header, not its body) ran; a line counts if the compiler gave it code.

Usage: ``python tools/traffic.py``
"""

from __future__ import annotations

import ast
import gc
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "benctrl"

#: (file, line) of every line event in ``src/benctrl``
EXECUTED = set()


def _trace(frame, event, arg):
    """Global trace function: line events of the library's frames only."""
    return _line if frame.f_code.co_filename.startswith(str(SRC)) else None


def _line(frame, event, arg):
    if event == "line":
        EXECUTED.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _code_lines(code) -> set:
    """Lines to which the compiler gave code, nested code objects included."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """(first, last) own lines of every statement but a docstring: a
    compound statement's decorators and header, a simple one's span."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body \
            else node.end_lineno
        yield first, last


def unexecuted(path: Path) -> list:
    """Sorted lines of the statements in ``path`` that never ran."""
    text = path.read_text()
    code = _code_lines(compile(text, str(path), "exec"))
    out = []
    for first, last in _statements(ast.parse(text)):
        own = [i for i in range(first, last + 1) if i in code]
        if own and not any((str(path), i) in EXECUTED for i in own):
            out.extend(own)
    return sorted(set(out))


def ranges(lines) -> str:
    """'187-190, 246-247' for the lines 187..190, 246, 247."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def cold_start(memo, spectral):
    """Empty every memo: each live store, and the H^s weights' cache."""
    gc.collect()
    for obj in gc.get_objects():
        if isinstance(obj, memo.Store):
            obj.clear()
    spectral.hs_weights.cache_clear()


def main() -> int:
    sys.settrace(_trace)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    import benctrl._memo as memo
    import benctrl.spectral as spectral
    import workloads

    traffic = Counter()
    flag = types.SimpleNamespace(active=False)
    get = memo.Store.get

    def counted_get(store, key, compute):
        if flag.active:
            fn = key[0] if isinstance(key, tuple) else None
            name = getattr(fn, "__qualname__", "Horizon.plant")
            traffic[name, key in store._entries] += 1
        return get(store, key, compute)

    memo.Store.get = counted_get
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for workload in (workloads.ControlWorkload(),
                             workloads.StabilizeWorkload(),
                             workloads.CliWorkload(Path(tmp) / "cli")):
                cold_start(memo, spectral)
                traffic.clear()
                for r in (0, 1):
                    for case in workload.cases(11, r):
                        run.execute(workload, case, flag)
                print(f"{workload.name}: seed 11, rounds 0-1")
                print(f"  {'memo':<20} {'hits':>6} {'misses':>6}")
                for name in dict.fromkeys(name for name, _ in traffic):
                    print(f"  {name:<20} {traffic[name, True]:>6} "
                          f"{traffic[name, False]:>6}")
    finally:
        sys.settrace(None)
        memo.Store.get = get
    print("statement lines of src/benctrl no workload executed:")
    for path in sorted(SRC.glob("*.py")):
        lines = unexecuted(path)
        if lines:
            print(f"  {path.name}: {ranges(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
