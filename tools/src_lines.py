"""Count the lines of the library, per module and in total.

Prints two counts for each ``*.py`` file under a source directory
(``src/benctrl`` by default):

- ``wc -l`` lines: every line of the file;
- code lines: lines that hold a token of code, which leaves out blank
  lines, comment lines and the lines of docstrings (a string literal that
  stands alone as a statement).  A statement spread over several lines
  counts each of them.

Usage: ``python tools/src_lines.py [SOURCE_DIR]``
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold code, docstrings left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parents[1] / "src" / "benctrl"
    files = sorted(root.glob("*.py"))
    if not files:
        raise SystemExit(f"no Python files under {root}")
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>6} {'code':>6}")
    for path in files:
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<20} {wc:>6} {code:>6}")
    print(f"{'total':<20} {total_wc:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
