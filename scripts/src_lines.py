"""Count the lines of the package source: every line, and code lines.

Usage: python scripts/src_lines.py

A code line holds at least one token that is not part of a docstring or a
comment; blank lines, comment lines and docstring lines do not count.  A
docstring is a string literal that stands alone as the first statement of
a module, class or function.  Prints one line per file, then the totals.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
ROOT = Path(__file__).resolve().parents[1] / "src" / "labelmoments"


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring's literal starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = code = 0
    for path in sorted(ROOT.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        n, c = source.count("\n"), code_lines(source)
        total, code = total + n, code + c
        print(f"{n:6d} {c:6d}  {path.relative_to(ROOT.parents[1])}")
    print(f"{total:6d} {code:6d}  total (wc -l, code lines)")


if __name__ == "__main__":
    main()
