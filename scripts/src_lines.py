"""Count the lines of the package source: every line, code lines and parser tokens.

Usage: python scripts/src_lines.py

A code line holds at least one token that is not part of a docstring or a
comment; blank lines, comment lines and docstring lines do not count.  A
docstring is a string literal that stands alone as the first statement of
a module, class or function.  Parser tokens are the tokens of ``tokenize``
other than comments, non-logical newlines and the encoding: what CPython's
parser reads.  A module past ``TOKEN_STEP`` of them is flagged with ``*``:
CPython 3.11's parser doubles its token array there and allocates every
new token at once, so each compile of such a module takes about 250 KB
more memory.  Prints one line per file, then the totals.
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
NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
TOKEN_STEP = 4096
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


def parser_tokens(source: str) -> int:
    return sum(tok.type not in NOT_PARSED for tok in tokenize.generate_tokens(io.StringIO(source).readline))


def main() -> None:
    total = code = tokens = 0
    for path in sorted(ROOT.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        n, c, t = source.count("\n"), code_lines(source), parser_tokens(source)
        total, code, tokens = total + n, code + c, tokens + t
        flag = "*" if t > TOKEN_STEP else " "
        print(f"{n:6d} {c:6d} {t:6d}{flag}  {path.relative_to(ROOT.parents[1])}")
    print(f"{total:6d} {code:6d} {tokens:6d}   total (wc -l, code lines, parser tokens; * past {TOKEN_STEP})")


if __name__ == "__main__":
    main()
