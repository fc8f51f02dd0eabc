"""``scripts/src_lines.py`` counts a code line wherever a token lies outside
docstrings and comments, and the tokens CPython's parser reads."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,
        over two lines."""
        text = """a string that is
        not a docstring"""
        return math.sqrt(
            x
        ), text
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import; class; def; the two-line string; the three-line return
    assert _load().code_lines(SOURCE) == 1 + 1 + 1 + 2 + 3


def test_totals_cover_every_file(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    module = _load()
    module.ROOT = tmp_path
    module.main()
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[:2] == [str(SOURCE.count("\n") + 2), str(8 + 1)]


def test_parser_tokens_skip_comments_blank_lines_and_the_encoding():
    # NAME OP NUMBER NEWLINE, then ENDMARKER; the comment and the blank line do not count
    assert _load().parser_tokens("x = 1  # a comment\n\n") == 5


def test_modules_past_the_token_step_are_flagged(tmp_path, capsys):
    module = _load()
    (tmp_path / "big.py").write_text("x = 1\n" * (module.TOKEN_STEP // 4))  # 4 tokens a line, and ENDMARKER
    (tmp_path / "edge.py").write_text("x = 1\n" * (module.TOKEN_STEP // 4 - 1) + "x\n")
    module.ROOT = tmp_path
    module.main()
    lines = {Path(line.split()[-1]).name: line.split() for line in capsys.readouterr().out.splitlines()[:-1]}
    assert lines["big.py"][2] == f"{module.TOKEN_STEP + 1}*"
    assert lines["edge.py"][2] == f"{module.TOKEN_STEP - 1}"
