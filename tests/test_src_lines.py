"""``scripts/src_lines.py`` counts a code line wherever a token lies outside
docstrings and comments."""

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
