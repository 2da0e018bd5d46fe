"""tools/count_lines.py counts code lines, not blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(box):
    """Function docstring,

    over three lines."""
    note = """a string that is
no docstring"""
    return math.prod(
        [box.size, box.size]
    )
'''


def _load_counter():
    spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, size, def, the two lines of the string and the three
    # lines of the return statement.
    assert _load_counter().code_lines(SOURCE) == 9


def test_default_paths_are_the_package_sources(capsys):
    counter = _load_counter()
    assert counter.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = sorted((ROOT / "src" / "mvgrover").glob("*.py"))
    assert [line.split()[1] for line in lines[:-1]] == [str(p) for p in files]
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].split()[1] == "total" and counts[-1] == sum(counts[:-1])
