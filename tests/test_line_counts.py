"""Line classes of tools/line_counts.py, on a canned file."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("line_counts", _ROOT / "tools" / "line_counts.py")
line_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_counts)

CANNED = '''"""Module docstring."""

# a comment-only line
import os  # a trailing comment is code


class Thing:
    """Class docstring,

    with a blank line inside it."""

    def method(self):
        """One-line method docstring."""
        text = """not a docstring"""
        # another comment
        return text


async def fetch():
    """Async function
    docstring."""
    return os.sep
'''


def test_canned_file_counts():
    assert line_counts.count_lines(CANNED) == {"docstring": 7, "comment": 2, "blank": 6, "code": 7}


def test_paths_and_total_row(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CANNED)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    files = line_counts.python_files([tmp_path / "pkg", tmp_path / "pkg" / "b.py"])
    assert [f.name for f in files] == ["a.py", "b.py"]
    rows = [(f.name, line_counts.count_lines(f.read_text())) for f in files]
    lines = line_counts.render(rows).splitlines()
    assert lines[0].split() == ["file", "docstring", "comment", "blank", "code", "total"]
    assert lines[1].split() == ["a.py", "7", "2", "6", "7", "22"]
    assert lines[2].split() == ["b.py", "0", "0", "1", "1", "2"]
    assert lines[3].split() == ["total", "7", "2", "7", "8", "24"]
