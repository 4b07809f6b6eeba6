"""``tools/count_lines.py``: physical lines, and code lines without blanks,
comments or docstrings, on a fixture whose counts are known."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

# 19 physical lines; code on lines 4, 8, 10-12, 15, 18 and 19
_SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """One-line docstring."""
    text = """not a docstring,
    but a string over two lines"""
    return x + len(text)


class C:
    """Class docstring."""

    def g(self):
        return os.sep
'''


def test_count_lines_on_a_fixture_package(tmp_path):
    (tmp_path / "sample.py").write_text(_SAMPLE, encoding="utf-8")
    (tmp_path / "tiny.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(_TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["19", "8", "sample.py"], ["1", "1", "tiny.py"], ["20", "9", "total"]]
