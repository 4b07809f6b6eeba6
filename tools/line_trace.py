"""Name every line of ``src/maxvariety`` that no test executes.

A pytest plugin.  From the repository root::

    PYTHONPATH=src:tools python -m pytest -q -p line_trace [pytest args]

It installs a ``sys.settrace`` tracer when pytest is configured, before any
test module imports the package, and records each line executed in
``src/maxvariety/*.py``.  At the end of the session it prints each line of
those modules that compiles to code and that no test executed, as
``file:line: text``.  Code run in a subprocess or another thread is not
traced.
"""

from __future__ import annotations

import sys
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maxvariety"
_executed: dict[str, set[int]] = {str(path): set()
                                  for path in _PACKAGE.glob("*.py")}


def _trace_lines(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    lines = _executed.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _trace_lines


def _code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def pytest_configure(config):
    sys.settrace(_trace_calls)


def pytest_unconfigure(config):
    sys.settrace(None)


def pytest_terminal_summary(terminalreporter):
    for name, executed in sorted(_executed.items()):
        path = Path(name)
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_code_lines(compile(source, name, "exec"))
                           - executed):
            terminalreporter.write_line(
                f"{path.name}:{line}: {text[line - 1].strip()}")
