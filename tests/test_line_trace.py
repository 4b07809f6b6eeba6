"""``tools/line_trace.py``: run as a pytest plugin over one small test file,
it names a package line that the file never executes and no line that it
does."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SAMPLE = '''import numpy as np

from maxvariety.robust import toeplitzify


def test_toeplitzify():
    toeplitzify(np.eye(2))
'''


def _line(text: str) -> int:
    """The line number of ``text`` in robust.py."""
    source = (_ROOT / "src" / "maxvariety" / "robust.py").read_text(
        encoding="utf-8").splitlines()
    (index,) = [i for i, line in enumerate(source) if line.strip() == text]
    return index + 1


def test_line_trace_names_lines_no_test_executed(tmp_path):
    (tmp_path / "test_sample.py").write_text(_SAMPLE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT / "tools")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "line_trace", "test_sample.py"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300, check=True).stdout
    named = set(out.splitlines())
    unrun = 'raise ParameterError("inv_sqrt input is empty")'
    assert f"robust.py:{_line(unrun)}: {unrun}" in named
    run = "sym = 0.5 * (matrix + matrix.T)"
    assert f"robust.py:{_line(run)}: {run}" not in named
    # module-level code runs at import, under the tracer
    assert not any(line.startswith("robust.py:") and "import" in line
                   for line in named)
