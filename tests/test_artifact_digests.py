"""Byte identity of the CLI's artifacts, held against a committed table.

Each command below runs through ``cli.main`` in one driver subprocess per
``OPENBLAS_NUM_THREADS`` value, and the SHA-256 digest of every file it
writes must equal the one recorded in ``data/artifact_digests.json`` for
that thread count.  A change that moves an artifact's bytes re-records the
table, so the diff of the table shows which files moved::

    PYTHONPATH=src python tests/test_artifact_digests.py

The bytes are tied to the numpy build and its BLAS, so the table carries a
stamp of both; on another build the test skips and names both stamps.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import maxvariety

DATA = Path(__file__).parent / "data"
TABLE = DATA / "artifact_digests.json"
THREADS = ("1", "2")

_SYNTH = ["--m", "100", "--N", "1000", "--rho", "0.8", "--nu", "0.5",
          "--seed", "10001"]
_RETURNS = "synth/returns.csv"
_BACKTEST = ["--prices", str(DATA / "prices_fixture.csv"),
             "--window-days", "40", "--rebalance-days", "10"]
# (output directory, argv without --out), run in this order
COMMANDS = (
    ("synth", ["synth", *_SYNTH, "--K", "3"]),
    ("clean", ["clean", "--input", _RETURNS]),
    ("clean-no-demean", ["clean", "--input", _RETURNS, "--no-demean"]),
    ("allocate", ["allocate", "--input", _RETURNS]),
    ("allocate-no-demean", ["allocate", "--input", _RETURNS, "--no-demean"]),
    ("backtest", ["backtest", *_BACKTEST]),
    ("backtest-compare", ["backtest", *_BACKTEST, "--compare"]),
    ("mc-order-K0", ["mc-order", *_SYNTH, "--K", "0", "--no-demean",
                     "--trials", "10"]),
    ("mc-order-K3", ["mc-order", *_SYNTH, "--K", "3", "--no-demean",
                     "--trials", "10"]),
)

_DRIVER = """
import json, sys
from maxvariety.cli import main
for out, argv in json.loads(sys.argv[1]):
    if main([*argv, "--out", out]) != 0:
        sys.exit(f"{out}: {argv} failed")
"""


def stamp() -> dict:
    """numpy's version and its BLAS build (the build's directories left out)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: value for key, value in blas.items()
                     if "directory" not in key}}


def run_digests(threads: str, where: Path) -> dict[str, str]:
    """Run every command in ``where`` at ``threads`` BLAS threads; the
    digest of each file written, keyed by its path below ``where``."""
    paths = [str(Path(maxvariety.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(COMMANDS)],
                         cwd=where, env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    return {path.relative_to(where).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(where.rglob("*")) if path.is_file()}


def _recorded() -> dict:
    table = json.loads(TABLE.read_text())
    if table["stamp"] != stamp():
        pytest.skip(f"the digests were recorded on {table['stamp']}, "
                    f"this run has {stamp()}")
    return table["digests"]


@pytest.mark.parametrize("threads", THREADS)
def test_artifacts_match_the_recorded_digests(tmp_path, threads):
    want = _recorded()[threads]
    got = run_digests(threads, tmp_path)
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, f"artifacts moved at {threads} BLAS threads: {moved}"


def test_synth_and_backtest_digests_do_not_depend_on_the_thread_count():
    # synth takes no BLAS product over the observations, and the
    # backtest's (4 assets, 40-day windows) are too small for OpenBLAS to
    # split across threads
    digests = _recorded()
    for name, digest in digests[THREADS[0]].items():
        if name.startswith(("synth/", "backtest")):
            assert all(digests[t][name] == digest for t in THREADS), name


if __name__ == "__main__":
    digests = {}
    for threads in THREADS:
        with tempfile.TemporaryDirectory() as where:
            digests[threads] = run_digests(threads, Path(where))
    TABLE.write_text(json.dumps({"stamp": stamp(), "digests": digests},
                                indent=1, sort_keys=True) + "\n")
