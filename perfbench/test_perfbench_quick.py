"""Self-test of the benchmark: every workload at tiny sizes, in seconds.

Runs ``perfbench/run.py --selftest`` (same checks and output schema as a
full run, untraced and traced) and checks that the benchmark refuses to
produce a result where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_selftest_passes():
    # The output checks recompute edges and hulls with scipy's k-d tree
    # and convex hull.
    pytest.importorskip("scipy")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--selftest"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"selftest": "pass"}


def test_no_result_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "planar_round",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
