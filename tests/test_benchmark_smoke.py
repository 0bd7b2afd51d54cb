"""The benchmark's own smoke test passes against this checkout.

``perfbench/smoke_test.py`` runs every workload at tiny sizes and checks
each output (including the generator verdicts of ``cli-batch``), so a
change that breaks them fails here as well as in the benchmark.  It runs
in a temporary directory without bytecode caching, so nothing is written
under ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_smoke_test_passes(tmp_path):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke_test.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
