"""The benchmark's result digests stay byte-identical.

Each perfbench workload hashes every result it checks into one SHA-256
digest.  A refactor that claims to keep every output must keep these
digests; a change that alters outputs on purpose updates the pins below
and says why in CHANGES.md.  The three runs use seed 7 at the smoke
test's shrunken sizes and share one subprocess, which imports padicqm
from this checkout's ``src/`` and writes no bytecode under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# workload, shrink, digest
PINNED = (
    ("block-algebra", 4, "2dd1657070dc8d294459ea7cfd0ef9cd2b91507d654904f2d52d95251254a034"),
    ("cli-batch", 2, "1f969ebeb0c3b322c280020ea2228ddb4f9dc3181e49cf8b920ebcf8b6305781"),
    ("states-pairing", 2, "11d54f7403a94b5f98d45e06e09a45bf6fe938bc6108eff372921753bc9e36e3"),
)

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
out = {}
for workload, shrink in json.loads(sys.argv[2]):
    res = run.run(workload, 7, 0, False, shrink)
    out[workload] = {"failed": res["failed"], "digest": res["digest"]}
print(json.dumps(out))
"""


def test_benchmark_digests_are_pinned(tmp_path):
    cases = json.dumps([[workload, shrink] for workload, shrink, _ in PINNED])
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(PERFBENCH), cases],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    for workload, _, digest in PINNED:
        assert results[workload] == {"failed": 0, "digest": digest}, workload
