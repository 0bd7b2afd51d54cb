"""The example scripts run end to end against the current API."""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["worked_examples.py"], ["classification_sweep.py", "--count", "20"]],
    ids=["worked_examples", "classification_sweep"],
)
def test_script_exits_zero_with_json_report(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert isinstance(json.loads(done.stdout), dict)
