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


def test_layer_timings_reports_every_layer_at_its_smallest_size():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "layer_timings.py"), "--repeat", "1", "--max-dim", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["context"] == {"p": 3, "mu": 5, "precision": 20}
    assert set(report["timings"]) == {
        "padic.new_us",
        "padic.add_us",
        "padic.mul_us",
        "padic.sum16_us",
        "quadext.mul_us",
        "quadext.element_us",
        "block_mul.d4_ms",
        "block_mul_read.d4_ms",
        "block_mul_gap_ms",
        "block_mul_far_row_ms",
        "block_mul_diag.d4_ms",
        "hs_inner.d4_ms",
        "decompose.d4_ms",
        "reconstruct.d4_ms",
        "factor.d4_ms",
        "factor_product.d4_ms",
        "operator_norm.d4_ms",
        "apply.d4_ms",
        "inner_product.d4_ms",
        "unitarity.d4_ms",
        "unitarity.d8_ms",
        "orthonormal.d4_ms",
        "jsonio.parse_us_per_element",
        "jsonio.emit_us_per_kb",
        "jsonio.context_us",
    }
    assert all(t > 0 for t in report["timings"].values())


def test_layer_timings_time_the_norm_orthogonality_rank_up_to_the_largest_size():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "layer_timings.py"), "--repeat", "1", "--max-dim", "8"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    timings = json.loads(done.stdout)["timings"]
    family = {k for k in timings if k.startswith(("norm_orthogonal.", "block_mul_read."))}
    assert family == {"norm_orthogonal.d8_ms", "block_mul_read.d4_ms", "block_mul_read.d8_ms"}
    assert all(timings[k] > 0 for k in family)
