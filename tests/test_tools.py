import json
import sys

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "tools"))
from cli_reports import ulp_movement  # noqa: E402


def report(result) -> bytes:
    return json.dumps({"version": "0", "config": {"seed": 7919, "tol": 1e-9}, "result": result}).encode()


def test_ulp_movement_is_in_ulps_of_the_largest_float_of_the_result():
    # the seed in config and the int dimension are not entries; 2.0 is the largest float
    base = {"dilation_dim": 300, "v": [[[1.5, -2.0]]], "residuals": {"reconstruction": 1e-15}}
    head = {**base, "residuals": {"reconstruction": 1e-15 + 2 * 4.440892098500626e-16}}
    assert ulp_movement(report(base), report(head)) == (
        "largest float change 8.88e-16 = 2 ulp of the largest float 2")


def test_ulp_movement_needs_json_results_of_one_layout():
    base = report({"v": [[[1.0, 0.0]]]})
    assert ulp_movement(base, b"") is None
    assert ulp_movement(base, report({"v": [[[1.0, 0.0], [0.0, 0.0]]]})) is None
    assert ulp_movement(base, b'{"error": {}}') is None
