import json
import os
import subprocess
import sys

from looptool.knots import fixture
from workloads import WORKLOADS, format_value, sha256

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_knot_rows_print_as_the_cli_does():
    w = WORKLOADS["knot-41"]
    fx = w.setup(None, None)
    items = w.items(fx)[:2]
    lines = [w.line(item, item.call()) for item in items]
    assert lines == ["1,-7/108", "2,-3365/129654"]
    assert sha256("\n".join(lines)) == \
        "a1a901baaa129f3ce2c47850f2d5eb37ab0fe8f316d5f73096d517d416e0e3fe"


def test_tagged_values_keep_their_unit():
    value = fixture("4_1").phi_average(2, 1)
    assert format_value(value.value, value.sqrt_m3) == "17/216 (unit sqrt(-3))"


def test_a_wrong_row_fails_its_check():
    w = WORKLOADS["knot-41"]
    fx = w.setup(None, None)
    items = w.items(fx)[:3]
    outputs = [item.call() for item in items]
    assert w.check(fx, items, outputs) == [None, None, None]
    swapped = [outputs[1], outputs[0], outputs[2]]
    assert w.check(fx, items, swapped) == ["differs from phi_closed"] * 2 + [None]


def test_run_reports_identical_digests_for_the_same_code():
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "knot-41",
           "--seed", "4", "--seconds", "0.1", "--trace", "0"]
    digests = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        path = os.path.join(BENCH, "results", "knot-41-seed4-trace0.json")
        with open(path) as fh:
            digests.append(json.load(fh)["digest_sha256"])
    assert digests[0] == digests[1]
