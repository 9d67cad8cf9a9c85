import json
import os
import re
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_metrics_are_the_reported_ones():
    spec = load()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_declaration_is_well_formed():
    spec = load()
    assert list(spec) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "knot-41",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no looptool sources" in proc.stderr


def test_a_failed_check_makes_the_run_fail(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    # a deliberately broken copy of the program: row n = 3 is off by one
    knots = tmp_path / "src" / "looptool" / "knots.py"
    text = knots.read_text()
    good = "return TaggedValue(value, self.phi_units.get(ell, False))"
    assert good in text
    knots.write_text(text.replace(
        good, "return TaggedValue(value + int(n == 3), self.phi_units.get(ell, False))"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "knot-41",
                           "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 70
    assert "n=3: differs from phi_closed" in proc.stdout
