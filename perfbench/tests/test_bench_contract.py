"""BENCHMARK.json's shape, and run.py's refusal to run without the program's sources."""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _all_metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def test_metric_and_workload_names_use_the_allowed_characters_once():
    names = [m["name"] for m in _all_metrics()] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in _all_metrics())
    assert all(m["better"] in ("higher", "lower") for m in _all_metrics())


def test_workloads_match_the_driver_and_the_workload_table():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert all("\n" not in w["why"] and len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_end_to_end_bounds_and_setup_metric():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    bounds = [m["bound"] for m in e2e.values()]
    assert all(0 < b <= 0.25 for b in bounds)
    assert e2e["setup_s"]["bound"] == max(bounds)


def test_every_per_layer_metric_is_one_the_traced_run_produces():
    known = layers.known_metric_names()
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in known] == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 20)]) == (19.0, 100.0, 0)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_mem", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
