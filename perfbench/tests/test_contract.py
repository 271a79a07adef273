"""``BENCHMARK.json`` agrees with what ``perfbench/run.py`` prints."""

import json
import os
import re

from perfbench import run
from perfbench.common import END_TO_END, per_layer_units

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_keys_and_command():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_workloads_match_the_runner():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_match_what_runs_print():
    doc = load()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()
    assert len(doc["per_layer"]) <= 128


def test_metric_fields_and_bounds():
    doc = load()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
