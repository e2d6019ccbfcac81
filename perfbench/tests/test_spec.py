import json
import re
from pathlib import Path

from perfbench import layers, spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_benchmark_json_matches_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.render()


def test_spec_stays_within_the_benchmark_contract():
    doc = spec.render()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    for path in doc["paths"]:
        assert (ROOT / path).is_dir()
    assert len(json.dumps(doc)) <= 64 * 1024


def test_every_span_metric_and_target_is_a_per_layer_metric():
    assert set(layers._SPAN_METRICS) <= set(layers.PER_LAYER)
    assert all(name.split(".")[0] in {
        "geometry", "graphs", "core", "tours", "network", "sim",
        "pipeline", "serve"} for name in layers.TARGETS.values())


def test_the_extra_workload_stays_out_of_benchmark_json():
    doc = spec.render()
    listed = {w["name"] for w in doc["workloads"]}
    assert listed == set(spec.WORKLOADS)
    assert not listed & set(spec.EXTRA_WORKLOADS)
    per_layer = {m["name"] for m in doc["per_layer"]}
    assert per_layer == set(layers.PER_LAYER)
    assert not per_layer & set(layers.SERVE_LAYER)
