"""Tests for the benchmark's own code (not for ``repro``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import calibrate, inputs, metrics, tracing, verdict

BENCH_ROOT = Path(__file__).resolve().parents[2]


# -- seeded inputs ------------------------------------------------------ #

@pytest.mark.parametrize("make", [inputs.table1_inputs, inputs.sweep_inputs, inputs.serve_inputs])
def test_inputs_are_a_function_of_the_seed(make):
    assert make(inputs.DEV_SEED) == make(inputs.DEV_SEED)
    assert make(inputs.DEV_SEED) != make(inputs.HELDOUT_SEED)
    assert make(3) != make(4)


def test_every_table1_pass_samples_one_graph_per_size():
    passes = inputs.table1_inputs(5)
    assert len(passes) == inputs.TABLE1_PASSES
    for names in passes:
        assert [n for n, _ in names] == list(inputs.TABLE1_SIZES)
    assert len({base for names in passes for _, base in names}) > inputs.TABLE1_PASSES


def test_serve_lists_follow_the_block_pattern():
    lists = inputs.serve_inputs(2)
    assert len(lists) == inputs.SERVE_CLIENTS
    first, second = lists
    assert inputs.SERVE_BLOCK.count("C") == inputs.SERVE_BLOCK.count("W")
    for i, (a, b) in enumerate(zip(first, second)):
        kind = {"C": "cold", "W": "warm", "D": "dedup"}[inputs.SERVE_BLOCK[i % len(inputs.SERVE_BLOCK)]]
        assert a["kind"] == b["kind"] == kind
        if kind == "dedup":
            assert a["scenario"] == b["scenario"]
    colds = [json.dumps(it["scenario"], sort_keys=True)
             for items in lists for it in items if it["kind"] == "cold"]
    assert len(set(colds)) == len(colds), "cold cells must be distinct"
    for items in lists:
        seen = set()
        for it in items:
            key = json.dumps(it["scenario"], sort_keys=True)
            if it["kind"] == "cold":
                seen.add(key)
            elif it["kind"] == "warm":
                assert key in seen, "a warm request repeats an earlier cold one"


# -- digest verdict ----------------------------------------------------- #

def test_digest_check_rejects_a_record_doctored_by_one_field():
    records = [{"serial": 1, "success": True, "rounds_total": 40},
               {"serial": 2, "success": True, "rounds_total": 412}]
    pins = {"table1": {"7": verdict.digest(records)}}
    assert verdict.check_digest("table1", 7, records, pins) is True
    reordered = [{k: r[k] for k in reversed(list(r))} for r in records]
    assert verdict.check_digest("table1", 7, reordered, pins) is True
    doctored = [dict(records[0]), dict(records[1], rounds_total=413)]
    assert verdict.check_digest("table1", 7, doctored, pins) is False
    assert verdict.check_digest("table1", 8, records, pins) is None


def test_pins_file_is_well_formed():
    pins = verdict.load_pins()
    assert set(pins) == {"table1", "seed_sweep", "serve"}
    for by_seed in pins.values():
        for seed, value in by_seed.items():
            assert int(seed) >= 0 and len(value) == 64


# -- self-time arithmetic ----------------------------------------------- #

def _span(id_, parent, start, end, layer, name="x", calls=1):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "layer": layer, "name": name, "run": 1, "calls": calls}


def test_self_times_on_a_nested_span_list():
    spans = [
        _span(1, None, 0.0, 10.0, "experiments"),   # root, 10s
        _span(2, 1, 1.0, 7.0, "core"),               # child of 1, 6s
        _span(3, 2, 2.0, 5.0, "sim", calls=300),     # aggregate under 2, 3s
        _span(4, 2, 5.5, 6.5, "mapping"),            # under 2, 1s
        _span(5, 1, 8.0, 9.5, "store"),              # under 1, 1.5s
        _span(6, None, 11.0, 12.0, "graphs"),        # second root, 1s
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 2.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5, 6: 1.0})
    by_layer = tracing.layer_self_times(spans)
    assert by_layer["experiments"] == pytest.approx(2.5)
    assert by_layer["core"] == pytest.approx(2.0)
    assert by_layer["serve"] == 0.0
    assert sum(by_layer.values()) == pytest.approx(tracing.root_time(spans)) == pytest.approx(11.0)
    assert tracing.top_layers(by_layer) == ["sim", "experiments", "core"]


def test_tracer_keeps_parents_and_folds_hot_leaves():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: None, "sim.step", "sim")

    def parent_body():
        for _ in range(5):
            leaf()

    parent = tracer.wrap(parent_body, "core.row1", "core")
    parent()
    parent()
    spans = tracer.spans()
    kept = [s for s in spans if s["name"] == "core.row1"]
    folded = [s for s in spans if s["name"] == "sim.step"]
    assert len(kept) == 2 and all(s["parent"] is None for s in kept)
    assert sorted(s["calls"] for s in folded) == [5, 5]
    assert {s["parent"] for s in folded} == {s["id"] for s in kept}
    own = tracing.self_times(spans)
    for s in kept:
        children = sum(tracing.duration(f) for f in folded if f["parent"] == s["id"])
        assert own[s["id"]] == pytest.approx(tracing.duration(s) - children)


# -- machine-speed scaling ---------------------------------------------- #

def test_reference_job_is_fixed():
    assert calibrate.reference_job() == calibrate.reference_job()


def test_speedometer_samples_in_its_own_process_and_stops_it():
    with calibrate.Speedometer(calibrate.usable_cpus()[0]) as speed:
        slowdown = speed.sample(reps=2)
        proc = speed._proc
        assert proc.pid != os.getpid() and proc.poll() is None
    assert proc.poll() is not None
    assert len(speed.times) == 2 and all(t > 0 for t in speed.times)
    assert slowdown == pytest.approx(sum(speed.times) / 2 / calibrate.NOMINAL_S)


def test_scaler_divides_by_the_slowdown_only_when_scaling():
    from perfbench.workloads import scaler

    assert 3.0 / scaler(True)(1.5) == pytest.approx(2.0)
    assert 3.0 / scaler(False)(1.5) == 3.0


# -- metric names ------------------------------------------------------- #

def test_metric_names_are_valid_and_declared_in_benchmark_json():
    declared = json.loads((BENCH_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert metrics.END_TO_END == e2e
    assert metrics.PER_LAYER == layer
    for name in list(e2e) + list(layer):
        assert metrics.NAME_RE.fullmatch(name), name
    assert {w["name"] for w in declared["workloads"]} == {"table1", "seed_sweep", "serve"}


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_prints_exactly_the_declared_metrics(trace):
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    values = {name: 1.5 for name in declared}
    line = json.loads(metrics.result_line(True, 10, 0, values, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(declared)
    for name, entry in line["metrics"].items():
        assert metrics.NAME_RE.fullmatch(name)
        assert entry == {"value": 1.5, "unit": declared[name]}
    with pytest.raises(ValueError):
        metrics.result_line(True, 10, 0, dict(values, undeclared=1.0), trace)


# -- refusing to run without the sources -------------------------------- #

def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
