"""The metric rules the benchmark reports by: percentiles, self time,
ε-coverage and output checking."""

import copy
import json
import os

import pytest

from checks import (
    compare_values,
    covered_time,
    eps_coverage,
    load_expected,
    percentile,
    self_times,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentile and sample-count rule ---------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 0.9) is None
    samples = list(range(100, 0, -1))          # 1..100, unsorted
    assert percentile(samples, 0.9) == 90      # nearest rank: 90th of 100


def test_p50_needs_twenty_samples():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile([], 0.5) is None


# -- self time ---------------------------------------------------------
def _span(sid, t0, t1, parent=None):
    return {"id": sid, "name": "x.y", "t0": t0, "t1": t1, "parent": parent}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 3.0, "root"),
             _span("b", 2.0, 5.0, "root"),   # overlaps a: a pool worker
             _span("c", 8.0, 9.0, "root"),
             _span("a1", 1.5, 2.5, "a")]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(2.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(1.0)


def test_covered_time_clips_to_the_span():
    assert covered_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)
    assert covered_time(2.0, 4.0, []) == 0.0


# -- ε-coverage --------------------------------------------------------
def _pt(ipc, transistors, delays):
    return {"ipc": ipc, "transistors": transistors, "gate_delays": delays}


def test_eps_coverage_against_a_hand_built_frontier():
    golden = [_pt(2.0, 100, 10), _pt(3.0, 200, 20), _pt(4.0, 400, 30),
              _pt(5.0, 800, 40)]
    found = [_pt(2.0, 100, 10),         # exact
             _pt(2.9, 190, 20),         # within 5% and cheaper: covers 3.0
             _pt(3.7, 400, 30),         # 7.5% short of 4.0: does not cover
             _pt(5.0, 800, 41)]         # one gate delay too slow
    assert eps_coverage(golden, found, 0.05) == pytest.approx(0.5)
    assert eps_coverage(golden, found, 0.10) == pytest.approx(0.75)
    assert eps_coverage(golden, golden) == 1.0
    with pytest.raises(ValueError):
        eps_coverage([], found)


# -- output checks and failed_frac ------------------------------------
def test_compare_values_counts_wrong_missing_and_extra_cells():
    expected = {"a": 1.0, "b": 2.0, "c": 3.0}
    assert compare_values(dict(expected), expected) == (0, [])
    failed, problems = compare_values({"a": 1.0, "b": 2.5, "d": 4.0}, expected)
    assert failed == 3 and len(problems) == 3


def test_corrupted_expected_value_counts_as_failed(monkeypatch):
    import workloads

    recorded = load_expected("paper")
    values = copy.deepcopy(recorded["seeds"]["1"])
    corrupted = copy.deepcopy(recorded)
    key = sorted(corrupted["seeds"]["1"]["fig10"])[0]
    corrupted["seeds"]["1"]["fig10"][key] += 1e-12
    config = workloads.Paper.config(1)
    machine = workloads.paper_machine()

    def check(data):
        monkeypatch.setattr(workloads, "load_expected", lambda name: data)
        return workloads._check_cells("paper", 1, values, config, machine)

    assert check(recorded) == (0, [])
    failed, problems = check(corrupted)
    assert failed == 1 and key in problems[0]
    attempted = sum(map(len, values.values()))
    assert 0 < failed / attempted < 1


# -- the benchmark's declared metrics ---------------------------------
def test_every_declared_per_layer_metric_is_produced():
    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    zero = {"codegen_compiles": 0, "codegen_disk_hits": 0, "codegen_compile_s": 0.0}
    produced = set(tracing.layer_metrics([], zero))
    produced |= {"table1_ipc_err", "search_eps_coverage", "search_cost_frac",
                 "trace.campaign_s", "trace.untraced_campaign_s",
                 "trace.overhead_frac"}
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == produced
