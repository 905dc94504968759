"""The benchmark's own tests: every workload runs briefly, emits every
metric with its unit, checks its answers, and repeats its layer counts
exactly for the same seed.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import COUNTERS
from perfbench.report import END_TO_END, PER_LAYER, quantile
from perfbench.spans import SpanRecorder
from perfbench.world import (LIVE_SHAPE, SELECTIVITY, AnswerChecker,
                             apply_write, build_scenario, read_templates)

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("live_mixed", "wire_fleet", "store_churn")
SMOKE_SECONDS = "2"


def run_bench(workload: str, trace: int, seed: int = 3,
              cwd: Path = ROOT) -> tuple[dict | None, str, int]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace",
         str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = completed.stdout.strip().splitlines()
    result = None
    if completed.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return result, completed.stdout, completed.returncode


@pytest.fixture(scope="module")
def runs():
    """One untraced and two traced smoke runs per workload."""
    return {(workload, trace, take): run_bench(workload, trace)
            for workload in WORKLOADS
            for trace, take in ((0, 0), (1, 0), (1, 1))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(runs, workload):
    result, stdout, code = runs[(workload, 0, 0)]
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_with_units(runs, workload):
    result, stdout, code = runs[(workload, 1, 0)]
    assert code == 0, stdout
    assert result["correct"] is True
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_for_the_same_seed(runs, workload):
    first = runs[(workload, 1, 0)][0]["metrics"]
    second = runs[(workload, 1, 1)][0]["metrics"]
    counts = {name: first[name]["value"] for name in COUNTERS}
    assert counts == {name: second[name]["value"] for name in COUNTERS}
    assert counts["extractor.rules"] > 0
    assert counts["instances.entities"] > 0


def test_layers_doing_work_are_measured(runs):
    def metrics(workload):
        return {name: metric["value"] for name, metric
                in runs[(workload, 1, 0)][0]["metrics"].items()}

    live, wire, store = (metrics(name) for name in WORKLOADS)
    assert live["instances.serialize_ms"] > 0
    assert live["cluster.execute_ms"] == 0 and live["store.serve_ms"] == 0
    assert store["store.hit_ratio"] == 1.0
    assert store["store.refreshed_per_write"] == 1.0
    assert store["store.refresh_ms"] > 0
    assert wire["cluster.item_ms"] > 0 and wire["server.handle_ms"] > 0
    assert wire["sources.partner_wait_ms"] > 0
    assert wire["query.queries_per_scan"] == 4.0


def test_lowest_wire_rate_has_no_failures(runs):
    _result, stdout, code = runs[("wire_fleet", 0, 0)]
    assert code == 0, stdout
    phases = [line for line in stdout.splitlines()
              if line.startswith("# phase rate=")]
    assert phases, stdout
    assert " failed=0 " in phases[0]
    assert "meets_limit=True" in phases[0]


def test_refuses_to_run_without_the_middleware(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result, stdout, code = run_bench("live_mixed", 0, cwd=tmp_path)
    assert code != 0
    assert result is None and not stdout.strip()


def test_templates_span_none_to_all_and_match_live_answers():
    scenario = build_scenario(LIVE_SHAPE, 11)
    templates = read_templates(scenario, 11)
    checker = AnswerChecker(scenario)
    sizes = [len(checker.expected(templates[name])) for name in SELECTIVITY]
    assert sizes[0] == 0 and sizes[-1] == LIVE_SHAPE[1]
    assert sizes == sorted(sizes)
    s2s = scenario.build_middleware()
    try:
        for name in SELECTIVITY:
            assert checker.check(templates[name],
                                 s2s.query(templates[name].text))
        org = scenario.organizations[1]
        apply_write(scenario, org, "ZZ00001")
        checker.countries[org.source_id] = "ZZ00001"
        assert checker.check_written(s2s.query(templates["all"].text),
                                     org.source_id)
    finally:
        s2s.close()


def test_self_time_subtracts_children():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(1000))

    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner")
    Layer().outer()
    recorder.restore()
    assert [span.name for span in recorder.spans] == ["inner", "inner",
                                                       "outer"]
    own = recorder.self_times()
    inclusive = recorder.inclusive_times()
    assert own["inner"] == pytest.approx(inclusive["inner"])
    assert own["outer"] == pytest.approx(inclusive["outer"]
                                         - inclusive["inner"])


def test_wrappers_restore_the_original():
    class Layer:
        def work(self, value):
            return value * 2

    original = Layer.__dict__["work"]
    recorder = SpanRecorder()
    recorder.wrap(Layer, "work", "layer.work",
                  on_result=lambda rec, span, args, result: rec.count(
                      "layer.results", result))
    assert Layer().work(21) == 42
    recorder.restore()
    assert Layer.__dict__["work"] is original
    assert [span.name for span in recorder.spans] == ["layer.work"]
    assert recorder.counts == {"layer.results": 42}


def test_quantile_interpolates():
    assert quantile(list(range(1, 102)), 0.9) == pytest.approx(91.0)
    assert quantile([5.0], 0.9) == 5.0
