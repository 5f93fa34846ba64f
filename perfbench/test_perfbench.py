"""Tests of the benchmark harness itself: output checks, launch accounting
and the span arithmetic.  Each launches at most a few small processes."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import checks
import nsq_trace
import pytest
import run

ROOT = Path(__file__).resolve().parents[1]
REF = checks.Reference.load(ROOT / "src" / "nsq" / "data")
ENV = {k: v for k, v in os.environ.items() if k != "NSQ_THREADS"} | {"PYTHONPATH": str(ROOT / "src")}
SEARCH_8 = run.Workload(
    (("search", "--n", "8", "--tag-golay", "--threads", "1"),), run._search_check(8, True)
)


def _deadline() -> float:
    return time.perf_counter() + 60


def _timed(workload, ref, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    launches, metrics = run.timed_run(workload, ref, ENV, run.random.Random(0), 0, _deadline())
    return launches, metrics


def test_correct_output_passes(monkeypatch):
    launches, metrics = _timed(SEARCH_8, REF, monkeypatch)
    assert [launch.kind for launch in launches].count("workload") == 1
    assert all(launch.failure is None for launch in launches)
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_wrong_expectation_is_counted_as_failed(monkeypatch):
    counts = dict(REF.counts)
    counts[8] = (7, 5, 2)  # deliberately wrong: the table says 6 Golay type, 1 sporadic
    wrong = dataclasses.replace(REF, counts=counts)
    launches, _ = _timed(SEARCH_8, wrong, monkeypatch)
    failures = [launch.failure for launch in launches if launch.failure]
    assert len(failures) == 1
    assert "G/S totals 6/1, reference 5/2" in failures[0]


def test_launch_past_deadline_is_killed():
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    result, wall, _, _ = run._spawn(argv, ENV, time.perf_counter() + 0.3)
    assert result.returncode < 0 and wall < 10


def test_traced_run_records_spans_and_outputs():
    commands = [("search", "--n", "7", "--threads", "1")]
    launch = run.run_commands(
        "traced",
        [("t", json.dumps(commands))],
        lambda ref, results: None,
        REF,
        ENV,
        _deadline(),
        program=(str(run.HERE / "nsq_trace.py"),),
    )
    payload = json.loads(launch.results[0].stdout)
    assert checks.check_search(REF, 7, False, checks.Result(**payload["outputs"][0])) is None
    metrics = nsq_trace.layer_metrics(payload["spans"], payload["counts"])
    assert metrics["engine.run_search_calls"] == 1
    assert metrics["engine.leaves"] == metrics["search.records"] == 4
    assert metrics["core.is_normal_calls"] == 4
    assert metrics["golay.count_calls"] == 0
    assert metrics["search.enumerate_s"] > metrics["engine.run_search_s"] > 0


def test_tracer_restores_every_wrapped_name():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in nsq_trace.WRAPS}
    tracer = nsq_trace.Tracer("t")
    tracer.install()
    try:
        assert all(getattr(importlib.import_module(m), a) is not before[m, a] for m, a in before)
    finally:
        tracer.restore()
    assert all(getattr(importlib.import_module(m), a) is before[m, a] for m, a in before)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, None, "r"],
        ["search.enumerate", 1.0, 9.0, 0, "r"],
        ["engine.run_search", 2.0, 7.0, 1, "r"],
        ["core.is_normal", 7.5, 8.0, 1, "r"],
    ]
    metrics = nsq_trace.layer_metrics(spans, {"engine.leaves": 3})
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["search.self_s"] == pytest.approx(2.5)
    assert metrics["engine.self_s"] == pytest.approx(5.0)
    assert metrics["core.is_normal_calls"] == 1 and metrics["engine.leaves"] == 3
    assert metrics["golay.pairs"] == 0


def test_benchmark_lists_only_computed_metrics():
    spec = json.loads(run.SPEC_FILE.read_text())
    run_level = {"cli.import_s", "trace.overhead_s", "search.pool_busy", "search.pool_speedup"}
    computed = set(nsq_trace.layer_metrics([], {})) | run_level
    assert {m["name"] for m in spec["per_layer"]} <= computed
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize(
    "check, stdout",
    [
        (lambda r: checks.check_golay_count(REF, 20, r), "33\n"),
        (lambda r: checks.check_verify_tables(REF, r), "[FAIL] n=5 row 1 normal: x\n# verified 167 rows\n"),
        (lambda r: checks.check_verify_relations(r), "n=4 FAIL: swap_cd commutes with negate_aa\n"),
        (lambda r: checks.check_search(REF, 19, False, r), "1 1168186360 6643551211\n"),
    ],
)
def test_wrong_outputs_are_rejected(check, stdout):
    assert check(checks.Result(0, stdout)) is not None
    assert check(checks.Result(1, "")) is not None


def test_directory_without_source_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ns20", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
