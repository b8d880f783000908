"""Tests of the end-to-end benchmark's own arithmetic and of its clean exit.

Collected by the tier-1 run (``PYTHONPATH=src python -m pytest``); the
harness modules sit next to this file and are imported by name.
"""

import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import e2e_cli  # noqa: E402
import e2e_fixtures as fx  # noqa: E402
import e2e_workloads as wl  # noqa: E402
from e2e_stats import (  # noqa: E402
    Span,
    UnsupportedStatistic,
    median,
    median_over_ops,
    p95,
    self_time_by_name,
    self_times,
)

MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- the percentile and median rules ---------------------------------------


def test_p95_is_refused_below_200_samples():
    with pytest.raises(UnsupportedStatistic):
        p95(list(range(199)))
    # Nearest rank: 190 of 200 values are <= it, ten lie beyond.
    assert p95(list(range(1, 201))) == 190


def test_median_is_refused_below_20_samples():
    with pytest.raises(UnsupportedStatistic):
        median([1.0] * 19)
    assert median(list(range(20))) == 9.5


def test_median_over_ops_takes_each_op_once():
    # Pooled, the heavy op's three timings would drag the median to 9.
    samples = {"light": [1.0, 1.2, 50.0], "middle": [2.0], "heavy": [9.0, 9.0, 9.0]}
    assert median_over_ops(samples, minimum=7) == 2.0
    with pytest.raises(UnsupportedStatistic):
        median_over_ops(samples, minimum=8)


# -- span self time --------------------------------------------------------


def test_self_time_is_span_minus_what_children_cover():
    spans = [
        Span(0, None, 1, "op", 0.0, 10.0),
        Span(1, 0, 1, "stage", 1.0, 4.0),
        Span(2, 0, 1, "stage", 3.0, 6.0),      # overlaps its sibling
        Span(3, 0, 1, "rpc", 8.0, 12.0),       # sticks out of the parent
        Span(4, 1, 1, "rpc", 2.0, 3.0),        # grandchild: not the op's
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    grouped = self_time_by_name(spans)
    assert grouped["stage"] == [pytest.approx(5.0)]      # summed per op
    assert grouped["rpc"] == [pytest.approx(5.0)]


# -- op classification in the stream ---------------------------------------


def test_stream_reads_are_classed_by_what_preceded_them():
    spec = wl.WORKLOAD_BY_NAME["churn"]
    fixture = wl.build_fixture(spec, seed=0, scale=fx.SMOKE)
    try:
        run = wl.WorkloadRun(fixture, 0, 0.0, time.perf_counter() + 60, fx.SMOKE)
        target = run.targets[0]
        deployment = fixture.deployments[target.site_index]
        satellite = fixture.sites[0].satellites[target.query_index]
        kinds = run.rec.samples

        run.stream_read(target, after="read")     # first: a miss
        assert list(kinds["read_after_churn"]) == [(target, False)]
        run.stream_read(target, after="read")     # now cached
        assert list(kinds["read"]) == [target]
        run.stream_read(target, after="write")
        assert list(kinds["read_after_write"]) == [target]
        run.stream_read(target, after="coldscan")
        assert list(kinds["read_cold_scan"]) == [target]
        deployment.join(satellite)
        run.stream_read(target, after="churn")
        assert (target, True) in kinds["read_after_churn"]
        # A churn event that invalidates nothing leaves a plain read.
        other = run.targets[-1]
        run.stream_read(other, after="read")
        run.stream_read(other, after="churn")
        assert len(kinds["read"][other]) == 1
    finally:
        fixture.close()


def test_a_stream_over_several_sites_reads_each_through_its_own_deployment():
    # Every step must run on the deployment of its target's site: with
    # every read verified, a read served by another site's PDMS, a write
    # into its instances or a join in its catalogue is a mismatch.
    spec = replace(
        wl.WORKLOAD_BY_NAME["paper_reformulate"], phases=("stream",),
        lap={"read": 1, "write": 1, "churn": 2}, check_every=1,
    )
    scale = replace(fx.SMOKE, topology_seeds=(0, 1, 2))
    fixture = wl.build_fixture(spec, seed=0, scale=scale)
    try:
        assert len(fixture.deployments) == 3
        run = wl.WorkloadRun(fixture, 0, 0.0, time.perf_counter() + 60, scale)
        rec = run.run()
        assert run.stream_reads == 12 and rec.failed == 0, rec.failures
        assert rec.attempted > 2 * run.stream_reads        # each read was verified
        for deployment in fixture.deployments.values():
            assert deployment.service.stats_snapshot().misses >= 2   # its own joins and leaves
    finally:
        fixture.close()


# -- the command, end to end -----------------------------------------------


def run_main(capsys, *argv):
    status = e2e_cli.main(list(argv))
    return status, capsys.readouterr().out


def test_smoke_run_prints_every_metric_and_leaves_nothing_running(capsys):
    before = set(threading.enumerate())
    status, out = run_main(capsys, "--smoke", "--workload", "cluster_socket")
    assert status == 0, out
    assert "processes and threads left running: none" in out
    assert set(threading.enumerate()) <= before
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    printed = {name.partition("@")[0] for name in summary["metrics"]}
    declared = {m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    assert declared == printed
    for entry in MANIFEST["end_to_end"]:
        assert summary["metrics"][entry["name"] + "@cluster_socket"]["value"] > 0


def test_manifest_names_the_workloads_the_runner_has():
    assert [w["name"] for w in MANIFEST["workloads"]] == [s.name for s in wl.WORKLOADS]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])


def test_a_corrupted_reference_fails_ops_and_the_command(capsys, monkeypatch):
    honest = fx.reference_answer
    calls = []

    def corrupted(pdms, query, data):
        calls.append(query)
        rows = set(honest(pdms, query, data))
        return rows | {("corrupted", "row")} if len(calls) == 1 else rows

    monkeypatch.setattr(fx, "reference_answer", corrupted)
    status, out = run_main(capsys, "--smoke", "--workload", "query_mix", "--trace", "0")
    assert status != 0
    summary = json.loads(out.strip().splitlines()[-1])
    # Every read of the query with the corrupted reference fails.
    assert summary["failed"] >= 1 and not summary["correct"]
    assert "reference mismatch" in out
