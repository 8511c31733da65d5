"""Tests of the benchmark itself: span arithmetic, checks, the contract.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import contextlib
import dataclasses
import io
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import units  # noqa: E402
from repro.ddc.context import ExecutionContext  # noqa: E402

#: Small inputs, so every workload runs in a second or two.
TINY = dict(
    tpch_sf=0.5, graph_vertices=300, graph_degree=6,
    corpus_tokens=20_000, corpus_vocabulary=2_000,
    micro_space_mib=4, micro_accesses=2_000,
    sql_rows=2_000, sql_requests=2, mr_tokens=40_000, mr_splits=2,
    serve_graph_vertices=256, graph_requests=2, serve_cache_bytes=units.MIB // 4,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        page_call()
        page_call()
        clock.now += 3.0

    page_call = tracer.aggregated("mem", "leaf", leaf)
    operator = tracer.coarse("db", "middle", middle)
    with tracer.span("bench", "unit") as unit:
        clock.now += 0.5
        operator()
        clock.now += 4.0

    records = tracer.records
    assert records["mem:leaf"].calls == 2
    assert records["mem:leaf"].total == 2.0
    assert records["mem:leaf"].self == 2.0
    assert records["db:middle"].total == 7.0
    assert records["db:middle"].self == 5.0
    assert records["bench:unit"].self == 4.5
    assert unit.duration == 11.5
    assert tracer.self_total() == unit.duration
    assert tracer.layer_self() == {"mem": 2.0, "db": 5.0, "bench": 4.5}
    # Only coarse spans become trace events; the aggregated leaf does not.
    assert [event[0] for event in tracer.events] == ["middle", "unit"]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    wrapped = tracer.aggregated("sim", "failing", failing)
    with tracer.span("bench", "unit") as unit:
        with pytest.raises(ValueError):
            wrapped()
    assert tracer.stack == [unit.duration]
    assert tracer.records["sim:failing"].self == 1.0
    assert tracer.records["bench:unit"].self == 0.0


def test_chrome_trace_is_plain_json():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    with tracer.span("bench", "unit"):
        clock.now += 0.25
    trace = json.loads(json.dumps(tracer.chrome_trace({"workload": "x"})))
    (event,) = trace["traceEvents"]
    assert event["ph"] == "X" and event["cat"] == "bench"
    assert event["dur"] == 250000.0
    assert trace["rollup"][0]["name"] == "unit"


def test_patcher_restores_originals():
    originals = {name: ExecutionContext.__dict__[name] for name in instrument.ACCESS_METHODS}
    tracer, patcher = spans.Tracer(), spans.Patcher()
    instrument.install(tracer, patcher, run.ENTRY_POINTS)
    assert ExecutionContext.__dict__["touch_seq"] is not originals["touch_seq"]
    patcher.restore()
    for name, original in originals.items():
        assert ExecutionContext.__dict__[name] is original
    assert units.generate.__module__ == "repro.db.tpch.datagen"


def test_first_access_hook_removes_itself():
    originals = {name: ExecutionContext.__dict__[name] for name in instrument.ACCESS_METHODS}
    boundary = harness.FirstAccess()
    boundary.arm()
    from repro.ddc import make_platform

    platform = make_platform("local")
    process = platform.new_process()
    region = process.alloc_like("r", 1024, "int64")
    platform.main_context(process).touch_seq(region, 0, 1024)
    assert boundary.at is not None
    for name, original in originals.items():
        assert ExecutionContext.__dict__[name] is original


# ----------------------------------------------------------------------
# Every workload is correct at tiny sizes, traced or not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(units.WORKLOADS))
def test_workload_passes_its_checks_and_tracing_keeps_results(name):
    workload = units.WORKLOADS[name](3, TINY)
    base = harness.run_pass(workload)
    assert [r.error for r in base.failed] == []
    digests = {r.name: r.digest for r in base.records}
    tracer, patcher = spans.Tracer(), spans.Patcher()
    instrument.install(tracer, patcher, run.ENTRY_POINTS)
    try:
        traced = harness.run_pass(workload, tracer, first_digests=digests)
    finally:
        patcher.restore()
    assert [r.error for r in traced.failed] == []
    for record in traced.records:
        assert record.self_residual < 1e-9
    assert tracer.layer_self().get("ddc", 0.0) > 0.0


# ----------------------------------------------------------------------
# Wrong answers, exceptions and non-repeatable results count as failed
# ----------------------------------------------------------------------
def _corrupt_q6(outcome):
    outcome.answer["Q6"] += 1.0


def _corrupt_wordcount(outcome):
    key = next(iter(outcome.answer))
    outcome.answer[key] += 1


def _corrupt_serve(outcome):
    outcome.answer["completed"]["graph"] -= 1


def _corrupt_relaxed(outcome):
    outcome.answer = dataclasses.replace(outcome.answer, coherence_messages=10**9)


WRONG_ANSWERS = {
    "olap": ("olap/ddc", _corrupt_q6, "Q6"),
    "shuffle": ("shuffle/WC/teleport", _corrupt_wordcount, "WC"),
    "serve": ("serve/always/fair", _corrupt_serve, "graph"),
    "contention": ("contention/0.01/teleport_relaxed", _corrupt_relaxed, "coherence"),
}


class _Tampered(units.Workload):
    """A workload whose chosen unit returns a deliberately wrong answer."""

    def __init__(self, inner, target, corrupt):
        self.inner, self.target, self.corrupt = inner, target, corrupt

    def units(self):
        result = []
        for unit in self.inner.units():
            if unit.name == self.target:
                unit = dataclasses.replace(unit, run=self._wrong(unit.run))
            result.append(unit)
        return result

    def _wrong(self, run_unit):
        def run(state):
            outcome = run_unit(state)
            self.corrupt(outcome)
            return outcome
        return run

    def cross_check(self, outcomes):
        return self.inner.cross_check(outcomes)


@pytest.mark.parametrize("name", sorted(WRONG_ANSWERS))
def test_wrong_answer_is_counted_as_failed(name):
    target, corrupt, needle = WRONG_ANSWERS[name]
    workload = _Tampered(units.WORKLOADS[name](5, TINY), target, corrupt)
    result = harness.run_pass(workload)
    failed = {record.name: record.error for record in result.failed}
    assert target in failed
    assert needle in failed[target]


def test_exception_is_counted_as_failed():
    workload = units.Serve(5, TINY)

    def broken(state):
        raise RuntimeError("unit crashed")

    class Broken(units.Serve):
        def units(self):
            first, *rest = super().units()
            return [dataclasses.replace(first, run=broken)] + rest

    result = harness.run_pass(Broken(5, TINY))
    assert [r.error for r in result.failed] == ["RuntimeError: unit crashed"]
    assert len(result.records) == len(workload.units())


def test_result_that_does_not_repeat_is_counted_as_failed():
    workload = units.Serve(5, TINY)
    first = harness.run_pass(workload)
    digests = {r.name: r.digest for r in first.records}
    digests["serve/adaptive/fifo"] = "0" * 64
    again = harness.run_pass(workload, first_digests=digests)
    assert [r.name for r in again.failed] == ["serve/adaptive/fifo"]


def test_references_are_independent():
    src = units.np.array([0, 1, 1, 2, 3, 4])
    dst = units.np.array([1, 0, 2, 1, 4, 3])
    weight = units.np.array([1.0, 1.0, 2.5, 2.5, 1.0, 1.0])
    assert units.dijkstra(5, src, dst, weight, 0).tolist() == [0.0, 1.0, 3.5, float("inf"), float("inf")]
    assert units.component_labels(5, src, dst).tolist() == [0, 0, 0, 3, 3]
    corpus = units.np.array([3, 1, 3, 0, 3], dtype=units.np.int32)
    assert units.token_counts(corpus) == {0: 1, 1: 1, 3: 3}
    assert units.token_counts(corpus, range(2)) == {0: 1, 1: 1}


# ----------------------------------------------------------------------
# The command prints exactly the metrics BENCHMARK.json declares
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_matches_benchmark_json(trace, monkeypatch):
    monkeypatch.setattr(units, "SIZES", TINY)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = declared["end_to_end"] if trace == "0" else declared["per_layer"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "serve", "--seed", "2", "--seconds", "0",
                         "--trace", trace]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
