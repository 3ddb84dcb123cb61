"""Self-tests for the benchmark's own arithmetic and checks.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import inputs, spec
from perfbench.stats import TooFewSamples, percentile, staleness, summary
from perfbench.trace import Tracer, covered_share, layer_totals, self_times, union_length
from perfbench.workload import estimate_mismatch, interleave, passes

ROOT = Path(__file__).resolve().parents[1]


# -- percentile rule ----------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.90) == 90  # 10 samples (91..100) beyond
    with pytest.raises(TooFewSamples):
        percentile(samples[:99], 0.90)  # only 9 beyond
    assert percentile(list(range(20)), 0.50) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 0.50)


def test_summary_reports_only_supported_percentiles():
    out = summary(list(range(200)), (0.5, 0.9, 0.95, 0.99))
    assert out["n"] == 200
    assert set(out) == {"n", "p50", "p90", "p95"}  # p99 has 2 beyond


def test_passes_count_failures_instead_of_hiding_them():
    outcomes = iter([ValueError("boom"), (10.0, "a"), (20.0, "b")])

    def one_pass():
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    phase = passes(0.0, one_pass, min_passes=3)
    assert phase.rates == [10.0, 20.0]
    assert phase.failures == 1 and "boom" in phase.first_error
    assert phase.last == "b"
    with pytest.raises(RuntimeError, match="every pass failed"):
        passes(0.0, lambda: 1 / 0, min_passes=2)


def test_interleave_keeps_each_phase_at_its_share():
    order = []

    def phase(name, seconds):
        def one_pass():
            order.append(name)
            time.sleep(seconds)
            return 1.0, name
        return one_pass

    slow, fast = interleave(0.3, [(phase("slow", 0.02), 0.5, 1), (phase("fast", 0.005), 0.5, 6)])
    # Minimum passes come first, then the time splits by share, interleaved.
    assert order[:7] == ["slow"] + ["fast"] * 6
    assert slow.spent == pytest.approx(fast.spent, abs=0.03)
    assert "slow" in order[-8:] and "fast" in order[-8:]
    assert slow.last == "slow" and fast.last == "fast"


# -- staleness ----------------------------------------------------------------


def test_staleness_is_age_of_oldest_uncovered_due_frame():
    cumulative = [2000, 4000, 6000]
    due = [1.0, 2.0, 3.0]
    assert staleness(2.5, 2000, cumulative, due) == pytest.approx(0.5)
    assert staleness(2.5, 0, cumulative, due) == pytest.approx(1.5)
    # The oldest uncovered frame is not due yet: the answer is current.
    assert staleness(2.5, 4000, cumulative, due) == 0.0
    assert staleness(9.0, 6000, cumulative, due) == 0.0
    # Part of a frame is never applied, so a partial count covers only the
    # frames before it.
    assert staleness(3.5, 5999, cumulative, due) == pytest.approx(0.5)


# -- self time over nested spans -------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, 0),
        (2, "a", 1.0, 3.0, 1),
        (3, "b", 2.0, 5.0, 1),  # overlaps a: the union counts once
        (4, "leaf", 2.5, 4.5, 3),  # grandchild: reduces b, not root
        (5, "late", 9.0, 12.0, 1),  # outlives its parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[3] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(3.0)
    totals = layer_totals(spans)
    assert totals["root"] == (1, pytest.approx(5.0))
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered_share(spans, 0.0, 20.0) == pytest.approx(12.0 / 20.0)


class _Layered:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def serve(self):
        await asyncio.sleep(0)
        return self.inner(1)


def test_tracer_records_nesting_and_restores_originals():
    tracer = Tracer()
    original = _Layered.__dict__["outer"]
    tracer.wrap(_Layered, "outer", "x.outer")
    tracer.wrap(_Layered, "inner", "x.inner")
    tracer.wrap(_Layered, "serve", "x.serve")
    layered = _Layered()
    assert layered.outer(3) == 7
    assert asyncio.run(layered.serve()) == 2
    tracer.uninstall()
    assert _Layered.__dict__["outer"] is original
    spans = {name: (sid, parent) for sid, name, _s, _e, parent in tracer.spans if name != "x.inner"}
    inner_parents = sorted(parent for _sid, name, _s, _e, parent in tracer.spans if name == "x.inner")
    assert spans["x.outer"][1] == 0 and spans["x.serve"][1] == 0
    assert inner_parents == sorted([spans["x.outer"][0], spans["x.serve"][0]])
    assert json.loads(json.dumps(tracer.to_json()))["spans"]


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [inputs.ingest_stream, inputs.monitor_records, lambda seed: inputs.tenant_frames(seed, 1)],
    ids=["stream", "monitor", "tenant-frames"],
)
def test_same_seed_gives_byte_identical_inputs(make):
    first = inputs.digest(make(3))
    assert first == inputs.digest(make(3))
    assert first != inputs.digest(make(4))


def test_service_frames_are_sent_whole():
    # Frames are never trimmed to fit a line limit: every one holds the
    # full frame size, whatever its encoded length.
    frames = inputs.tenant_frames(3, 0)
    assert sum(map(len, frames)) == inputs.TENANT_RECORDS
    assert all(len(f) == inputs.FRAME_RECORDS for f in frames)


# -- correctness checks catch a perturbed reference -------------------------


def _small_estimate():
    from repro.core.config import ReptConfig
    from repro.core.state import GroupStateSet

    edges = inputs.ingest_stream(5)[:60000]
    state = GroupStateSet(ReptConfig(m=4, c=8, seed=7, track_local=True))
    state.ingest_stream(edges)
    return state.estimate(len(edges))


def test_estimate_mismatch_catches_a_perturbed_reference():
    want = _small_estimate()
    assert estimate_mismatch("same", _small_estimate(), want) is None
    assert estimate_mismatch("g", replace(want, global_count=want.global_count + 1), want)
    assert estimate_mismatch("s", replace(want, edges_stored=want.edges_stored - 1), want)
    node, value = next(iter(want.local_counts.items()))
    local = dict(want.local_counts)
    local[node] = value + 1
    assert "1 local counts differ" in estimate_mismatch("l", replace(want, local_counts=local), want)


def test_window_check_catches_a_perturbed_window():
    from repro.streaming.monitor import WindowedTriangleMonitor

    from perfbench import window_monitor

    records = inputs.monitor_records(5)[:6000]
    cfg = window_monitor.config()
    monitor = WindowedTriangleMonitor(window_seconds=200.0, slide_seconds=100.0, config=cfg)
    monitor.ingest(records)
    monitor.flush()
    windows = monitor.results
    assert window_monitor.check_windows(records, windows, cfg) == []
    bad = replace(windows[1], estimate=replace(windows[1].estimate, global_count=-1.0))
    problems = window_monitor.check_windows(records, [windows[0], bad], cfg)
    assert len(problems) == 1 and problems[0].startswith(f"window {bad.index}")


def test_service_check_catches_a_perturbed_answer():
    from perfbench import service_ndjson

    frames = inputs.tenant_frames(5, 0)[:3]
    acked = (0, 1, 2)
    nodes = service_ndjson._nodes(frames)[: service_ndjson.CHECK_NODES]
    glob, local = service_ndjson._reference(0, frames, acked, nodes)
    streams = [(frames, None)]
    good = [{"answers": {0: (dict(glob, ok=True), dict(local, ok=True), acked)}}]
    assert service_ndjson._check(good, streams) == []
    wrong = dict(glob, global_count=glob["global_count"] + 1)
    assert service_ndjson._check([{"answers": {0: (wrong, local, acked)}}], streams)
    # Answers that miss a frame the reference applied are caught too.
    assert service_ndjson._check([{"answers": {0: (glob, local, (0, 1))}}], streams)


# -- the committed BENCHMARK.json ------------------------------------------


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    moves = {metric for layer in spec.PER_LAYER for metric, _w in layer["moves"]}
    assert moves <= {m["name"] for m in spec.END_TO_END} | set(spec.PRINTED_FIGURES)
