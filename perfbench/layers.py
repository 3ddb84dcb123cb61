"""Where the traced run wraps the program, and how spans become metrics.

Every workload installs the same wrap points; a layer a workload never
calls records no span and reports 0.  Worker-side cluster apply runs in
forked workers and is not traced here.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Dict, List, Optional

from perfbench import spec
from perfbench.stats import TooFewSamples, percentile
from perfbench.trace import Tracer, layer_totals


def _count_firsts(tracer, args, kwargs, result, start, end) -> None:
    firsts = result[2]
    if firsts is not None:
        tracer.counters["first_records"] += sum(firsts)
        tracer.counters["dedup_records"] += len(firsts)


def _count_window_firsts(tracer, args, kwargs, result, start, end) -> None:
    firsts = kwargs.get("firsts")
    if firsts is not None:
        tracer.counters["first_records"] += int(sum(firsts))
        tracer.counters["dedup_records"] += len(firsts)


def _count_bytes(tracer, args, kwargs, result, start, end) -> None:
    tracer.counters["decoded_bytes"] += len(args[0])


def _note_apply(tracer, args, kwargs, result, start, end) -> None:
    tracer.counters["applied_records"] += result
    tracer.series[f"apply:{id(args[0])}"].append(start)


def _note_enqueue(tracer, args, kwargs, result, start, end) -> None:
    tracer.series[f"enqueue:{id(args[0].engine)}"].append(end)
    depth = tracer.counters["queue_depth_max"]
    tracer.counters["queue_depth_max"] = max(depth, result["queued"])


def _note_snapshot_rounds(tracer, args, kwargs, result, start, end) -> None:
    tracer.counters["snapshot_rounds"] += args[0].counters["snapshot_rounds"]


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of the program."""
    import repro.core.kernel as kernel
    import repro.service.server as server
    from repro.cluster.coordinator import ElasticCoordinator
    from repro.core.adjacency import NativeProcessorGroup
    from repro.core.interning import NodeInterner
    from repro.core.state import GroupStateSet, ProcessorGroup
    from repro.durability.wal import BatchWAL
    from repro.hashing.base import EdgeHashFunction
    from repro.service.server import EstimationService
    from repro.service.session import ReptEngine, StreamSession
    from repro.streaming.monitor import WindowedTriangleMonitor

    wrap = tracer.wrap
    wrap(NodeInterner, "encode_pairs", "interning.encode_pairs", _count_firsts)
    wrap(NodeInterner, "edge_key_array", "interning.edge_key_array")
    wrap(EdgeHashFunction, "bucket_from_keys", "hashing.bucket_from_keys")
    wrap(ProcessorGroup, "process_encoded", "state.process_encoded")
    wrap(NativeProcessorGroup, "process_encoded", "state.process_encoded")
    wrap(kernel, "resolve_kernel", "kernel.resolve_kernel")
    wrap(GroupStateSet, "process_edges", "state.process_edges")
    wrap(GroupStateSet, "process_edge", "state.process_edge")
    wrap(GroupStateSet, "estimate", "state.estimate")
    wrap(GroupStateSet, "encode", "state.encode")
    wrap(GroupStateSet, "ingest_encoded", "state.ingest_encoded", _count_window_firsts)
    wrap(GroupStateSet, "take_pane_deltas", "state.take_pane_deltas")
    wrap(GroupStateSet, "merge_pane_deltas", "state.merge_pane_deltas")
    wrap(WindowedTriangleMonitor, "ingest", "monitor.ingest")
    wrap(ElasticCoordinator, "submit", "cluster.submit")
    wrap(ElasticCoordinator, "estimate", "cluster.estimate", _note_snapshot_rounds)
    wrap(BatchWAL, "append", "cluster.wal_append")
    wrap(server, "decode_line", "protocol.decode_line", _count_bytes)
    wrap(server, "encode_line", "protocol.encode_line")
    wrap(EstimationService, "handle_request", "server.handle_request")
    wrap(StreamSession, "offer", "session.offer", _note_enqueue)
    wrap(StreamSession, "checkpoint", "session.checkpoint")
    wrap(ReptEngine, "ingest_frame", "session.ingest_frame", _note_apply)


def merge_payloads(payloads: List[dict]) -> dict:
    """One payload from several processes' (span ids restart per process)."""
    spans: list = []
    counters: Dict[str, float] = defaultdict(float)
    series: Dict[str, list] = {}
    offset = 0
    for index, payload in enumerate(payloads):
        top = 0
        for sid, name, start, end, parent in payload["spans"]:
            spans.append((sid + offset, name, start, end, parent + offset if parent else 0))
            top = max(top, sid)
        offset += top
        for key, value in payload["counters"].items():
            if key == "queue_depth_max":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for key, values in payload["series"].items():
            kind, ident = key.split(":", 1)
            series[f"{kind}:{index}/{ident}"] = values
    return {"spans": spans, "counters": dict(counters), "series": series}


def queue_waits_ms(series: Dict[str, list]) -> list:
    """Enqueue-to-apply waits, matched first-in first-out per session."""
    waits = []
    for key, enqueued in series.items():
        if not key.startswith("enqueue:"):
            continue
        applied = series.get("apply:" + key.split(":", 1)[1], [])
        waits.extend((a - e) * 1000.0 for e, a in zip(enqueued, applied))
    return waits


def layer_metrics(payload: Dict[str, object], extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER`` from one trace payload."""
    totals = layer_totals(payload["spans"])
    counters = defaultdict(float, payload["counters"])
    values: Dict[str, float] = {}
    for name, (calls, self_s) in totals.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["session.offer.wait_s"] = totals.get("session.offer", (0, 0.0))[1]
    if counters["dedup_records"]:
        values["state.first_ratio"] = counters["first_records"] / counters["dedup_records"]
    values["protocol.decode_line.bytes"] = counters["decoded_bytes"]
    applies = totals.get("session.ingest_frame", (0, 0.0))[0]
    if applies:
        values["session.records_per_apply"] = counters["applied_records"] / applies
    waits = queue_waits_ms(payload["series"])
    if waits:
        try:
            values["session.queue_wait_p95_ms"] = percentile(waits, 0.95)
        except TooFewSamples as exc:
            print(f"session.queue_wait_p95_ms not reported: {exc}", file=sys.stderr)
    values["session.queue_depth_max"] = counters["queue_depth_max"]
    values["cluster.snapshot_rounds"] = counters["snapshot_rounds"]
    values.update(extra or {})
    return {m["name"]: float(values.get(m["name"], 0.0)) for m in spec.PER_LAYER}
