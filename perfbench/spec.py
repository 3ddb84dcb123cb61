"""What the benchmark measures, and why.

This module is the single source of ``BENCHMARK.json`` (``run.py
--write-spec`` regenerates it) and of the rationale that file has no room
for: which layers each workload stresses and bypasses, what each
end-to-end metric means on each workload, and which end-to-end metric and
workload each per-layer metric should move.

Every workload reports every end-to-end metric, so the metric names are
workload-neutral and ``END_TO_END[...]["means"]`` says what each one
measures on each workload.  The workload-specific figures the metrics are
built from (``ingest_eps``, ``cluster_eps``, ``query_p95_ms``,
``staleness_p95_ms`` ...) are printed by every run, with their units and
sample counts, above the result line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Two workloads at 50 s make 48 runs of 55-90 s (the traced ones are
#: the longest), about 2900 s of the 3420 s the contract allows for all.
RUN_SECONDS = 50

STREAM_INGEST = "stream-ingest"
SERVICE_NDJSON = "service-ndjson"
WINDOW_MONITOR = "window-monitor"

#: Packet-flow traffic is the paper's motivating stream: duplicate-heavy
#: and scale-free, about a third of its records are first occurrences.
WORKLOADS: List[Dict[str, object]] = [
    {
        "name": STREAM_INGEST,
        "why": (
            "library path on a 250k packet-flow stream: batch, per-edge and "
            "2-worker cluster ingest; encode and kernel do most of the work"
        ),
        "stresses": [
            "core/interning", "hashing", "core/state", "core/adjacency",
            "core/kernel", "cluster/coordinator", "durability/wal",
        ],
        "bypasses": ["service", "streaming/monitor pane deltas"],
    },
    {
        "name": SERVICE_NDJSON,
        "why": (
            "estimation server on loopback TCP, 2 tenants, 2000-record NDJSON "
            "frames open- and closed-loop with queries beside writes"
        ),
        "stresses": [
            "service/protocol", "service/server", "service/session",
            "core/interning", "core/kernel", "durability/checkpoint",
        ],
        "bypasses": ["streaming/monitor pane deltas", "cluster"],
    },
]

#: Workloads run by hand only (``--workload window-monitor``), not listed
#: in ``BENCHMARK.json``.  Over ten seeds of 25 s runs the monitor's
#: latency_p50_ms spread up to 26% of its median, past its bound: the
#: host switches between a fast and a slow speed (the same dict loop took
#: 15 or 24 ms) for stretches of 10-60 s, so a run's median follows
#: whichever held more of it.  Only longer runs help, and three workloads
#: cannot have them inside the contract's time for all runs.  The monitor
#: is on no open ROADMAP item, so it was dropped; its layers are still
#: traced, in the traced stream-ingest run.
HAND_WORKLOADS: List[Dict[str, object]] = [
    {
        "name": WINDOW_MONITOR,
        "why": (
            "sliding 4-pane window monitor with default pane deltas over a "
            "100k-record trace; pane-delta take/merge dominates, not encode"
        ),
        "stresses": ["streaming/monitor", "core/state pane deltas"],
        "bypasses": ["service", "cluster"],
    },
]

#: ``bound``: share of the parent's median by which the metric may worsen.
#: Every value is as measured, unscaled.  The timing bounds are wide
#: because the benchmark box is a 2-vCPU VM on a shared host whose CPU
#: speed drifts: one batch-ingest pass on the same stream ran anywhere from
#: 330k to 700k records/s within one minute, in wall-clock and CPU time
#: alike.  Runs report medians over many passes, and stream-ingest
#: interleaves its three phases so that drift weighs on all of them alike.
#: The speed switches between two levels for stretches of 10-60 s, so
#: the runs are as long as the contract's time for all runs allows.
#:
#: Tail latencies (frame_ack_p95_ms, monitor_batch_p90_ms, the per-edge
#: p90) are printed with their sample counts but not gated: over ten runs
#: on this box the service's p90 frame ack ranged from 5 to 13 ms, an
#: inter-quartile spread of 78% of its median, beyond any allowed bound.
END_TO_END: List[Dict[str, object]] = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "means": {
            STREAM_INGEST: "fresh process: import, kernel resolve/load, "
                           "state set, 2 cluster workers spawned",
            SERVICE_NDJSON: "server process spawned until it listens and "
                            "both tenant sessions are open",
            WINDOW_MONITOR: "fresh process: import, kernel resolve/load, "
                            "monitor built",
        },
    },
    {
        "name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10,
        "means": {
            STREAM_INGEST: "peak RSS of the benchmark process hosting the library",
            SERVICE_NDJSON: "peak RSS of the server process",
            WINDOW_MONITOR: "peak RSS of the benchmark process hosting the monitor",
        },
    },
    {
        "name": "success_ratio", "unit": "ratio", "better": "higher", "bound": 0.01,
        "means": {
            STREAM_INGEST: "batch and cluster passes and per-edge process_edge "
                           "calls that returned over those made; a call that "
                           "raises is counted and the run goes on",
            SERVICE_NDJSON: "frames and queries answered ok over those sent; "
                            "1 - failed_ratio, a dropped frame counts as failed",
            WINDOW_MONITOR: "monitor ingest calls that returned over those made; "
                            "a call that raises is counted and the run goes on",
        },
    },
    {
        "name": "throughput_eps", "unit": "1/s", "better": "higher", "bound": 0.25,
        "means": {
            STREAM_INGEST: "ingest_eps: GroupStateSet.ingest_stream records/s, "
                           "65,536-record batches, median over passes",
            SERVICE_NDJSON: "service_eps: delivered records/s in the "
                            "closed-loop phase",
            WINDOW_MONITOR: "monitor_eps: records/s through "
                            "WindowedTriangleMonitor.ingest, median over passes",
        },
    },
    {
        "name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "means": {
            STREAM_INGEST: "one GroupStateSet.process_edge call (per-edge path), "
                           "averaged over blocks of 500 consecutive calls",
            SERVICE_NDJSON: "frame_ack_p50_ms: open-loop frame ack, timed "
                            "from the frame's due time",
            WINDOW_MONITOR: "one 2000-record monitor ingest call, window "
                            "closes included",
        },
    },
]


def _layer(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


_INGEST_RATE = [("throughput_eps", STREAM_INGEST)]
_SERVICE_RATE = [("throughput_eps", SERVICE_NDJSON)]
_SERVICE_ACK = [
    ("latency_p50_ms", SERVICE_NDJSON),
    ("frame_ack_p95_ms", SERVICE_NDJSON),
    ("staleness_p95_ms", SERVICE_NDJSON),
]
#: The monitor's figures, printed by its hand-run workload and by the
#: traced stream-ingest run, whose monitor phase traces these layers.
_MONITOR = [("monitor_eps", WINDOW_MONITOR), ("monitor_batch_p90_ms", WINDOW_MONITOR)]
#: A layer may move a figure a workload prints rather than a gated metric.
PRINTED_FIGURES = (
    "cluster_eps",
    "monitor_eps",
    "frame_ack_p95_ms",
    "query_p95_ms",
    "staleness_p95_ms",
    "monitor_batch_p90_ms",
)
_CLUSTER = [("cluster_eps", STREAM_INGEST)]

#: Per-layer metrics of the traced run.  A layer that a workload does not
#: exercise reports 0 there.  ``moves`` names the end-to-end metric and
#: workload a change in the layer should show up in.  The traced
#: stream-ingest run includes the monitor phase, so its state.first_ratio
#: counts the monitor's records too.
PER_LAYER: List[Dict[str, object]] = [
    _layer("interning.encode_pairs.calls", "count", "lower", _INGEST_RATE + _SERVICE_RATE),
    _layer("interning.encode_pairs.self_s", "s", "lower", _INGEST_RATE + _SERVICE_RATE),
    _layer("interning.edge_key_array.self_s", "s", "lower", _INGEST_RATE + _SERVICE_RATE),
    _layer("hashing.bucket_from_keys.self_s", "s", "lower", _INGEST_RATE),
    _layer("state.process_edges.self_s", "s", "lower", _INGEST_RATE + _SERVICE_RATE),
    _layer("state.process_encoded.calls", "count", "lower", _INGEST_RATE),
    _layer("state.process_encoded.self_s", "s", "lower", _INGEST_RATE),
    _layer("state.process_edge.self_s", "s", "lower",
           [("latency_p50_ms", STREAM_INGEST)]),
    _layer("state.first_ratio", "ratio", "higher", _INGEST_RATE),
    _layer("kernel.resolve_kernel.self_s", "s", "lower",
           [("setup_s", STREAM_INGEST), ("setup_s", WINDOW_MONITOR)]),
    _layer("state.estimate.calls", "count", "lower", _MONITOR),
    _layer("state.estimate.self_s", "s", "lower",
           [("query_p95_ms", SERVICE_NDJSON), ("monitor_batch_p90_ms", WINDOW_MONITOR)]),
    _layer("state.encode.self_s", "s", "lower", _MONITOR),
    _layer("state.ingest_encoded.self_s", "s", "lower", _MONITOR),
    _layer("state.take_pane_deltas.self_s", "s", "lower", _MONITOR),
    _layer("state.merge_pane_deltas.self_s", "s", "lower", _MONITOR),
    _layer("monitor.ingest.self_s", "s", "lower", _MONITOR),
    _layer("protocol.decode_line.calls", "count", "lower", _SERVICE_RATE),
    _layer("protocol.decode_line.self_s", "s", "lower", _SERVICE_RATE + _SERVICE_ACK),
    _layer("protocol.decode_line.bytes", "B", "lower", _SERVICE_RATE),
    _layer("protocol.encode_line.self_s", "s", "lower", _SERVICE_RATE),
    _layer("server.handle_request.self_s", "s", "lower", _SERVICE_RATE + _SERVICE_ACK),
    _layer("session.ingest_frame.calls", "count", "lower", _SERVICE_RATE),
    _layer("session.ingest_frame.self_s", "s", "lower", _SERVICE_RATE),
    _layer("session.records_per_apply", "count", "higher", _SERVICE_RATE),
    _layer("session.offer.wait_s", "s", "lower", _SERVICE_ACK),
    _layer("session.queue_wait_p95_ms", "ms", "lower", _SERVICE_ACK),
    _layer("session.queue_depth_max", "count", "lower", _SERVICE_ACK),
    _layer("session.checkpoint.calls", "count", "lower", _SERVICE_RATE),
    _layer("session.checkpoint.self_s", "s", "lower", _SERVICE_RATE),
    _layer("cluster.submit.calls", "count", "lower", _CLUSTER),
    _layer("cluster.submit.self_s", "s", "lower", _CLUSTER),
    _layer("cluster.wal_append.self_s", "s", "lower", _CLUSTER),
    _layer("cluster.estimate.self_s", "s", "lower", _CLUSTER),
    _layer("cluster.snapshot_rounds", "count", "lower", _CLUSTER),
    # The gen and trace rows describe the benchmark itself, not the program.
    _layer("gen.late_p95_ms", "ms", "lower", []),
    _layer("trace.overhead_ratio", "ratio", "lower", []),
    _layer("trace.covered_share", "ratio", "higher", []),
]


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``, whose key set is fixed."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


def write(root: Path) -> Path:
    """Regenerate ``BENCHMARK.json`` under ``root``."""
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
