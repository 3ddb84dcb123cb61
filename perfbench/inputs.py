"""Seeded workload inputs: the same seed gives byte-identical inputs."""

from __future__ import annotations

import hashlib
import json
from typing import List, Tuple

STREAM_RECORDS = 250_000
TENANT_RECORDS = 250_000
MONITOR_RECORDS = 100_000
FRAME_RECORDS = 2000


def _seed(seed: int, *tokens) -> int:
    from repro.utils.rng import derive_seed

    return derive_seed(seed, "perfbench", *tokens)


def ingest_stream(seed: int) -> List[Tuple[int, int]]:
    """The stream-ingest edge stream (packet flows, ~34% first occurrences)."""
    from repro.generators.traffic import packet_flow_stream

    return packet_flow_stream(STREAM_RECORDS, seed=_seed(seed, "stream-ingest")).edges()


def tenant_frames(seed: int, tenant: int) -> List[List[list]]:
    """One service tenant's stream as 2000-record ``[u, v, t]`` frames."""
    from repro.generators.traffic import packet_flow_records

    records = packet_flow_records(TENANT_RECORDS, seed=_seed(seed, "service", tenant))
    rows = [[r.u, r.v, r.time] for r in records]
    return [rows[i : i + FRAME_RECORDS] for i in range(0, len(rows), FRAME_RECORDS)]


def monitor_records(seed: int) -> List[Tuple[int, int, float]]:
    """The window-monitor trace as ``(u, v, t)`` in timestamp order."""
    from repro.generators.traffic import packet_flow_records

    records = packet_flow_records(MONITOR_RECORDS, seed=_seed(seed, "window-monitor"))
    return [(r.u, r.v, r.time) for r in records]


def digest(value) -> str:
    """SHA-256 of a JSON-serialisable input, for byte-identity checks."""
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()
