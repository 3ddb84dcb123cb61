"""service-ndjson: the estimation server in its own process on loopback TCP.

Each round starts a fresh server (``perfbench/serve.py``), opens two
tenants with the load generator's default engine and streams each
tenant's 250k-record trace as 2000-record timestamped NDJSON frames:

* **open loop** -- the first ``OPEN_FRAMES_PER_TENANT`` frames of each
  tenant go out on a fixed schedule at ``OPEN_LOOP_EPS`` records/s in
  aggregate, whatever the server does.  Each frame's ack is timed from its due time, and
  ``query_global``/``query_local`` requests are pipelined beside the
  frames at a fixed rate, ``QUERIES_PER_FRAME`` between consecutive frames.
* **closed loop** -- each connection sends a tenant's next frame when the
  previous one is acked, until the tenant's trace is exhausted; the phase
  ends when the server has applied every frame.

The generator is this one process with at most ``nproc`` connections.  A
frame that is refused or lost with a dropped connection counts as failed;
nothing is trimmed or re-sent.  After each round, every tenant's final answers must equal a library engine fed
exactly the acknowledged frames.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.serve import PEAK_RSS_PREFIX
from perfbench.stats import percentile, staleness, summary
from perfbench.workload import (
    Result, common_figures, figure, freeze_inputs, ms, percentile_figure,
)

TENANTS = 2
#: Aggregate open-loop offered rate (records/s): half the closed-loop
#: capacity (``service_eps``) measured on the reference box, a 2-vCPU VM,
#: where its median was 114k records/s over ten seeds and 123k over five
#: others.  It is fixed,
#: not derived from each run's capacity, so a faster server meets the same
#: offered load; every run prints the load it put on the server
#: (``open_loop_load``, offered rate over measured capacity).
OPEN_LOOP_EPS = 60_000.0
OPEN_FRAMES_PER_TENANT = 25
#: Queries sent between consecutive open-loop frames, alternating tenants
#: and global/local.
QUERIES_PER_FRAME = 2
QUERY_NODES = 8
CHECK_NODES = 400
READY_TIMEOUT_S = 60.0
PHASE_TIMEOUT_S = 60.0
#: Rounds are repeated while time is left, at least this often.
MIN_ROUNDS = 4


def _engine(tenant: int) -> dict:
    from repro.service.loadgen import DEFAULT_ENGINE

    spec = dict(DEFAULT_ENGINE)
    spec["seed"] = spec["seed"] + tenant  # independent sampling per tenant, as the loadgen does
    return spec


class Server:
    """One ``serve.py`` process and its announced endpoint."""

    def __init__(self, root: Path, workdir: str, trace_out: Optional[str]) -> None:
        from repro.service.artefacts import READY_PREFIX

        args = [sys.executable, str(root / "perfbench" / "serve.py"), workdir]
        if trace_out is not None:
            args.append(trace_out)
        self.started = time.perf_counter()
        self.process = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, cwd=root)
        readable, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline() if readable else ""
        if not line.startswith(READY_PREFIX):
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"server did not announce readiness: {line!r}")
        _prefix, self.host, port = line.split()
        self.port = int(port)

    def finish(self) -> float:
        """Stop the server and wait for it; returns its peak RSS (MB)."""
        self.process.terminate()
        try:
            out, _ = self.process.communicate(timeout=PHASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        for line in out.splitlines():
            if line.startswith(PEAK_RSS_PREFIX):
                return float(line.split()[1])
        raise RuntimeError("server exited without reporting its peak RSS")


class Connection:
    """One pipelined NDJSON connection; responses are matched by id."""

    def __init__(self) -> None:
        self.pending: Dict[int, asyncio.Future] = {}
        self.ids = 0

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        self.reader_task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self.pending.pop(response.get("id"), None)
                if future is not None:
                    future.set_result((time.perf_counter(), response))
        except (ConnectionError, ValueError):
            pass
        finally:
            for future in self.pending.values():
                future.set_result((time.perf_counter(), {"ok": False, "code": "connection-dropped"}))
            self.pending.clear()

    async def send(self, head: bytes, tail: bytes = b"}\n") -> asyncio.Future:
        """Write ``{"id": n, <head><tail>``; the future resolves to (time, response)."""
        self.ids += 1
        future = asyncio.get_running_loop().create_future()
        if self.reader_task.done():
            future.set_result((time.perf_counter(), {"ok": False, "code": "connection-dropped"}))
            return future
        self.pending[self.ids] = future
        try:
            self.writer.write(b'{"v":1,"id":%d,' % self.ids + head + tail)
            await self.writer.drain()
        except ConnectionError:
            self.pending.pop(self.ids, None)
            future.set_result((time.perf_counter(), {"ok": False, "code": "connection-dropped"}))
        return future

    async def call(self, op: str, **fields) -> dict:
        body = json.dumps({"op": op, **fields}, separators=(",", ":")).encode()[1:]
        _t, response = await (await self.send(body, b"\n"))
        return response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await self.reader_task


def _frame_bodies(frames: List[list]) -> List[bytes]:
    return [json.dumps(frame, separators=(",", ":")).encode() for frame in frames]


def _nodes(frames: List[list]) -> List[int]:
    """The nodes of a tenant's first frame: the ones its queries ask about."""
    return sorted({node for row in frames[0] for node in row[:2]})


class Tenant:
    def __init__(self, index: int, name: str, frames: List[list], bodies: List[bytes]) -> None:
        self.index = index
        self.name = name
        self.frames = frames
        self.bodies = bodies
        self.quoted = json.dumps(name).encode()
        self.head = b'"op":"ingest","tenant":%s,"records":' % self.quoted
        self.nodes = _nodes(frames)
        self.acked: List[int] = []
        self.failed = 0
        self.cumulative: List[int] = []  # records after each open-loop frame
        self.due: List[float] = []

    async def send_frame(self, conn: Connection, k: int) -> asyncio.Future:
        return await conn.send(self.head, self.bodies[k] + b"}\n")


async def _wait_delivered(control: Connection, tenants: List[Tenant]) -> None:
    """Poll until the server has applied every acknowledged frame."""
    deadline = time.perf_counter() + PHASE_TIMEOUT_S
    want = {t.name: sum(len(t.frames[k]) for k in t.acked) for t in tenants}
    while time.perf_counter() < deadline:
        stats = await control.call("stats")
        sessions = stats.get("sessions", {})
        if all(sessions.get(name, {}).get("delivered") == n for name, n in want.items()):
            return
        await asyncio.sleep(0.005)
    raise RuntimeError("server did not apply the acknowledged frames in time")


async def _open_loop(conns, owner, tenants, acks, queries, late) -> None:
    frame_gap = inputs.FRAME_RECORDS / OPEN_LOOP_EPS
    n_frames = OPEN_FRAMES_PER_TENANT * len(tenants)
    start = time.perf_counter() + 0.05
    items: Dict[int, list] = {id(c): [] for c in conns}
    for k in range(n_frames):
        tenant = tenants[k % len(tenants)]
        due = start + k * frame_gap
        index = k // len(tenants)
        tenant.cumulative.append(sum(len(f) for f in tenant.frames[: index + 1]))
        tenant.due.append(due)
        items[id(owner[tenant.index])].append((due, "frame", tenant, index))
        # Queries fall between frames, so no frame is systematically queued
        # behind a query issued at the same instant.
        for q in range(QUERIES_PER_FRAME):
            j = k * QUERIES_PER_FRAME + q
            asked = tenants[j % len(tenants)]
            kind = "global" if (j // len(tenants)) % 2 == 0 else "local"
            when = due + (q + 1) * frame_gap / (QUERIES_PER_FRAME + 1)
            items[id(owner[asked.index])].append((when, kind, asked, None))

    async def drive(conn: Connection):
        waits = []
        for due, kind, tenant, index in sorted(items[id(conn)], key=lambda item: item[0]):
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            if kind == "frame":
                future = await tenant.send_frame(conn, index)
            elif kind == "global":
                future = await conn.send(b'"op":"query_global","tenant":%s' % tenant.quoted)
            else:
                future = await conn.send(
                    b'"op":"query_local","tenant":%s,"nodes":%s'
                    % (tenant.quoted, json.dumps(tenant.nodes[:QUERY_NODES]).encode())
                )
            waits.append((future, due, kind, tenant, index))
        for future, due, kind, tenant, index in waits:
            done, response = await asyncio.wait_for(future, PHASE_TIMEOUT_S)
            ok = bool(response.get("ok")) and response.get("accepted", True)
            if kind == "frame":
                if ok:
                    tenant.acked.append(index)
                    acks.append(done - due)
                else:
                    tenant.failed += 1
            else:
                queries.append((done, due, ok, tenant, response.get("edges_processed", 0)))

    await asyncio.gather(*(drive(c) for c in conns))


async def _closed_loop(owner, tenants) -> None:
    async def drive(tenant: Tenant):
        conn = owner[tenant.index]
        for index in range(OPEN_FRAMES_PER_TENANT, len(tenant.frames)):
            future = await tenant.send_frame(conn, index)
            _done, response = await asyncio.wait_for(future, PHASE_TIMEOUT_S)
            if response.get("ok") and response.get("accepted", True):
                tenant.acked.append(index)
            else:
                tenant.failed += 1

    await asyncio.gather(*(drive(t) for t in tenants))


async def _round(server: Server, round_index: int, streams) -> dict:
    conns = [Connection() for _ in range(min(os.cpu_count() or 1, TENANTS))]
    control = Connection()
    for conn in conns + [control]:
        await conn.open(server.host, server.port)
    tenants = [
        Tenant(i, f"round{round_index}-tenant{i}", frames, bodies)
        for i, (frames, bodies) in enumerate(streams)
    ]
    for tenant in tenants:
        response = await control.call("open", tenant=tenant.name, engine=_engine(tenant.index))
        if not response.get("ok"):
            raise RuntimeError(f"open failed: {response}")
    ready = time.perf_counter()
    owner = {t.index: conns[t.index % len(conns)] for t in tenants}

    acks: List[float] = []
    queries: list = []
    late: List[float] = []
    await _open_loop(conns, owner, tenants, acks, queries, late)
    await _wait_delivered(control, tenants)
    closed_start = time.perf_counter()
    await _closed_loop(owner, tenants)
    await _wait_delivered(control, tenants)
    closed_end = time.perf_counter()
    closed_records = sum(
        len(t.frames[k]) for t in tenants for k in t.acked if k >= OPEN_FRAMES_PER_TENANT
    )

    sessions = (await control.call("stats"))["sessions"]
    checkpoints = [
        (sessions[t.name]["checkpoints_written"], sessions[t.name]["checkpoint_failures"])
        for t in tenants
    ]
    answers = {}
    for tenant in tenants:
        answers[tenant.index] = (
            await control.call("query_global", tenant=tenant.name),
            await control.call("query_local", tenant=tenant.name, nodes=tenant.nodes[:CHECK_NODES]),
            tuple(sorted(tenant.acked)),
        )
    for conn in conns + [control]:
        await conn.close()
    query_ok = [q for q in queries if q[2]]
    return {
        "setup_s": ready - server.started,
        "acks": acks,
        "late": late,
        "query_latency": [done - due for done, due, _ok, _t, _e in query_ok],
        "staleness": [
            staleness(done, edges, t.cumulative, t.due) for done, _d, _ok, t, edges in query_ok
        ],
        "frames": sum(len(t.frames) for t in tenants),
        "failed_frames": sum(t.failed for t in tenants),
        "queries": len(queries),
        "failed_queries": len(queries) - len(query_ok),
        "closed_eps": closed_records / (closed_end - closed_start),
        "answers": answers,
        "checkpoints": checkpoints,
        "window": (ready, closed_end),
    }


def _reference(tenant: int, frames: List[list], acked: Tuple[int, ...], nodes) -> Tuple[dict, dict]:
    """A library engine fed exactly the acknowledged frames, in order."""
    from repro.service.session import build_engine, validate_engine_spec

    engine = build_engine(validate_engine_spec(_engine(tenant)))
    for k in acked:
        engine.ingest_frame(frames[k])
    return engine.query_global(), engine.query_local(nodes)


def _check(rounds, streams) -> List[str]:
    """Every round's final answers against the library reference."""
    problems = []
    cache = {}
    for r, outcome in enumerate(rounds):
        for index, (glob, local, acked) in outcome["answers"].items():
            frames = streams[index][0]
            key = (index, acked)
            if key not in cache:
                cache[key] = _reference(index, frames, acked, _nodes(frames)[:CHECK_NODES])
            want_global, want_local = cache[key]
            got_global = {k: glob.get(k) for k in want_global}
            got_local = {k: local.get(k) for k in want_local}
            if got_global != want_global:
                problems.append(f"round {r} tenant {index}: global {got_global} != {want_global}")
            if got_local != json.loads(json.dumps(want_local)):
                problems.append(f"round {r} tenant {index}: local counts differ from the reference")
    return problems


def _rounds(root, seed, seconds, workdir, traces, min_rounds=MIN_ROUNDS):
    streams = []
    for tenant in range(TENANTS):
        frames = inputs.tenant_frames(seed, tenant)
        streams.append((frames, _frame_bodies(frames)))
    freeze_inputs()
    rounds = []
    begin = time.perf_counter()
    while True:
        index = len(rounds)
        trace_out = None
        if traces is not None:
            trace_out = os.path.join(workdir, f"trace-{index}.json")
            traces.append(trace_out)
        server = Server(root, tempfile.mkdtemp(dir=workdir), trace_out)
        try:
            outcome = asyncio.run(_round(server, index, streams))
        except BaseException:
            server.process.kill()
            server.process.wait()
            raise
        outcome["peak_rss_mb"] = server.finish()
        rounds.append(outcome)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > seconds:
            break
    return rounds, streams


def run(root: Path, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    result = Result()
    traces: Optional[List[str]] = [] if trace else None
    if trace:
        # Untraced closed-loop capacity of the same rounds, for the overhead ratio.
        plain, _ = _rounds(root, seed, seconds / 4, workdir, None, min_rounds=1)
        plain_eps = median([r["closed_eps"] for r in plain])
    rounds, streams = _rounds(root, seed, seconds, workdir, traces)

    setups = [r["setup_s"] for r in rounds]
    acks = ms([a for r in rounds for a in r["acks"]])
    frames = sum(r["frames"] for r in rounds)
    failed_frames = sum(r["failed_frames"] for r in rounds)
    queries = sum(r["queries"] for r in rounds)
    failed_queries = sum(r["failed_queries"] for r in rounds)
    result.attempted = frames + queries
    result.failed = failed_frames + failed_queries
    # A failed frame misses every latency limit.
    acks += [float("inf")] * failed_frames
    service_eps = median([r["closed_eps"] for r in rounds])
    result.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "success_ratio": (result.attempted - result.failed) / result.attempted,
        "throughput_eps": service_eps,
        "latency_p50_ms": percentile(acks, 0.50),
    }
    query_ms = ms([q for r in rounds for q in r["query_latency"]])
    stale_ms = ms([s for r in rounds for s in r["staleness"]])
    late_ms = ms([x for r in rounds for x in r["late"]])
    result.figures += [
        figure("service_eps", service_eps, "1/s", len(rounds)),
        figure("service_eps_per_round", [r["closed_eps"] for r in rounds], "1/s"),
        figure("open_loop_load", OPEN_LOOP_EPS / service_eps, "ratio"),
        percentile_figure("frame_ack_p50_ms", acks, 0.50),
        percentile_figure("frame_ack_p95_ms", acks, 0.95),
        percentile_figure("query_p50_ms", query_ms, 0.50),
        percentile_figure("query_p95_ms", query_ms, 0.95),
        percentile_figure("staleness_p95_ms", stale_ms, 0.95),
        figure("gen_late_ms", summary(late_ms, (0.5, 0.9, 0.95, 0.99)), "ms"),
        figure("checkpoints_written_failed", [r["checkpoints"] for r in rounds], "count"),
    ] + common_figures(result, setups)
    result.problems += _check(rounds, streams)
    if trace:
        payloads = [json.loads(Path(p).read_text()) for p in traces]
        result.trace_payloads = payloads
        result.trace_window = [r["window"] for r in rounds]
        result.trace_extra = {
            "gen.late_p95_ms": percentile(late_ms, 0.95),
            "trace.overhead_ratio": plain_eps / service_eps,
        }
    return result
