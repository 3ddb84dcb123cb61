"""stream-ingest: the library path on a 250k-record packet-flow stream.

Three phases share one stream and one configuration (m=16, c=32,
tabulation hashing, local counts, kernel ``auto``):

* **batch** -- ``GroupStateSet.ingest_stream`` in 65,536-record batches,
  a fresh state set per pass; the single-threaded baseline.
* **per-edge** -- ``GroupStateSet.process_edge`` over a prefix of the
  stream, timed per block of ``SCALAR_BLOCK`` calls; the kernel used per
  edge instead of per batch.
* **cluster** -- ``run_rept(backend="chunked-elastic", max_workers=2)``,
  the elastic shard-worker runtime.

The phases' passes are interleaved over the whole run (see
``workload.interleave``), so the box's speed drifting during the run
weighs on all three alike.  Every estimate must be bit-identical to the
``kernel="python"`` reference over the same records.

The traced run adds a fourth phase after them: the window monitor's
passes (``window_monitor.MonitorPasses``), so that the pane-delta layers
are traced although ``window-monitor`` is not a workload of
``BENCHMARK.json``.  Its windows are checked like that workload's.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

from perfbench import inputs, window_monitor
from perfbench.stats import peak_rss_mb, percentile, summary
from perfbench.workload import (
    Result, common_figures, estimate_mismatch, figure, freeze_inputs, interleave, ms, passes,
    probe_setup,
)

BATCH_RECORDS = 65_536
SCALAR_PREFIX = 20_000
#: Per-edge calls are timed in blocks: single calls of ~30 us split into a
#: fast and a slow mode whose mix, and so the median, the host's drift moves.
SCALAR_BLOCK = 500
CLUSTER_WORKERS = 2
#: Shares of the measured time given to the batch, per-edge and cluster phases.
PHASE_SHARES = (0.6, 0.2, 0.2)
#: Share of ``--seconds`` the traced run gives the monitor phase.
MONITOR_SHARE = 0.25
SETUP_SAMPLES = 5


def config(kernel: str = "auto"):
    from repro.core.config import ReptConfig

    return ReptConfig(m=16, c=32, seed=7, hash_kind="tabulation", track_local=True, kernel=kernel)


def build_system():
    """Bring the system to ready in this process; returns its closer."""
    from repro.cluster import ElasticCoordinator
    from repro.core.state import GroupStateSet

    cfg = config()
    GroupStateSet(cfg)
    coordinator = ElasticCoordinator(cfg, num_workers=CLUSTER_WORKERS)
    return coordinator.close


def run(root: Path, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    from repro.core.parallel import run_rept
    from repro.core.state import GroupStateSet

    result = Result()
    edges = inputs.ingest_stream(seed)
    prefix = edges[:SCALAR_PREFIX]
    monitor = window_monitor.MonitorPasses(seed) if trace else None
    freeze_inputs()
    cfg = config()

    def batch_pass():
        state = GroupStateSet(cfg)
        started = time.perf_counter()
        state.ingest_stream(edges, batch_edges=BATCH_RECORDS)
        elapsed = time.perf_counter() - started
        return len(edges) / elapsed, state

    #: Seconds per call, one list per per-edge pass, one entry per block.
    latencies = []
    edge_failures = []  # the exception of every per-edge call that raised

    def scalar_pass():
        state = GroupStateSet(cfg)
        process_edge = state.process_edge
        times = []
        clock = time.perf_counter
        started = clock()
        for first in range(0, len(prefix), SCALAR_BLOCK):
            t0 = clock()
            for u, v in prefix[first : first + SCALAR_BLOCK]:
                try:
                    process_edge(u, v)
                except Exception as exc:  # counted, not hidden: see success_ratio
                    edge_failures.append(repr(exc))
            times.append((clock() - t0) / SCALAR_BLOCK)
        elapsed = clock() - started
        latencies.append(times)
        return len(prefix) / elapsed, state

    def cluster_pass():
        started = time.perf_counter()
        estimate = run_rept(edges, cfg, backend="chunked-elastic", max_workers=CLUSTER_WORKERS)
        elapsed = time.perf_counter() - started
        return len(edges) / elapsed, estimate

    # Warm-up, untimed: the first cluster run pays one-off imports.
    cluster_pass()
    tracer = None
    if trace:
        plain_eps = median(passes(seconds / 4 * PHASE_SHARES[0], batch_pass).rates)
        from perfbench.layers import install
        from perfbench.trace import Tracer

        tracer = Tracer()
        install(tracer)
    started = time.perf_counter()
    try:
        # Three per-edge passes (120 blocks) support the printed p90.
        phase_runs = interleave(seconds, [
            (batch_pass, PHASE_SHARES[0], 2),
            (scalar_pass, PHASE_SHARES[1], 3),
            (cluster_pass, PHASE_SHARES[2], 2),
        ])
        if monitor is not None:
            monitor_run = passes(seconds * MONITOR_SHARE, monitor.one_pass, min_passes=1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured = (started, time.perf_counter())
    batch, scalar, cluster = phase_runs
    rss = peak_rss_mb()

    setups = probe_setup(root, "stream-ingest", SETUP_SAMPLES)
    lat_ms = ms([t for times in latencies for t in times])
    ingest_eps = median(batch.rates)
    per_edge_eps = median(scalar.rates)
    cluster_eps = median(cluster.rates)
    # One operation per batch or cluster pass and per per-edge call.
    result.attempted = (
        len(batch.rates) + batch.failures + len(lat_ms) * SCALAR_BLOCK + scalar.failures
        + len(cluster.rates) + cluster.failures
    )
    result.failed = batch.failures + len(edge_failures) + scalar.failures + cluster.failures
    result.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "success_ratio": (result.attempted - result.failed) / result.attempted,
        "throughput_eps": ingest_eps,
        "latency_p50_ms": percentile(lat_ms, 0.50),
    }
    errors = [p.first_error for p in phase_runs if p.first_error] + edge_failures[:1]
    result.figures += [
        figure("ingest_eps", ingest_eps, "1/s", len(batch.rates)),
        figure("ingest_eps_per_pass", batch.rates, "1/s"),
        figure("per_edge_eps", per_edge_eps, "1/s", len(scalar.rates)),
        figure("per_edge_call_ms", summary(lat_ms, (0.5, 0.9, 0.99)), "ms"),
        figure("cluster_eps", cluster_eps, "1/s", len(cluster.rates)),
    ] + common_figures(result, setups)
    result.figures += [figure("first_failure", e, "") for e in errors[:1]]

    # Correctness, untimed: the pure-Python reference over the same records.
    reference = GroupStateSet(config(kernel="python"))
    reference.ingest_stream(prefix)
    want_prefix = reference.estimate(len(prefix))
    reference.ingest_stream(edges[len(prefix):])
    want = reference.estimate(len(edges))
    checks = [
        ("batch", batch.last.estimate(len(edges)), want),
        ("per-edge", scalar.last.estimate(len(prefix)), want_prefix),
        ("cluster", cluster.last, want),
    ]
    for label, got, expected in checks:
        problem = estimate_mismatch(label, got, expected)
        if problem:
            result.problems.append(problem)

    if monitor is not None:
        result.attempted += monitor.attempted(monitor_run)
        result.failed += monitor.failed(monitor_run)
        result.figures += monitor.figures(monitor_run)
        result.problems += monitor.problems(monitor_run)

    if tracer is not None:
        result.trace_payloads = [tracer.to_json()]
        result.trace_window = [measured]
        result.trace_extra = {"trace.overhead_ratio": plain_eps / ingest_eps}
    return result
