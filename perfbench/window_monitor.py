"""window-monitor: a sliding-window triangle monitor over a packet trace.

``WindowedTriangleMonitor`` with its defaults (pane deltas kept), m=16,
c=32 and local counts, runs a 4-pane window sliding one pane at a time
over a 100k-record ``packet_flow_records`` trace (12 panes of 300 s), fed
in batches of the service's frame size.  Each ingest call is timed,
window closes included.  Every window the monitor reports must equal a
from-scratch ``GroupStateSet`` over that window's records.

The monitor is not a workload of ``BENCHMARK.json``; run it by hand with
``--workload window-monitor``.  Its layers are traced in the traced
``stream-ingest`` run, which adds :class:`MonitorPasses` as a phase.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median
from typing import List

from perfbench import inputs
from perfbench.stats import peak_rss_mb, percentile, summary
from perfbench.workload import (
    Phase, Result, common_figures, estimate_mismatch, figure, freeze_inputs, ms, passes,
    percentile_figure, probe_setup,
)

PANE_S = 300.0
WINDOW_PANES = 4
SETUP_SAMPLES = 5


def config():
    from repro.core.config import ReptConfig

    return ReptConfig(m=16, c=32, seed=7, track_local=True)


def build_system():
    """Bring the system to ready in this process; returns its closer."""
    from repro.streaming.monitor import WindowedTriangleMonitor

    WindowedTriangleMonitor(
        window_seconds=WINDOW_PANES * PANE_S, slide_seconds=PANE_S, config=config()
    )
    return lambda: None


def check_windows(records, windows, cfg) -> List[str]:
    """Every window against a from-scratch state set over its records."""
    from repro.core.state import GroupStateSet

    problems = [] if windows else ["the monitor reported no window"]
    for window in windows:
        edges = [(u, v) for u, v, t in records if window.start <= t < window.end]
        state = GroupStateSet(cfg)
        state.ingest_stream(edges)
        problem = estimate_mismatch(
            f"window {window.index}", window.estimate, state.estimate(len(edges))
        )
        if problem:
            problems.append(problem)
    return problems


class MonitorPasses:
    """Fresh monitors over one seeded trace, every ingest call timed."""

    def __init__(self, seed: int):
        self.records = inputs.monitor_records(seed)
        self.batches = [
            self.records[i : i + inputs.FRAME_RECORDS]
            for i in range(0, len(self.records), inputs.FRAME_RECORDS)
        ]
        self.cfg = config()
        self.latencies: List[float] = []  # seconds of every ingest call
        self.call_failures: List[str] = []  # the exception of every call that raised

    def clear(self) -> None:
        self.latencies.clear()
        self.call_failures.clear()

    def one_pass(self):
        from repro.streaming.monitor import WindowedTriangleMonitor

        monitor = WindowedTriangleMonitor(
            window_seconds=WINDOW_PANES * PANE_S, slide_seconds=PANE_S, config=self.cfg
        )
        clock = time.perf_counter
        started = clock()
        for batch in self.batches:
            t0 = clock()
            try:
                monitor.ingest(batch)
            except Exception as exc:  # counted, not hidden: see success_ratio
                self.call_failures.append(repr(exc))
            self.latencies.append(clock() - t0)
        monitor.flush()
        return len(self.records) / (clock() - started), monitor.results

    def attempted(self, phase: Phase) -> int:
        """One operation per ingest call; a pass that raised outside them is one more."""
        return len(self.latencies) + phase.failures

    def failed(self, phase: Phase) -> int:
        return len(self.call_failures) + phase.failures

    def figures(self, phase: Phase) -> List[str]:
        lat_ms = ms(self.latencies)
        errors = [e for e in (phase.first_error,) if e] + self.call_failures[:1]
        return [
            figure("monitor_eps", median(phase.rates), "1/s", len(phase.rates)),
            figure("monitor_eps_per_pass", phase.rates, "1/s"),
            percentile_figure("monitor_batch_p90_ms", lat_ms, 0.90),
            figure("monitor_batch_ms", summary(lat_ms, (0.5, 0.9, 0.95)), "ms"),
            figure("windows", len(phase.last), "count"),
        ] + [figure("first_failure", e, "") for e in errors[:1]]

    def problems(self, phase: Phase) -> List[str]:
        return check_windows(self.records, phase.last, self.cfg)


def run(root: Path, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    result = Result()
    monitor = MonitorPasses(seed)
    freeze_inputs()

    tracer = None
    if trace:
        plain_eps = median(passes(seconds / 4, monitor.one_pass, min_passes=1).rates)
        monitor.clear()
        from perfbench.layers import install
        from perfbench.trace import Tracer

        tracer = Tracer()
        install(tracer)
    started = time.perf_counter()
    try:
        phase = passes(seconds, monitor.one_pass)
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured = (started, time.perf_counter())
    rss = peak_rss_mb()

    setups = probe_setup(root, "window-monitor", SETUP_SAMPLES)
    monitor_eps = median(phase.rates)
    result.attempted = monitor.attempted(phase)
    result.failed = monitor.failed(phase)
    result.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "success_ratio": (result.attempted - result.failed) / result.attempted,
        "throughput_eps": monitor_eps,
        "latency_p50_ms": percentile(ms(monitor.latencies), 0.50),
    }
    result.figures += monitor.figures(phase) + common_figures(result, setups)
    result.problems += monitor.problems(phase)

    if tracer is not None:
        result.trace_payloads = [tracer.to_json()]
        result.trace_window = [measured]
        result.trace_extra = {"trace.overhead_ratio": plain_eps / monitor_eps}
    return result
