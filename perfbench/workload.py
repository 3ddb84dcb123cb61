"""What every workload shares: the result record, setup probes, checks."""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.stats import TooFewSamples, percentile

PROBE_TIMEOUT_S = 120.0
MIN_PASSES = 2


@dataclass
class Result:
    """One workload run: end-to-end metrics, printed figures, checks, trace."""

    metrics: Dict[str, float] = field(default_factory=dict)
    figures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Trace payloads (one per traced process) and the measured intervals.
    trace_payloads: List[dict] = field(default_factory=list)
    trace_window: List[Tuple[float, float]] = field(default_factory=list)
    trace_extra: Dict[str, float] = field(default_factory=dict)


def figure(name: str, value, unit: str, n: Optional[int] = None) -> str:
    """One human-readable report line."""
    count = f" (n={n})" if n is not None else ""
    return f"{name}: {value}{' ' + unit if unit else ''}{count}"


def percentile_figure(name: str, samples_ms: Sequence[float], q: float) -> str:
    """A latency percentile line, or why the sample cannot support it."""
    try:
        return figure(name, percentile(samples_ms, q), "ms", len(samples_ms))
    except TooFewSamples as exc:
        return f"{name}: not reported, {exc}"


def common_figures(result: Result, setups: Sequence[float]) -> List[str]:
    """The figures every workload prints: set-up, memory, failures."""
    return [
        figure("setup_s", result.metrics["setup_s"], "s", len(setups)),
        figure("setup_s_samples", list(setups), "s"),
        figure("peak_rss_mb", result.metrics["peak_rss_mb"], "MB"),
        figure("failed_ratio", result.failed / result.attempted, "ratio", result.attempted),
    ]


def ms(seconds: Sequence[float]) -> List[float]:
    return [s * 1000.0 for s in seconds]


def freeze_inputs() -> None:
    """Exempt everything allocated so far (the generated inputs) from GC.

    The inputs are the benchmark's, not the program's: without this, every
    full collection the program triggers would also traverse millions of
    input objects that a real caller would not hold in memory.
    """
    gc.collect()
    gc.freeze()


@dataclass
class Phase:
    """The passes of one measured phase."""

    rates: List[float] = field(default_factory=list)
    failures: int = 0
    #: Output of the last pass that returned, or None.
    last: object = None
    first_error: Optional[str] = None
    #: Seconds spent in the phase's passes.
    spent: float = 0.0

    def attempts(self) -> int:
        return len(self.rates) + self.failures


def interleave(budget: float, phases: Sequence[Tuple[object, float, int]]) -> List[Phase]:
    """Run the phases' passes interleaved until ``budget`` seconds are used.

    Each phase is ``(one_pass, share, min_passes)``: ``one_pass`` returns
    ``(rate, output)``, and a pass that raises counts as a failure.  The
    next pass always belongs to the phase furthest below its share of the
    time spent, so every phase samples the whole run, and the box's speed
    drifting during the run weighs on all phases alike.  Only each phase's
    last output is kept, so memory does not grow with the number of passes.
    """
    results = [Phase() for _ in phases]
    begin = time.perf_counter()

    def behind(i: int) -> tuple:
        _one_pass, share, at_least = phases[i]
        return (results[i].attempts() >= at_least, results[i].spent / share)

    while time.perf_counter() - begin < budget or any(
        r.attempts() < at_least for r, (_p, _s, at_least) in zip(results, phases)
    ):
        i = min(range(len(phases)), key=behind)
        phase = results[i]
        started = time.perf_counter()
        try:
            rate, phase.last = phases[i][0]()
        except Exception as exc:  # counted, not hidden: see success_ratio
            phase.failures += 1
            phase.first_error = phase.first_error or repr(exc)
        else:
            phase.rates.append(rate)
        phase.spent += time.perf_counter() - started
    for phase in results:
        if not phase.rates:
            raise RuntimeError(f"every pass failed: {phase.first_error}")
    return results


def passes(budget: float, one_pass, min_passes: int = MIN_PASSES) -> Phase:
    """Repeat ``one_pass`` until ``budget`` seconds are used."""
    return interleave(budget, [(one_pass, 1.0, min_passes)])[0]


def probe_setup(root: Path, workload: str, samples: int) -> List[float]:
    """Time ``samples`` fresh processes from spawn until the system is ready."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "probe.py"), workload],
            stdout=subprocess.PIPE,
            text=True,
            cwd=root,
        )
        try:
            line = process.stdout.readline()
            ready = time.perf_counter()
            process.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed: {line!r}")
        times.append(ready - started)
    return times


def estimate_mismatch(label: str, got, want) -> Optional[str]:
    """Describe how two TriangleEstimates differ, or None when bit-identical."""
    for attr in ("global_count", "edges_processed", "edges_stored"):
        if getattr(got, attr) != getattr(want, attr):
            return f"{label}: {attr} {getattr(got, attr)!r} != {getattr(want, attr)!r}"
    if got.local_counts != want.local_counts:
        differing = sum(
            1
            for node in set(got.local_counts) | set(want.local_counts)
            if got.local_counts.get(node) != want.local_counts.get(node)
        )
        return f"{label}: {differing} local counts differ"
    return None
