"""The benchmark's own arithmetic: percentiles, staleness, peak memory."""

from __future__ import annotations

import bisect
import math
import resource
import sys
from typing import Dict, Sequence

#: A reported percentile must have at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the reported one, so a tail figure is never read
    off a handful of observations.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted(samples)[rank - 1]


def summary(samples: Sequence[float], quantiles: Sequence[float]) -> Dict[str, float]:
    """``{"p50": ..., "n": ...}`` for every quantile the sample supports."""
    out: Dict[str, float] = {"n": len(samples)}
    for q in quantiles:
        try:
            out[f"p{q * 100:g}"] = percentile(samples, q)
        except TooFewSamples:
            break
    return out


def staleness(
    answered_at: float,
    edges_processed: int,
    cumulative_records: Sequence[int],
    due_times: Sequence[float],
) -> float:
    """How stale one query answer is, in the units of its times.

    ``cumulative_records[k]`` is the tenant's record count after frame
    ``k`` and ``due_times[k]`` that frame's due time.  The answer covers the
    frames whose cumulative count is at most ``edges_processed``; its
    staleness is ``answered_at`` minus the due time of the oldest frame it
    does not cover, or 0 when that frame was not yet due (or there is
    none).
    """
    first_uncovered = bisect.bisect_right(cumulative_records, edges_processed)
    if first_uncovered >= len(due_times):
        return 0.0
    return max(0.0, answered_at - due_times[first_uncovered])


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
