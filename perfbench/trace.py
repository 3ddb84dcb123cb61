"""In-memory spans around public functions of the program under test.

The traced run wraps each listed function where its caller looks it up
(a class attribute for methods, the importing module's global for a
function imported by name), records one span per call -- name, start, end
and the span that was current when it started -- and keeps everything in
memory until the run writes it out.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

The current span travels in a :class:`contextvars.ContextVar`, so spans
opened by different asyncio tasks nest only within their own task.  Calls
made in a forked child (cluster workers) are passed straight through.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, int]  # (id, name, start, end, parent id; 0 = root)

#: ``hook(tracer, args, kwargs, result, start, end)`` runs after each call.
Hook = Callable[..., None]


class Tracer:
    """Span recorder plus the counters and event series the hooks fill."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.series: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        record = self._record
        current = self._current
        ids = self._ids
        pid = self._pid

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if os.getpid() != pid:
                    return await original(*args, **kwargs)
                sid = next(ids)
                token = current.set(sid)
                start = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                    record(sid, name, start, end, token.old_value, hook, args, kwargs, result)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if os.getpid() != pid:
                    return original(*args, **kwargs)
                sid = next(ids)
                token = current.set(sid)
                start = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                    record(sid, name, start, end, token.old_value, hook, args, kwargs, result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _record(self, sid, name, start, end, parent, hook, args, kwargs, result) -> None:
        if parent is contextvars.Token.MISSING:
            parent = 0
        self.spans.append((sid, name, start, end, parent))
        if hook is not None:
            hook(self, args, kwargs, result, start, end)

    # -- output ---------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "series": dict(self.series),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Child intervals are clipped to the parent's, so a task that inherited
    its creator's span as parent (and outlived it) does not reduce it.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        if parent:
            children[parent].append((start, end))
    result: Dict[int, float] = {}
    for sid, _name, start, end, _parent in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if s < end and e > start
        ]
        result[sid] = (end - start) - union_length(clipped)
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, total self seconds)`` over all spans."""
    own = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for sid, name, _start, _end, _parent in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += own[sid]
    return {name: (int(calls), self_s) for name, (calls, self_s) in totals.items()}


def covered_share(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` that at least one span covers."""
    clipped = [
        (max(s, start), min(e, end)) for _sid, _n, s, e, _p in spans if s < end and e > start
    ]
    return union_length(clipped) / (end - start)
