"""Host the estimation service for the service-ndjson workload.

Runs as its own process: ``python3 perfbench/serve.py <checkpoint-dir>
[<trace-out>]``.  With a trace path the traced layers are wrapped before
the server starts serving, and the spans are written there at exit.  Once
listening it prints the service's readiness line.  SIGTERM stops it
without the final drain checkpoints (the run has already ended); its last
stdout line then reports the process's peak RSS.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.stats import peak_rss_mb  # noqa: E402

#: Every session checkpoints after this many applied frames.  Counting
#: frames rather than seconds puts the same checkpoint work in every run,
#: however fast the server is.
CHECKPOINT_EVERY_FRAMES = 100

PEAK_RSS_PREFIX = "PEAK-RSS-MB"


async def _serve(checkpoint_dir: str) -> None:
    from repro.service.artefacts import READY_PREFIX
    from repro.service.server import EstimationService

    service = EstimationService(
        checkpoint_root=checkpoint_dir, checkpoint_every_frames=CHECKPOINT_EVERY_FRAMES
    )
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    host, port = await service.serve_tcp("127.0.0.1", 0)
    print(f"{READY_PREFIX} {host} {port}", flush=True)
    await stop.wait()


def main(argv) -> int:
    checkpoint_dir = argv[1]
    trace_out = argv[2] if len(argv) > 2 else None
    tracer = None
    if trace_out is not None:
        from perfbench.layers import install
        from perfbench.trace import Tracer

        tracer = Tracer()
        install(tracer)
    try:
        asyncio.run(_serve(checkpoint_dir))
    finally:
        if tracer is not None:
            tracer.dump(trace_out)
    print(f"{PEAK_RSS_PREFIX} {peak_rss_mb()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
