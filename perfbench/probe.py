"""Setup probe: ``python3 perfbench/probe.py <workload>``.

Brings the workload's system under test to ready in a fresh process,
prints ``ready`` and shuts it down; the parent times spawn to ``ready``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))


def main(workload: str) -> int:
    from perfbench import stream_ingest, window_monitor

    module = {"stream-ingest": stream_ingest, "window-monitor": window_monitor}[workload]
    close = module.build_system()
    print("ready", flush=True)
    close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
