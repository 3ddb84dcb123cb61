"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-ingest --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Workloads: ``stream-ingest`` and ``service-ndjson``, plus ``window-monitor``,
which is run by hand only (see ``perfbench/spec.py`` for why each exists
and what each metric means).
Inputs are generated from ``--seed``.  Every output is checked against a
reference after the timed part; a mismatch prints ``"correct": false`` and
exits 1.  With ``--trace 0`` the result carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of a traced run.  The figures the
metrics are built from are printed above the result, which is the last
stdout line, as JSON.

The ``repro`` package is imported from ``src/`` of the same checkout; the
compiled kernel is cached, and temporary files are written, under
``.bench_build/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import spec  # noqa: E402

BUILD_DIR = ROOT / ".bench_build"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS + spec.HAND_WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def _prepare() -> str:
    """Keep every file the run writes inside the checkout; build the kernel."""
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD_DIR / "kernel-cache")
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    from repro.core.kernel import resolve_kernel

    resolve_kernel("auto", 64)  # compiles the C kernel once, untimed
    return tempfile.mkdtemp(prefix="run-", dir=tmp)


def _traced_metrics(result):
    from perfbench.layers import layer_metrics, merge_payloads
    from perfbench.trace import covered_share

    payload = merge_payloads(result.trace_payloads)
    total = sum(end - start for start, end in result.trace_window)
    covered = sum(
        covered_share(payload["spans"], start, end) * (end - start)
        for start, end in result.trace_window
    )
    extra = dict(result.trace_extra)
    extra["trace.covered_share"] = covered / total
    return layer_metrics(payload, extra)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    from perfbench import service_ndjson, stream_ingest, window_monitor

    module = {
        spec.STREAM_INGEST: stream_ingest,
        spec.SERVICE_NDJSON: service_ndjson,
        spec.WINDOW_MONITOR: window_monitor,
    }[args.workload]
    workdir = _prepare()
    try:
        result = module.run(ROOT, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result.figures:
        print(line)
    for problem in result.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    metrics = spec.PER_LAYER if args.trace else spec.END_TO_END
    units = {m["name"]: m["unit"] for m in metrics}
    values = _traced_metrics(result) if args.trace else dict(result.metrics)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match the spec {sorted(units)}")
    correct = not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
