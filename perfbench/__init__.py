"""Repository benchmark for the REPT library, service and monitor.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  ``spec.py`` defines
the workloads and metrics (and regenerates ``BENCHMARK.json``); the
workload modules drive the ``repro`` package from outside and check every
output against a reference before reporting.
"""
