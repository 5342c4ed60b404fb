"""Benchmark harness for the profiling and prediction hot paths.

``python -m repro.bench`` times the stages a full experiment run pays
for -- corpus profiling (serial vs process-pool), the sharded trace
cache (cold write vs warm read), Triple-C model fitting, predictor
evaluation (scalar protocol vs batch ``predict_series``), the fleet
simulator (FCFS vs prediction-aware backfill) and the workload-trace
replay loop (profile every registered workload, convert, re-simulate)
-- and writes the results as JSON (schema ``repro-bench/5``) together
with machine information, so numbers from different machines and
commits stay comparable.  ``--smoke`` shrinks the corpus for CI;
``--jobs-matrix 1,2,4,8`` additionally sweeps the profiling stage
over worker counts (clamped to the cores actually available) so
``repro.bench.compare`` can gate multicore scaling.

See ``docs/performance.md`` for the schema and usage.
"""

from repro.bench.harness import SCHEMA, machine_info, run_bench

__all__ = ["SCHEMA", "machine_info", "run_bench"]
