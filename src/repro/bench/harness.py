"""Timed stages behind ``python -m repro.bench``.

Every stage reports wall-clock seconds from :func:`time.perf_counter`.
The harness runs against a throwaway cache directory so it never
disturbs (or benefits from) the repository's ``.cache``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.computation import EwmaMarkovPredictor, predict_series_loop
from repro.core.triplec import TripleC
from repro.parallel import available_cpus, resolve_jobs
from repro.profiling import ProfileConfig, TraceSet, profile_corpus
from repro.synthetic import CorpusSpec, generate_corpus

__all__ = ["SCHEMA", "machine_info", "run_bench"]

#: Schema identifier written into every BENCH JSON document; the
#: only one ``repro.bench.compare`` accepts.
SCHEMA = "repro-bench/5"

#: Corpus sizes: (n_sequences, total_frames).
_SMOKE_CORPUS = (2, 60)
_FULL_CORPUS = (8, 400)

#: Fleet-stage trace sizes (jobs in the synthetic burst trace).
_SMOKE_FLEET_JOBS = 1000
_FULL_FLEET_JOBS = 2000

#: Trace seed of the fleet stage (the CI gate's seed).
_FLEET_SEED = 7

#: Replay-stage corpus per workload: (n_sequences, total_frames).
#: The smoke corpus must still produce enough replayed jobs to
#: contend the 72-core reference fleet -- shorter streams drain
#: without queueing and the p99 gain degenerates to 0/0.
_SMOKE_REPLAY_CORPUS = (2, 60)
_FULL_REPLAY_CORPUS = (4, 200)


def machine_info() -> dict[str, Any]:
    """What the numbers were measured on.

    A speedup claim is meaningless without the core count it ran on:
    on a single-core container the parallel path cannot beat serial,
    and the JSON must make that legible rather than look like a
    regression.  ``cpu_count`` is the machine, ``cpu_affinity`` the
    scheduling mask of this process, and ``available_cpus`` what the
    pool sizes itself by (the affinity count where the platform
    reports one).
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "available_cpus": available_cpus(),
    }


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _timed_best(fn: Callable[[], Any], repeats: int = 5) -> tuple[float, Any]:
    """Best-of-``repeats`` wall clock for micro-scale stages.

    The prediction and engine stages finish in micro/milliseconds on
    the smoke corpus, where a single scheduler hiccup swings the
    ratio metrics 3x; the minimum over a few runs is the standard
    noise floor for timings the compare gate will judge.
    """
    best = float("inf")
    result: Any = None
    for _ in range(repeats):
        elapsed, result = _timed(fn)
        best = min(best, elapsed)
    return best, result


def _serialized(traces: TraceSet, tmp: Path, name: str) -> bytes:
    path = tmp / name
    traces.save(path)
    return path.read_bytes()


def _bench_profiling(
    spec: CorpusSpec, config: ProfileConfig, jobs: int, tmp: Path
) -> tuple[dict[str, Any], TraceSet]:
    corpus = generate_corpus(spec)
    serial_s, serial_traces = _timed(
        lambda: profile_corpus(corpus, config, jobs=1)
    )
    parallel_s, parallel_traces = _timed(
        lambda: profile_corpus(corpus, config, jobs=jobs)
    )
    identical = _serialized(serial_traces, tmp, "serial.json") == _serialized(
        parallel_traces, tmp, "parallel.json"
    )
    return (
        {
            "profile_serial_s": serial_s,
            "profile_parallel_s": parallel_s,
            "parallel_speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
            "byte_identical": identical,
        },
        serial_traces,
    )


def _bench_cache(spec: CorpusSpec, jobs: int, cache_dir: Path) -> dict[str, Any]:
    # The experiment layer resolves REPRO_CACHE_DIR lazily, so pointing
    # it at the bench's throwaway directory scopes both timings.
    from repro.experiments.common import ExperimentContext

    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        cold_s, _ = _timed(
            lambda: ExperimentContext(corpus_spec=spec, jobs=jobs).traces
        )
        warm_s, _ = _timed(
            lambda: ExperimentContext(corpus_spec=spec, jobs=jobs).traces
        )
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return {"cache_cold_s": cold_s, "cache_warm_s": warm_s}


def _bench_model(traces: TraceSet) -> tuple[dict[str, Any], TripleC]:
    fit_s, model = _timed(lambda: TripleC.fit(traces))
    return {"fit_s": fit_s}, model


def _bench_prediction(traces: TraceSet) -> dict[str, Any]:
    # Evaluate on the busiest task's series so the batch path has
    # enough frames to amortize over.
    task = max(traces.tasks(), key=lambda t: traces.task_values(t).size)
    series = traces.task_values(task)
    predictor = EwmaMarkovPredictor.fit(traces.task_series(task))

    scalar_s, _ = _timed_best(lambda: predict_series_loop(predictor, series))
    batch_s, _ = _timed_best(lambda: predictor.predict_series(series))
    n = float(series.size)
    return {
        "predict_task": task,
        "predict_frames": int(n),
        "predict_scalar_fps": n / scalar_s if scalar_s > 0 else 0.0,
        "predict_batch_fps": n / batch_s if batch_s > 0 else 0.0,
        "predict_batch_speedup": scalar_s / batch_s if batch_s > 0 else 0.0,
    }


def _bench_fleet(smoke: bool) -> dict[str, Any]:
    """Fleet simulator stage: FCFS vs prediction-aware backfill.

    Times one full discrete-event comparison on the synthetic burst
    trace and reports the two metrics the gate judges:

    * ``fleet_deterministic`` -- two same-seed predictive runs must
      produce identical SLO summaries (the simulation is seeded and
      wall-clock free, so any drift is a correctness bug);
    * ``fleet_p99_wait_gain`` -- FCFS p99 queue wait over the
      prediction-aware policy's p99 (>1 means Triple-C estimates are
      buying tail latency), a within-run ratio comparable across
      machines.
    """
    from repro.fleet.cli import run_comparison
    from repro.fleet.jobs import synthetic_burst_trace

    n_jobs = _SMOKE_FLEET_JOBS if smoke else _FULL_FLEET_JOBS
    trace = synthetic_burst_trace(n_jobs=n_jobs, seed=_FLEET_SEED)
    sim_s, doc = _timed(
        lambda: run_comparison(
            trace, policies=("fcfs", "predictive"), seed=_FLEET_SEED
        )
    )
    policies = doc["policies"]
    assert isinstance(policies, dict)
    rerun = run_comparison(
        trace, policies=("predictive",), seed=_FLEET_SEED
    )["policies"]
    assert isinstance(rerun, dict)
    deterministic = json.dumps(
        policies["predictive"], sort_keys=True
    ) == json.dumps(rerun["predictive"], sort_keys=True)

    fcfs_p99 = float(policies["fcfs"]["wait_ms"]["p99"])
    pred_p99 = float(policies["predictive"]["wait_ms"]["p99"])
    return {
        "fleet_sim_s": sim_s,
        "fleet_jobs": n_jobs,
        "fleet_deterministic": deterministic,
        "fleet_p99_wait_gain": fcfs_p99 / pred_p99 if pred_p99 > 0 else 0.0,
        "fleet_fcfs_p99_wait_ms": fcfs_p99,
        "fleet_predictive_p99_wait_ms": pred_p99,
        "fleet_utilization_delta": float(
            policies["predictive"]["utilization"]
        )
        - float(policies["fcfs"]["utilization"]),
    }


def _bench_replay(smoke: bool) -> dict[str, Any]:
    """Trace-replay stage: profiled workloads back through the fleet.

    Profiles a small corpus for every registered workload, folds the
    trace sets into one ``repro-workload-trace/1`` document, converts
    it to a job stream and runs the FCFS-vs-predictive comparison on
    the replayed (measured, not synthetic) runtimes.  Beyond the
    timings the stage records:

    * ``replay_deterministic`` -- converting and simulating the same
      document twice with the same seed must produce identical job
      streams and identical SLO summaries;
    * ``replay_p99_wait_gain`` -- FCFS p99 queue wait over the
      prediction-aware p99 on the replayed trace, the within-run
      ratio the gate judges.
    """
    from repro.fleet.cli import run_comparison
    from repro.fleet.replay import jobs_from_workload_trace, workload_trace_doc
    from repro.synthetic import XRaySequence
    from repro.workloads import all_workloads

    n_seq, n_frames = _SMOKE_REPLAY_CORPUS if smoke else _FULL_REPLAY_CORPUS
    spec = CorpusSpec(
        n_sequences=n_seq, total_frames=n_frames, base_seed=29
    )
    profile_s, tracesets = _timed(
        lambda: {
            wl.name: profile_corpus(
                [XRaySequence(cfg) for cfg in wl.corpus_configs(spec)],
                ProfileConfig(workload=wl.name),
                jobs=1,
            )
            for wl in all_workloads()
        }
    )
    doc = workload_trace_doc(tracesets)
    convert_s, trace = _timed(
        lambda: jobs_from_workload_trace(doc, seed=_FLEET_SEED)
    )
    sim_s, report = _timed(
        lambda: run_comparison(
            trace, policies=("fcfs", "predictive"), seed=_FLEET_SEED
        )
    )
    policies = report["policies"]
    assert isinstance(policies, dict)
    retrace = jobs_from_workload_trace(doc, seed=_FLEET_SEED)
    rerun = run_comparison(
        retrace, policies=("predictive",), seed=_FLEET_SEED
    )["policies"]
    assert isinstance(rerun, dict)
    deterministic = trace == retrace and json.dumps(
        policies["predictive"], sort_keys=True
    ) == json.dumps(rerun["predictive"], sort_keys=True)

    fcfs_p99 = float(policies["fcfs"]["wait_ms"]["p99"])
    pred_p99 = float(policies["predictive"]["wait_ms"]["p99"])
    return {
        "replay_profile_s": profile_s,
        "replay_convert_s": convert_s,
        "replay_sim_s": sim_s,
        "replay_jobs": len(trace),
        "replay_workloads": len(tracesets),
        "replay_deterministic": deterministic,
        "replay_p99_wait_gain": fcfs_p99 / pred_p99 if pred_p99 > 0 else 0.0,
        "replay_fcfs_p99_wait_ms": fcfs_p99,
        "replay_predictive_p99_wait_ms": pred_p99,
    }


def _bench_jobs_matrix(
    spec: CorpusSpec, config: ProfileConfig, requested: list[int]
) -> list[dict[str, Any]]:
    """Profile the corpus at each worker count and report scaling.

    Requested counts are clamped to :func:`available_cpus` and
    deduplicated -- asking an 8-way matrix of a single-core container
    degrades to ``[1]`` rather than timing four flavors of contention.
    Speedups are relative to the matrix's own ``jobs=1`` entry (always
    present) so the gate can check monotone non-degradation.
    """
    cpus = available_cpus()
    counts = sorted({min(max(1, j), cpus) for j in requested} | {1})
    corpus = generate_corpus(spec)
    rows: list[dict[str, Any]] = []
    base_s: float | None = None
    for j in counts:
        elapsed_s, _ = _timed(lambda: profile_corpus(corpus, config, jobs=j))
        if base_s is None:
            base_s = elapsed_s
        rows.append(
            {
                "jobs": j,
                "elapsed_s": elapsed_s,
                "speedup": base_s / elapsed_s if elapsed_s > 0 else 0.0,
            }
        )
    return rows


def run_bench(
    smoke: bool = False,
    jobs: int | None = None,
    out: str | Path = "BENCH_parallel.json",
    jobs_matrix: list[int] | None = None,
) -> dict[str, Any]:
    """Run every stage and write the BENCH JSON document to ``out``."""
    n_jobs = resolve_jobs(jobs)
    n_sequences, total_frames = _SMOKE_CORPUS if smoke else _FULL_CORPUS
    spec = CorpusSpec(n_sequences=n_sequences, total_frames=total_frames)
    config = ProfileConfig()

    results: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp_str:
        tmp = Path(tmp_str)
        profiling, traces = _bench_profiling(spec, config, n_jobs, tmp)
        results.update(profiling)
        results.update(_bench_cache(spec, n_jobs, tmp / "cache"))
    model_results, _model = _bench_model(traces)
    results.update(model_results)
    results.update(_bench_prediction(traces))
    results.update(_bench_fleet(smoke))
    results.update(_bench_replay(smoke))
    if jobs_matrix:
        results["jobs_matrix"] = _bench_jobs_matrix(spec, config, jobs_matrix)

    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_info(),
        "corpus": {
            "n_sequences": spec.n_sequences,
            "total_frames": spec.total_frames,
            "smoke": smoke,
        },
        "jobs": n_jobs,
        "results": results,
    }
    Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def _format_summary(doc: dict[str, Any]) -> str:
    r = doc["results"]
    lines = [
        f"repro.bench ({doc['schema']})  jobs={doc['jobs']}  "
        f"cpus={doc['machine']['cpu_count']}",
        f"  profile: serial {r['profile_serial_s']:.2f}s, "
        f"parallel {r['profile_parallel_s']:.2f}s "
        f"(x{r['parallel_speedup']:.2f}, "
        f"byte-identical={r['byte_identical']})",
        f"  cache:   cold {r['cache_cold_s']:.2f}s, "
        f"warm {r['cache_warm_s']:.2f}s",
        f"  fit:     {r['fit_s']:.2f}s",
        f"  predict: scalar {r['predict_scalar_fps']:.0f} fps, "
        f"batch {r['predict_batch_fps']:.0f} fps "
        f"(x{r['predict_batch_speedup']:.1f}, task {r['predict_task']})",
        f"  fleet:   {r['fleet_jobs']} jobs in {r['fleet_sim_s']:.2f}s "
        f"(p99 gain x{r['fleet_p99_wait_gain']:.2f}, "
        f"deterministic={r['fleet_deterministic']})",
        f"  replay:  {r['replay_jobs']} jobs over "
        f"{r['replay_workloads']} workloads "
        f"(profile {r['replay_profile_s']:.2f}s, "
        f"sim {r['replay_sim_s']:.2f}s, "
        f"p99 gain x{r['replay_p99_wait_gain']:.2f}, "
        f"deterministic={r['replay_deterministic']})",
    ]
    for row in r.get("jobs_matrix", []):
        lines.append(
            f"  matrix:  jobs={row['jobs']}  {row['elapsed_s']:.2f}s  "
            f"(x{row['speedup']:.2f} vs jobs=1)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark profiling, caching, fitting and prediction.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny 2-sequence corpus (CI-sized run)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for the parallel stages "
        "(default: REPRO_JOBS or all cores)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_parallel.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs-matrix",
        default=None,
        metavar="N,N,...",
        help="comma-separated worker counts to sweep the profiling "
        "stage over (clamped to the cores actually available)",
    )
    args = parser.parse_args(argv)
    matrix: list[int] | None = None
    if args.jobs_matrix:
        try:
            matrix = [int(tok) for tok in args.jobs_matrix.split(",") if tok]
        except ValueError:
            parser.error(f"--jobs-matrix must be integers: {args.jobs_matrix!r}")
        if not matrix or any(j < 1 for j in matrix):
            parser.error("--jobs-matrix entries must be positive")
    doc = run_bench(
        smoke=args.smoke, jobs=args.jobs, out=args.out, jobs_matrix=matrix
    )
    print(_format_summary(doc))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
