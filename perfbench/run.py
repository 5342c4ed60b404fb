"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload latency-control --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` makes two untraced passes of set-up and the first rounds
(a warm-up, then a timed one), the same again under the per-layer
tracer (:mod:`perfbench.layers`), and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list the
machine, every simulated metric and the digest of the simulated
outputs.  The exit code is 0 when every output check passed, 1 when
one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Per-run scratch space inside the checkout (removed on exit).
SCRATCH = ROOT / ".perfbench_tmp"
#: Environment variables that would change what a run does.
SCRUBBED_ENV = (
    "REPRO_JOBS",
    "REPRO_FAST",
    "REPRO_OBS_DIR",
    "REPRO_WORKLOAD",
    "REPRO_CACHE_DIR",
)
SETUP_REPEATS = 3
#: Seconds ``kernel_s`` takes on the reference box at its usual speed.
#: The host metrics are scaled to that speed (see ``measure``).
REFERENCE_KERNEL_S = 0.09
#: Rounds every run makes; the simulated metrics are their mean.
SIM_ROUNDS = 5

#: Simulated outputs shown as per-layer metrics: name -> (key, unit).
SIM_LAYER = {
    "runtime.latency_worst_over_avg": ("latency_worst_over_avg", "ratio"),
    "runtime.output_jitter_reduction": ("output_jitter_reduction", "ratio"),
    "runtime.deadline_miss_rate": ("deadline_miss_rate", "ratio"),
    "runtime.quality_degraded_share": ("quality_degraded_share", "ratio"),
    "fleet.deadline_miss_rate": ("deadline_miss_rate", "ratio"),
    "fleet.events": ("events", "count"),
    "fleet.max_pending_depth": ("max_pending_depth", "count"),
    "fleet.wait_p50_ms.predictive": ("wait_p50_ms.predictive", "ms"),
    "fleet.wait_p99_ms.fcfs": ("wait_p99_ms.fcfs", "ms"),
    "fleet.wait_p99_ms.easy": ("wait_p99_ms.easy", "ms"),
    "fleet.wait_p99_ms.predictive": ("wait_p99_ms.predictive", "ms"),
    "fleet.shed_fraction": ("shed_fraction", "ratio"),
}
FLEET_WORKLOAD = "fleet-burst"
SIM_AGGREGATE = {"events": sum, "max_pending_depth": max}

#: Unit of each simulated metric (ratios unless listed).
SIM_UNITS = {key: unit for key, unit in SIM_LAYER.values()}


def machine() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def kernel_s() -> float:
    """One sample of the host's current speed: a fixed load's best time.

    The load uses no code of the repository, so no change to it can
    move the sample.  It mixes what the workloads spend their time on,
    image filters (scipy.ndimage, numpy) and interpreted dictionary
    work, on working sets larger than a core's cache, as theirs are:
    a smaller load tracked the host's slow phases less closely.
    """
    import numpy as np
    from scipy import ndimage

    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        img = np.linspace(0.0, 1.0, 1024 * 1024).reshape(1024, 1024)
        for _ in range(2):
            img = np.sqrt(ndimage.uniform_filter(img, 7) ** 2 + 1.0)
        counts: dict[int, int] = {}
        for i in range(200000):
            counts[i % 50021] = counts.get(i % 50021, 0) + i
        best = min(best, time.perf_counter() - t)
    return best


def _probe_loop(conn) -> None:
    while conn.recv():
        conn.send(kernel_s())


class SpeedProbe:
    """Runs ``kernel_s`` on request in one helper process.

    The helper is forked before the workload allocates anything and is
    reaped only after the peak RSS is read, so the load's memory never
    counts as the program's.  The caller waits while it runs: there is
    never more load at once than without it.
    """

    def __enter__(self) -> "SpeedProbe":
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_probe_loop, args=(child,), daemon=True)
        self._proc.start()
        child.close()
        return self

    def sample(self) -> float:
        self._conn.send(True)
        return self._conn.recv()

    def __exit__(self, *exc: object) -> None:
        try:
            self._conn.send(False)
        except OSError:
            pass  # the helper is gone already
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped pool child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Scratch:
    """Fresh, numbered directories under one run directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.n = 0

    def __call__(self) -> Path:
        self.n += 1
        path = self.root / f"d{self.n}"
        path.mkdir()
        return path


def spec_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def sim_layer_metrics(workload: str, sim: dict[str, float]) -> dict[str, tuple[float, str]]:
    out = {}
    for name, (key, unit) in SIM_LAYER.items():
        layer_matches = name.startswith("fleet.") == (workload == FLEET_WORKLOAD)
        out[name] = (sim.get(key, 0.0) if layer_matches else 0.0, unit)
    return out


def start_process() -> None:
    """A fresh interpreter importing the workloads (the start-up cost)."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import perfbench.workloads"
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT)], check=True)


def sim_window(rounds: list) -> tuple[dict[str, float], str]:
    """Simulated metrics of the first rounds and their digest.

    Counts add up and the queue depth is a maximum; every other
    metric is the mean over the rounds.
    """
    window = rounds[:SIM_ROUNDS]
    sim = {
        key: SIM_AGGREGATE.get(key, statistics.fmean)([r.sim[key] for r in window])
        for key in window[0].sim
    }
    digest = hashlib.sha256("".join(r.digest() for r in window).encode()).hexdigest()[:16]
    return sim, digest


def run_pass(setup, run_round, seed: int, scratch: Scratch):
    """One set-up followed by the rounds of the simulated-metric window."""
    state = setup(seed, scratch)
    return state, [run_round(state, i, scratch) for i in range(SIM_ROUNDS)]


def measure(workload: str, seed: int, seconds: float, scratch: Scratch):
    """The untraced run: repeated set-ups, then rounds for ``seconds``.

    The shared host's speed drifts by up to 1.6x over minutes, for all
    code alike, so a ``SpeedProbe`` samples it after every set-up, round
    and start-up probe, and the host metrics are scaled by
    ``REFERENCE_KERNEL_S / median(samples)``: they read as on the
    reference box at its usual speed.  The raw values are printed too.
    """
    from perfbench.workloads import WORKLOADS

    setup, run_round, _ = WORKLOADS[workload]
    with SpeedProbe() as probe:
        speed_samples = [probe.sample()]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            state = setup(seed, scratch)
            setup_times.append(time.perf_counter() - t)
            speed_samples.append(probe.sample())
        rounds, rates = [], []
        t_measure = time.perf_counter()
        while True:
            t = time.perf_counter()
            rounds.append(run_round(state, len(rounds), scratch))
            wall = time.perf_counter() - t
            rates.append(rounds[-1].ops / wall)
            speed_samples.append(probe.sample())
            elapsed = time.perf_counter() - t_measure
            if len(rounds) >= SIM_ROUNDS and elapsed + wall > seconds:
                break
        measured_s = time.perf_counter() - t_measure
        rss = peak_rss_mb()  # before the start-up probes add children of their own
        start_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            start_process()
            start_times.append(time.perf_counter() - t)
            speed_samples.append(probe.sample())
    sim, digest = sim_window(rounds)
    scale = REFERENCE_KERNEL_S / statistics.median(speed_samples)
    raw_setup_s = statistics.median(start_times) + statistics.median(setup_times)
    raw_ops_per_s = statistics.median(rates)
    metrics = {
        "setup_s": (raw_setup_s * scale, "s"),
        "ops_per_s": (raw_ops_per_s / scale, "1/s"),
        "peak_rss_mb": (rss, "MiB"),
        "prediction_accuracy": (sim["prediction_accuracy"], "ratio"),
    }
    info = {
        "rounds": len(rounds),
        "measured_s": round(measured_s, 3),
        "start_s": [round(x, 4) for x in start_times],
        "setup_repeats_s": [round(x, 4) for x in setup_times],
        "kernel_s": [round(x, 5) for x in speed_samples],
        "host_scale": scale,
        "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": raw_ops_per_s,
    }
    return list(state["problems"]), rounds, sim, digest, metrics, info


def traced(workload: str, seed: int, scratch: Scratch):
    """Two untraced passes (warm-up, then timed), then one traced pass."""
    from perfbench import layers
    from perfbench.workloads import WORKLOADS
    from repro.parallel import available_cpus

    setup, run_round, _ = WORKLOADS[workload]
    state, plain = run_pass(setup, run_round, seed, scratch)
    t = time.perf_counter()
    run_pass(setup, run_round, seed, scratch)
    untraced_s = time.perf_counter() - t

    tracer = layers.Tracer(scratch())
    uninstall = layers.install(tracer)
    tracer.push(layers.ROOT)
    try:
        traced_state, rounds = run_pass(setup, run_round, seed, scratch)
    finally:
        wall = tracer.pop()
        uninstall()

    problems = list(state["problems"]) + traced_state["problems"]
    sim, digest = sim_window(rounds)
    if digest != sim_window(plain)[1]:
        problems.append("tracing changed the simulated outputs")
    attributed = sum(tracer.self_s.values())
    if abs(attributed - wall) > 1e-6 * wall:
        problems.append(f"self times sum to {attributed:.6f} s, wall is {wall:.6f} s")
    pool_frames = traced_state["pool_frames"] + sum(r.pool_frames for r in rounds)
    worker_frames = tracer.worker_counts["profiling.frames"]
    if pool_frames and available_cpus() > 1 and worker_frames != pool_frames:
        problems.append(f"pool workers traced {worker_frames} frames, corpus has {pool_frames}")

    metrics = layers.layer_metrics(tracer, wall)
    metrics["trace.overhead"] = (wall / untraced_s, "ratio")
    metrics.update(sim_layer_metrics(workload, sim))
    info = {"untraced_s": round(untraced_s, 4), "traced_s": round(wall, 4)}
    return problems, plain + rounds, sim, digest, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; nothing to run", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        scratch = Scratch(run_dir)
        if args.trace:
            problems, rounds, sim, digest, metrics, info = traced(
                args.workload, args.seed, scratch
            )
            expected = spec_metrics("per_layer")
        else:
            problems, rounds, sim, digest, metrics, info = measure(
                args.workload, args.seed, args.seconds, scratch
            )
            expected = spec_metrics("end_to_end")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
    for name, (_, unit) in metrics.items():
        if expected.get(name, unit) != unit:
            problems.append(f"{name}: unit {unit} differs from BENCHMARK.json")
    for r in rounds:
        problems += r.problems
    attempted = sum(r.ops for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds))
    if problems and not failed:
        failed = 1

    _, _, op = WORKLOADS[args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} op={op}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for key, value in sorted(sim.items()):
        print(f"sim {key} = {value!r} {SIM_UNITS.get(key, 'ratio')}")
    print(f"failed_fraction = {failed / attempted!r} ratio")
    if "ops_per_s" in metrics:
        alias = "jobs_per_s" if args.workload == FLEET_WORKLOAD else "frames_per_s"
        print(f"{alias} = {metrics['ops_per_s'][0]!r} 1/s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value!r} {unit}")
    print(f"digest {digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
