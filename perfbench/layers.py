"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

The wrappers sit at the public entry points of each ``repro`` layer,
installed from here without touching ``src/``.  A span records its
layer's *self* time: its duration minus the part covered by nested
spans, so the self times of every span plus the root span's own share
(``trace.unattributed_s``) add up to the traced wall time.

Pool workers are traced too.  ``map_sequences`` hands its worker to a
:class:`WorkerTask`, which runs in the forked worker against the
inherited (and there reset) tracer and appends one JSON line per item
to a per-call directory; the parent folds those lines back in after
the map.  Worker self times are *projected* onto the parent's wall
clock: with workers busy ``B`` seconds inside a map of wall ``W``,
each worker span counts ``W / B`` of its seconds when ``B > W``.  The
projected seconds move out of the ``parallel.map`` span, so the
identity with the wall time still holds; the raw busy seconds are
reported as ``parallel.worker_busy_s``.

Wrappers stay at coarse boundaries (one call per frame, per sequence,
per scheduling pass); none goes inside a per-node or per-pixel loop.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Tracer", "WorkerTask", "install", "layer_metrics"]

#: The tracer of this process; a forked pool worker inherits it.
_ACTIVE: "Tracer | None" = None

#: Root span of a traced region (its self time is the unattributed rest).
ROOT = "trace.root"


def frame_key(img: np.ndarray) -> str:
    """Cheap identity of a rendered frame: a strided pixel sample."""
    sample = np.ascontiguousarray(img).ravel()[::251]
    h = hashlib.blake2b(sample.tobytes(), digest_size=8)
    h.update(repr(img.shape).encode())
    return h.hexdigest()


class Tracer:
    """In-memory span stack with per-span self-time totals and counts."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = spans_dir
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rendered: set[str] = set()
        self.processed: set[str] = set()
        self.stack: list[list[Any]] = []
        self.map_wall_s = 0.0
        self.worker_busy_s = 0.0
        self.worker_counts: dict[str, int] = defaultdict(int)

    def push(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        name, t0, child = self.stack.pop()
        dur = time.perf_counter() - t0
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def inside(self, name: str) -> bool:
        return any(entry[0] == name for entry in self.stack)

    def fold_workers(self, directory: Path, map_wall: float) -> None:
        """Merge the worker records of one map call (see module doc)."""
        records = []
        for path in sorted(directory.glob("*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh)
            path.unlink()
        directory.rmdir()
        busy = sum(r["wall"] for r in records)
        scale = map_wall / busy if busy > map_wall else 1.0
        moved = 0.0
        for r in records:
            for name, s in r["self"].items():
                if name == ROOT:
                    continue  # worker-side overhead stays with the pool
                self.self_s[name] += scale * s
                moved += scale * s
            for name, s in r["incl"].items():
                self.incl_s[name] += scale * s
            for name, c in r["counts"].items():
                self.counts[name] += c
                self.worker_counts[name] += c
            self.rendered.update(r["rendered"])
            self.processed.update(r["processed"])
        self.self_s["parallel.map"] -= moved
        self.worker_busy_s += busy


class WorkerTask:
    """Picklable pool-worker wrapper that traces one work item."""

    def __init__(self, worker: Callable[[Any], Any], out_dir: str) -> None:
        self.worker = worker
        self.out_dir = out_dir

    def __call__(self, item: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:  # not forked from a traced parent
            return self.worker(item)
        tracer.reset()
        tracer.push(ROOT)
        try:
            return self.worker(item)
        finally:
            wall = tracer.pop()
            record = {
                "wall": wall,
                "self": dict(tracer.self_s),
                "incl": dict(tracer.incl_s),
                "counts": dict(tracer.counts),
                "rendered": sorted(tracer.rendered),
                "processed": sorted(tracer.processed),
            }
            path = Path(self.out_dir) / f"worker-{os.getpid()}.jsonl"
            with path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, new: object) -> None:
        old = vars(owner)[name]
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def everywhere(self, orig: object, new: object) -> None:
        """Rebind ``orig`` in every loaded module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self.set(mod, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _timed(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    after: Callable[[tuple, Any, float], None] | None = None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.pop()
        if after is not None:
            after(args, result, dur)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the uninstaller."""
    global _ACTIVE
    from repro.core.triplec import TripleC
    from repro.fleet import estimates, jobs
    from repro.fleet.admission import AdmissionController
    from repro.fleet.policies import BackfillScheduler, FcfsScheduler
    from repro.fleet.simulator import FleetSimulator
    from repro.hw.simulator import PlatformSimulator
    from repro.imaging import pipeline, zoom
    from repro.imaging.enhance import TemporalEnhancer
    from repro.parallel import pool
    from repro.profiling import profiler
    from repro.runtime.engine import FrameEngine
    from repro.runtime.partition import Partitioner
    from repro.synthetic import phantom
    from repro.synthetic.sequence import XRaySequence
    from repro.workloads.robotvision import RobotVisionPipeline
    from repro.workloads.ultrasound import UltrasoundPipeline

    patches = _Patches()

    def method(cls: type, attr: str, name: str, after=None) -> None:
        orig = vars(cls)[attr]
        if isinstance(orig, (staticmethod, classmethod)):
            wrapped = type(orig)(_timed(tracer, name, orig.__func__, after))
        else:
            wrapped = _timed(tracer, name, orig, after)
        patches.set(cls, attr, wrapped)

    def function(orig: Callable[..., Any], name: str, after=None) -> None:
        patches.everywhere(orig, _timed(tracer, name, orig, after))

    # synthetic
    def after_render(args, result, dur):
        tracer.counts["synthetic.render"] += 1
        tracer.rendered.add(frame_key(result[0]))

    method(XRaySequence, "frame", "synthetic.render", after_render)
    function(phantom.build_phantom, "synthetic.phantom")

    # imaging: the three registered pipelines and the StentBoost stages
    def after_process(args, result, dur):
        tracer.counts["imaging.process"] += 1
        tracer.incl_s["imaging.process"] += dur
        tracer.processed.add(frame_key(args[1]))
        if getattr(result, "output", None) is not None:
            tracer.counts["imaging.output"] += 1

    for cls in (pipeline.StentBoostPipeline, RobotVisionPipeline, UltrasoundPipeline):
        method(cls, "process", "imaging.process", after_process)
    for orig, name in (
        (pipeline.structure_precheck, "imaging.precheck"),
        (pipeline.ridge_filter, "imaging.ridge"),
        (pipeline.extract_markers, "imaging.markers"),
        (pipeline.extract_guidewire, "imaging.guidewire"),
        (zoom.zoom_roi, "imaging.zoom"),
    ):
        function(orig, name)
    method(TemporalEnhancer, "enhance", "imaging.enhance")

    # hw
    def after_simulate(args, result, dur):
        tracer.counts["hw.frames"] += 1

    for attr in ("simulate_frame", "simulate_costed_frame"):
        method(PlatformSimulator, attr, "hw.simulate", after_simulate)

    # core
    def after_fit(args, result, dur):
        tracer.counts["core.fits"] += 1

    method(TripleC, "fit", "core.fit", after_fit)

    def after_predict(args, result, dur):
        tracer.counts["core.predictions"] += 1

    method(TripleC, "predict", "core.predict", after_predict)
    method(TripleC, "plausible_predictions", "core.predict")
    method(TripleC, "observe", "core.observe")

    # runtime
    def after_engine(args, result, dur):
        if not tracer.inside("runtime.engine"):
            tracer.counts["runtime.engine_frames"] += len(result)

    def after_batched(args, result, dur):
        tracer.counts["runtime.batched_frames"] += len(result)

    method(FrameEngine, "run", "runtime.engine", after_engine)
    method(FrameEngine, "run_tape", "runtime.engine", after_engine)
    method(FrameEngine, "_run_batched", "runtime.engine", after_batched)
    method(Partitioner, "choose", "runtime.partition")
    method(Partitioner, "choose_robust", "runtime.partition")

    # profiling
    def after_sequence(args, result, dur):
        tracer.counts["profiling.frames"] += args[0].config.n_frames

    function(profiler.profile_sequence, "profiling.sequence", after_sequence)
    function(profiler.merge_shards, "profiling.merge")

    # parallel: the one sanctioned pool, traced on both sides
    map_sequences = pool.map_sequences

    @functools.wraps(map_sequences)
    def traced_map(worker, items, jobs=None, chunksize=None, payload=None):
        work = list(items)
        n_jobs = min(pool.resolve_jobs(jobs), len(work))
        out_dir = None
        if n_jobs > 1:
            out_dir = tracer.spans_dir / f"map-{uuid.uuid4().hex}"
            out_dir.mkdir(parents=True)
            worker = WorkerTask(worker, str(out_dir))
        tracer.counts["parallel.items"] += len(work)
        tracer.counts["parallel.workers"] = max(tracer.counts["parallel.workers"], n_jobs)
        tracer.push("parallel.map")
        try:
            return map_sequences(
                worker, work, jobs=jobs, chunksize=chunksize, payload=payload
            )
        finally:
            wall = tracer.pop()
            tracer.map_wall_s += wall
            if out_dir is not None:
                tracer.fold_workers(out_dir, wall)

    patches.everywhere(map_sequences, traced_map)

    # fleet
    def after_select(args, result, dur):
        tracer.counts["fleet.select"] += 1

    method(FcfsScheduler, "select", "fleet.select", after_select)
    method(BackfillScheduler, "select", "fleet.select", after_select)
    for cls in (
        estimates.WorstCaseEstimator,
        estimates.OracleEstimator,
        estimates.TripleCEstimator,
    ):
        method(cls, "estimate_ms", "fleet.estimate")
        method(cls, "observe", "fleet.estimate")
    function(estimates.make_estimator, "fleet.estimate")
    for attr in ("on_submit", "on_start", "on_finish"):
        method(AdmissionController, attr, "fleet.admission")
    method(FleetSimulator, "run", "fleet.loop")
    function(jobs.synthetic_burst_trace, "fleet.tracegen")

    _ACTIVE = tracer

    def uninstall() -> None:
        global _ACTIVE
        patches.undo()
        _ACTIVE = None

    return uninstall


#: (metric, span) of every self-time layer metric.
SELF_TIMES = (
    ("synthetic.render_s", "synthetic.render"),
    ("synthetic.phantom_s", "synthetic.phantom"),
    ("imaging.zoom_s", "imaging.zoom"),
    ("imaging.enhance_s", "imaging.enhance"),
    ("imaging.markers_s", "imaging.markers"),
    ("imaging.ridge_s", "imaging.ridge"),
    ("imaging.precheck_s", "imaging.precheck"),
    ("imaging.guidewire_s", "imaging.guidewire"),
    ("imaging.other_s", "imaging.process"),
    ("hw.simulate_s", "hw.simulate"),
    ("core.fit_s", "core.fit"),
    ("core.predict_s", "core.predict"),
    ("core.observe_s", "core.observe"),
    ("runtime.engine_self_s", "runtime.engine"),
    ("runtime.partition_s", "runtime.partition"),
    ("profiling.sequence_s", "profiling.sequence"),
    ("profiling.merge_s", "profiling.merge"),
    ("parallel.self_s", "parallel.map"),
    ("fleet.select_s", "fleet.select"),
    ("fleet.estimate_s", "fleet.estimate"),
    ("fleet.admission_s", "fleet.admission"),
    ("fleet.loop_self_s", "fleet.loop"),
    ("fleet.tracegen_s", "fleet.tracegen"),
    ("trace.unattributed_s", ROOT),
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a finished traced region."""
    self_s, counts = tracer.self_s, tracer.counts
    unknown = set(self_s) - {span for _, span in SELF_TIMES}
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        metric: (self_s.get(span, 0.0), "s") for metric, span in SELF_TIMES
    }
    renders = counts["synthetic.render"]
    frames = counts["imaging.process"]
    engine_frames = counts["runtime.engine_frames"]
    workers = counts["parallel.workers"]
    pooled_wall = tracer.map_wall_s if tracer.worker_busy_s else 0.0
    out.update(
        {
            "synthetic.render_calls": (renders, "count"),
            "synthetic.render_reuse": (ratio(len(tracer.rendered), renders), "ratio"),
            "imaging.process_s": (tracer.incl_s.get("imaging.process", 0.0), "s"),
            "imaging.frames": (frames, "count"),
            "imaging.reuse": (ratio(len(tracer.processed), frames), "ratio"),
            "imaging.output_frames": (counts["imaging.output"], "count"),
            "hw.frames": (counts["hw.frames"], "count"),
            "core.fits": (counts["core.fits"], "count"),
            "core.predictions": (counts["core.predictions"], "count"),
            "runtime.engine_frames": (engine_frames, "count"),
            "runtime.batched_share": (
                ratio(counts["runtime.batched_frames"], engine_frames),
                "ratio",
            ),
            "profiling.frames": (counts["profiling.frames"], "count"),
            "parallel.map_wall_s": (tracer.map_wall_s, "s"),
            "parallel.worker_busy_s": (tracer.worker_busy_s, "s"),
            "parallel.utilization": (
                ratio(tracer.worker_busy_s, workers * pooled_wall),
                "ratio",
            ),
            "parallel.items": (counts["parallel.items"], "count"),
            "parallel.workers": (workers, "count"),
            "parallel.worker_frames": (
                tracer.worker_counts["profiling.frames"],
                "count",
            ),
            "fleet.select_calls": (counts["fleet.select"], "count"),
            "trace.wall_s": (wall_s, "s"),
        }
    )
    return out
