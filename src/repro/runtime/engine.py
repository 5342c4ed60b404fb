"""The frame engine: one per-frame loop, many scheduling policies.

Section 6's runtime is a single control loop -- predict, (re)map,
execute, observe -- that the paper evaluates under different policies
(semi-automatic parallel, straightforward static, worst-case
reservation, multi-application placement).  :class:`FrameEngine` owns
that loop exactly once: budget initialization, the delay line, obs
spans/metrics, model feedback and :class:`FrameLog`/:class:`RunResult`
assembly all live here, while a :class:`SchedulingPolicy` contributes
only the per-frame *decision* (which mapping, which quality level,
which prediction).

``ResourceManager`` and the ``baselines`` entry points are thin shims
over this module; the multiapp/throughput drivers express their
placements as a :class:`CoschedulePolicy`.  The lint rule
``lint/frame-loop-outside-engine`` keeps ad-hoc ``simulate_frame``
loops from growing back elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Protocol, Sequence

import numpy as np

import repro.obs as obs
from repro.core.triplec import TripleC, TripleCPrediction
from repro.hw.mapping import Mapping
from repro.hw.simulator import FrameResult, PlatformSimulator
from repro.imaging.pipeline import AnalysisPipeline, FrameAnalysis
from repro.runtime.frametable import FrameLog, FrameTable
from repro.runtime.partition import PartitionDecision, Partitioner
from repro.runtime.qos import DelayLine, LatencyBudget
from repro.runtime.tape import (
    FrameTape,
    TapePipeline,
    TapeSequence,
    record_tape,
    tape_for,
)
from repro.synthetic.sequence import XRaySequence
from repro.util.effects import pure
from repro.util.stats import JitterMetrics, jitter_metrics

__all__ = [
    "FrameLog",
    "FrameTape",
    "RunResult",
    "FramePlan",
    "SchedulingPolicy",
    "FrameEngine",
    "TripleCPolicy",
    "StaticSerialPolicy",
    "WorstCaseReservationPolicy",
    "CoschedulePolicy",
    "record_tape",
    "replay_frames",
    "simulate_report_sweep",
]


@dataclass(frozen=True)
class FramePlan:
    """One policy decision, made *before* the frame executes.

    Attributes
    ----------
    mapping:
        Task placement the simulator executes.
    cores_used:
        Distinct cores the mapping occupies (logged + gauged).
    parts:
        Partition count per split task; changes between consecutive
        frames count as repartitions.
    quality:
        Quality-level name the policy selected ("full" when no
        controller is active).
    prediction:
        The Triple-C prediction driving the decision, when the policy
        made one (None for prediction-free baselines).
    predicted_ms:
        Value logged as the frame's predicted serial time.  ``None``
        means "no a-priori estimate": the engine logs the measured
        latency, preserving the straightforward baseline's convention.
    roi_kpixels:
        ROI size the prediction assumed (fed back on observe).
    """

    mapping: Mapping
    cores_used: int = 1
    parts: dict[str, int] = field(default_factory=dict)
    quality: str = "full"
    prediction: TripleCPrediction | None = None
    predicted_ms: float | None = None
    roi_kpixels: float = 0.0


class SchedulingPolicy(Protocol):
    """What a run mode contributes to the engine's loop."""

    #: Default RunResult label of runs under this policy.
    label: str

    def begin_run(self, engine: "FrameEngine") -> LatencyBudget | None:
        """Reset per-sequence state; return the latency budget.

        Returning ``None`` disables the delay line (output latency
        equals completion latency).
        """
        ...

    def plan_frame(
        self, engine: "FrameEngine", pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        """Decide mapping/quality for the frame about to execute.

        On a tape replay ``pipeline`` is a
        :class:`~repro.runtime.tape.TapePipeline` and ``img`` offers
        only ``size``: an open-loop policy reads nothing else.
        """
        ...

    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        """Feed the measured frame back into the policy's model."""
        ...


class RunResult:
    """Outcome of one managed (or baseline) sequence run.

    Engine-produced results are backed by a columnar
    :class:`~repro.runtime.frametable.FrameTable`: the latency /
    prediction series are zero-copy views of its columns and
    ``frames`` materializes :class:`FrameLog` rows lazily (cached
    until more frames are recorded).  Hand-assembled results (tests,
    notebooks) may still pass a ``frames`` list and mutate it; the
    table is derived on demand in that mode.
    """

    def __init__(
        self,
        frames: list[FrameLog] | None = None,
        budget_ms: float | None = None,
        label: str = "",
        table: FrameTable | None = None,
    ) -> None:
        if frames is not None and table is not None:
            raise ValueError("pass either frames or table, not both")
        self._table = table
        self._frames = None if table is not None else list(frames or [])
        self._log_cache: tuple[int, list[FrameLog]] | None = None
        self.budget_ms = budget_ms
        self.label = label

    @property
    def frames(self) -> list[FrameLog]:
        """Per-frame logs (materialized from the table when columnar)."""
        if self._frames is not None:
            return self._frames
        table = self._table
        assert table is not None
        cache = self._log_cache
        if cache is None or cache[0] != len(table):
            cache = (len(table), table.logs())
            self._log_cache = cache
        return cache[1]

    @property
    def table(self) -> FrameTable:
        """Columnar view of the run (built on demand for list-mode)."""
        if self._table is not None:
            return self._table
        assert self._frames is not None
        return FrameTable.from_logs(self._frames)

    def __len__(self) -> int:
        if self._table is not None:
            return len(self._table)
        assert self._frames is not None
        return len(self._frames)

    def _series(self, name: str, attr: str) -> np.ndarray:
        if self._table is not None:
            return self._table.column(name)
        return np.asarray([getattr(f, attr) for f in self.frames])

    def latency(self) -> np.ndarray:
        """Completion-latency series."""
        return self._series("latency_ms", "latency_ms")

    def output_latency(self) -> np.ndarray:
        """Post-delay-line output-latency series."""
        return self._series("output_ms", "output_ms")

    def serial_latency(self) -> np.ndarray:
        """What the same frames would cost serially (sum of tasks)."""
        return self._series("serial_ms", "serial_ms")

    def predicted(self) -> np.ndarray:
        """Per-frame predicted serial times."""
        return self._series("predicted_ms", "predicted_ms")

    def jitter(self) -> JitterMetrics:
        """Jitter metrics of the completion latency."""
        return jitter_metrics(self.latency())

    def scenario_hit_rate(self) -> float:
        """Fraction of frames whose scenario was predicted exactly."""
        n = len(self)
        if not n:
            return 0.0
        hits = int(
            np.count_nonzero(
                self._series("predicted_scenario", "predicted_scenario")
                == self._series("actual_scenario", "actual_scenario")
            )
        )
        return hits / n

    def mean_cores_used(self) -> float:
        """Average core usage (headroom for co-scheduling)."""
        if not len(self):
            return 0.0
        return float(np.mean(self._series("cores_used", "cores_used")))


class _FrameInstruments:
    """The frame-loop metric instruments, resolved once per run.

    Instrument lookup is a registry dict hit per call; at one call per
    metric per frame that is pure per-frame overhead
    (``perf/invariant-attr-in-loop``), so the engine resolves the nine
    instruments up front and reuses them for every frame.  Metric
    names are stable API (pinned by the obs report tests).
    """

    def __init__(self, metrics) -> None:
        self.frames_total = metrics.counter("runtime_frames_total")
        self.frame_latency_ms = metrics.histogram("runtime_frame_latency_ms")
        self.cores_in_use = metrics.gauge("runtime_cores_in_use")
        self.residual_ms = metrics.histogram("runtime_frame_residual_ms")
        self.scenario_hit = metrics.counter("runtime_scenario_hit_total")
        self.scenario_miss = metrics.counter("runtime_scenario_miss_total")
        self.deadline_miss = metrics.counter("runtime_deadline_miss_total")
        self.quality_degraded = metrics.counter(
            "runtime_quality_degraded_total"
        )
        self.repartition = metrics.counter("runtime_repartition_total")


class FrameEngine:
    """Runs a sequence through the simulator under one policy.

    The engine is the only place in the runtime that loops over
    ``simulate_frame``; everything policy-specific is delegated.
    """

    def __init__(
        self, simulator: PlatformSimulator, policy: SchedulingPolicy
    ) -> None:
        self.simulator = simulator
        self.policy = policy

    def run(
        self,
        sequence: XRaySequence,
        pipeline: AnalysisPipeline,
        seq_key: object = 0,
        label: str | None = None,
    ) -> RunResult:
        """Execute one sequence; returns the per-frame log.

        Under an open-loop policy (no ``quality_controller``, no
        ``frame_setup`` hook) nothing a frame's plan decides reaches
        the image pass, so a run with a fresh pipeline (see
        :meth:`~repro.imaging.pipeline.AnalysisPipeline.replay_key`)
        replays the sequence's memoized tape through :meth:`run_tape`
        (:func:`~repro.runtime.tape.tape_for`).  The first such run
        records the tape with ``pipeline``, consuming it as the live
        loop would; later runs leave their ``pipeline`` unadvanced.
        Every other run executes the live loop.  Results are the same
        either way: a replay is this same loop over the tape.
        """
        key = self._replay_key(pipeline)
        if key is not None:
            tape = tape_for(sequence, pipeline, key)
            return self.run_tape(tape, seq_key, label)
        budget = self.policy.begin_run(self)
        budget_ms = budget.require() if budget is not None else None
        delay = DelayLine(budget) if budget is not None else None
        run_label = self.policy.label if label is None else label
        table = FrameTable(capacity=len(sequence))
        result = RunResult(budget_ms=budget_ms, label=run_label, table=table)

        o = obs.get_obs()
        inst = _FrameInstruments(o.metrics)
        prev_parts: dict[str, int] | None = None
        with o.tracer.span("engine.sequence") as seq_span:
            if o.enabled:
                seq_span.set(seq=str(seq_key), label=run_label)
                if budget_ms is not None:
                    seq_span.set(budget_ms=budget_ms)
            for img, _truth in sequence.iter_frames():
                with o.tracer.span("engine.frame") as sp:
                    plan = self.policy.plan_frame(self, pipeline, img)
                    analysis = pipeline.process(img)
                    frame_res = self.simulator.simulate_frame(
                        analysis.reports,
                        plan.mapping,
                        frame_key=(seq_key, analysis.index),
                    )
                    self.policy.observe_frame(plan, analysis, frame_res)
                    out_ms = (
                        delay.push(frame_res.latency_ms)
                        if delay is not None
                        else frame_res.latency_ms
                    )

                    self._log_frame(table, plan, analysis, frame_res, out_ms)
                    if o.enabled:
                        prev_parts = self._record_frame(
                            inst,
                            sp,
                            seq_key,
                            plan,
                            table.log(-1),
                            budget_ms,
                            prev_parts,
                        )
        return result

    def _replay_key(self, pipeline: AnalysisPipeline) -> Hashable | None:
        """Tape-memo key of an open-loop run, ``None`` for a live one."""
        policy = self.policy
        if getattr(policy, "frame_setup", None) is not None:
            return None
        if getattr(policy, "quality_controller", None) is not None:
            return None
        return pipeline.replay_key()

    def run_tape(
        self,
        tape: FrameTape,
        seq_key: object = 0,
        label: str | None = None,
    ) -> RunResult:
        """Execute a recorded tape (see :func:`record_tape`).

        The tape runs through :meth:`run`'s per-frame loop, with
        :class:`~repro.runtime.tape.TapeSequence` and
        :class:`~repro.runtime.tape.TapePipeline` standing in for the
        sequence and the pipeline.  Closed-loop policies are refused:
        their decisions change the image pass a tape fixes.
        """
        if getattr(self.policy, "frame_setup", None) is not None:
            raise ValueError(
                "tape replay cannot run a frame_setup hook; the hook "
                "changes the image pass, which a tape fixes"
            )
        if getattr(self.policy, "quality_controller", None) is not None:
            raise ValueError(
                "tape replay cannot drive a quality controller; the "
                "recorded analyses are fixed"
            )
        return self.run(
            TapeSequence(tape), TapePipeline(tape), seq_key=seq_key, label=label
        )

    def _run_batched(self, *args: object, **kwargs: object) -> RunResult:
        """Placeholder: the engine has one loop, :meth:`run`.

        The name stays only because the traced benchmark run
        (``perfbench/layers.py``) wraps it by ``vars(cls)[name]``;
        nothing calls it.  It goes with that wrap.
        """
        raise NotImplementedError("use run or run_tape")

    @staticmethod
    def _log_frame(
        table: FrameTable,
        plan: FramePlan,
        analysis: FrameAnalysis,
        frame_res: FrameResult,
        out_ms: float,
    ) -> None:
        """Record one executed frame (column writes, no per-frame log
        object -- ``perf/frame-object-churn``)."""
        prediction = plan.prediction
        table.add_frame(
            index=analysis.index,
            predicted_scenario=(
                prediction.scenario_id
                if prediction is not None
                else analysis.scenario_id
            ),
            actual_scenario=analysis.scenario_id,
            predicted_ms=(
                plan.predicted_ms
                if plan.predicted_ms is not None
                else frame_res.latency_ms
            ),
            serial_ms=float(sum(frame_res.task_ms.values())),
            latency_ms=frame_res.latency_ms,
            output_ms=out_ms,
            cores_used=plan.cores_used,
            parts=plan.parts,
            quality=plan.quality,
            task_ms=frame_res.task_ms,
            predicted_task_ms=(
                prediction.task_ms if prediction is not None else None
            ),
        )

    @staticmethod
    def _record_frame(
        inst: _FrameInstruments,
        sp,
        seq_key: object,
        plan: FramePlan,
        log: FrameLog,
        budget_ms: float | None,
        prev_parts: dict[str, int] | None,
    ) -> dict[str, int]:
        """Emit the per-frame telemetry (metric names are stable API)."""
        sp.set(
            seq=str(seq_key),
            frame=log.index,
            scenario=log.actual_scenario,
            predicted_scenario=log.predicted_scenario,
            latency_ms=log.latency_ms,
            task_ms=dict(log.task_ms),
            cores=log.cores_used,
            quality=log.quality,
        )
        inst.frames_total.inc()
        inst.frame_latency_ms.observe(log.latency_ms)
        inst.cores_in_use.set(log.cores_used)
        if plan.prediction is not None:
            predicted = log.predicted_task_ms
            sp.set(
                residual_ms={
                    t: ms - predicted[t]
                    for t, ms in log.task_ms.items()
                    if t in predicted
                }
            )
            inst.residual_ms.observe(log.serial_ms - plan.prediction.frame_ms)
            if log.actual_scenario == log.predicted_scenario:
                inst.scenario_hit.inc()
            else:
                inst.scenario_miss.inc()
        if budget_ms is not None and log.latency_ms > budget_ms:
            inst.deadline_miss.inc()
        if log.quality != "full":
            inst.quality_degraded.inc()
        if prev_parts is not None and log.parts != prev_parts:
            inst.repartition.inc()
            sp.event(
                "repartition", parts=dict(log.parts), previous=prev_parts
            )
        return dict(log.parts)


class TripleCPolicy:
    """The paper's semi-automatic parallelization (Section 6).

    Each frame: predict with Triple-C, repartition robustly over the
    plausible scenarios, optionally degrade quality when even maximal
    repartitioning misses the budget, then feed the measurement back.
    """

    label = "triple-c managed"

    def __init__(
        self,
        triplec: TripleC,
        partitioner: Partitioner,
        budget: LatencyBudget,
        quality_controller=None,
    ) -> None:
        self.triplec = triplec
        self.partitioner = partitioner
        self.budget = budget
        self.quality_controller = quality_controller

    @classmethod
    def for_simulator(
        cls,
        triplec: TripleC,
        simulator: PlatformSimulator,
        partitioner: Partitioner | None = None,
        budget_ms: float | None = None,
        slack: float = 1.08,
        quality_controller=None,
    ) -> "TripleCPolicy":
        """Build with the simulator's overhead constants (the default
        configuration every driver uses)."""
        return cls(
            triplec,
            partitioner
            or Partitioner(
                simulator.platform,
                triplec.graph,
                fork_ms=simulator.fork_ms,
                join_ms=simulator.join_ms,
                halo_fraction=simulator.halo_fraction,
            ),
            LatencyBudget(target_ms=budget_ms, slack=slack),
            quality_controller=quality_controller,
        )

    def initialize_budget(self) -> float:
        """Section 6 "Initialization": budget near the average case."""
        if not self.budget.initialized:
            self.budget.initialize(self.triplec.expected_frame_ms())
        return self.budget.require()

    @pure
    def begin_run(self, engine: FrameEngine) -> LatencyBudget:
        self.initialize_budget()
        self.triplec.start_sequence()
        return self.budget

    @pure
    def plan_frame(
        self, engine: FrameEngine, pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        budget = self.budget.require()
        scale = engine.simulator.cost_model.pixel_scale
        roi_px = pipeline.roi.pixels if pipeline.roi is not None else img.size
        roi_kpx = roi_px / 1000.0 * scale

        prediction: TripleCPrediction = self.triplec.predict(roi_kpx)
        # Robust repartitioning: cover every plausible scenario of the
        # coming frame, not just the most likely one -- a split task
        # that ends up not running costs nothing.
        scenario_preds = self.triplec.plausible_predictions(roi_kpx)
        decision: PartitionDecision = self.partitioner.choose_robust(
            scenario_preds, budget
        )

        quality_name = "full"
        if self.quality_controller is not None:
            level = self.quality_controller.decide(
                decision.predicted_latency_ms, budget
            )
            pipeline.quality = level
            quality_name = level.name

        return FramePlan(
            mapping=decision.mapping,
            cores_used=decision.cores_used,
            parts=dict(decision.parts),
            quality=quality_name,
            prediction=prediction,
            predicted_ms=prediction.frame_ms,
            roi_kpixels=roi_kpx,
        )

    @pure
    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        self.triplec.observe(
            analysis.scenario_id, result.task_ms, plan.roi_kpixels
        )

class StaticSerialPolicy:
    """Static serial mapping: no repartitioning, no QoS.

    This is the paper's "straightforward mapping" baseline.  With a
    ``model``, the policy additionally runs the strict
    predict-then-observe protocol in the shadow of the run (the
    held-out accuracy evaluations); the mapping stays serial either
    way.  ``frame_setup`` runs before each frame's planning -- e.g.
    fig3's forced full-frame granularity.
    """

    label = "straightforward"

    def __init__(
        self,
        model: TripleC | None = None,
        frame_setup: Callable[[AnalysisPipeline], None] | None = None,
    ) -> None:
        self.model = model
        self.frame_setup = frame_setup

    @pure
    def begin_run(self, engine: FrameEngine) -> None:
        if self.model is not None:
            self.model.start_sequence()
        return None

    @pure
    def plan_frame(
        self, engine: FrameEngine, pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        if self.frame_setup is not None:
            self.frame_setup(pipeline)
        if self.model is None:
            return FramePlan(mapping=Mapping.serial())
        scale = engine.simulator.cost_model.pixel_scale
        roi_px = pipeline.roi.pixels if pipeline.roi is not None else img.size
        roi_kpx = roi_px / 1000.0 * scale
        prediction = self.model.predict(roi_kpx)
        return FramePlan(
            mapping=Mapping.serial(),
            prediction=prediction,
            predicted_ms=prediction.frame_ms,
            roi_kpixels=roi_kpx,
        )

    @pure
    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        if self.model is not None:
            self.model.observe(
                analysis.scenario_id, result.task_ms, plan.roi_kpixels
            )

class WorstCaseReservationPolicy:
    """Section 6's strawman: reserve the worst case, pad to it.

    Serial execution; the delay line holds every frame to the
    reserved budget, so the output latency is constant but maximal.
    """

    label = "worst-case reservation"

    def __init__(self, worst_case_ms: float) -> None:
        if worst_case_ms <= 0:
            raise ValueError("worst_case_ms must be positive")
        self.worst_case_ms = float(worst_case_ms)

    @pure
    def begin_run(self, engine: FrameEngine) -> LatencyBudget:
        return LatencyBudget(target_ms=self.worst_case_ms)

    @pure
    def plan_frame(
        self, engine: FrameEngine, pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        return FramePlan(
            mapping=Mapping.serial(), predicted_ms=self.worst_case_ms
        )

    @pure
    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        return None

@dataclass(frozen=True)
class CoschedulePolicy:
    """Placement policy for multi-application / pipelined replays.

    Reconstructs per-frame mappings from a managed run's partitioning
    decisions (or plain serial when ``source`` is None), rotates them
    within a ``window`` of cores so consecutive in-flight frames
    overlap, and shifts the whole placement to ``core_base`` -- the
    transform the multiapp (half-platform instances) and throughput
    (full-platform rotation) experiments share.

    Attributes
    ----------
    n_cores:
        Platform core count.
    source:
        Managed run whose per-frame ``parts`` size the partitions.
    core_base:
        First core of the instance's slice of the platform.
    window:
        Cores available to the instance (defaults to ``n_cores``).
        Partitions wider than the window are clipped to it.
    """

    n_cores: int
    source: RunResult | None = None
    core_base: int = 0
    window: int | None = None

    def mapping_for(self, k: int) -> Mapping:
        """The frame-``k`` placement."""
        window = self.window if self.window is not None else self.n_cores
        mapping = Mapping.serial()
        if self.source is not None and k < len(self.source.frames):
            for task, n_parts in self.source.frames[k].parts.items():
                if n_parts > 1:
                    mapping = mapping.with_partition(
                        task, tuple(range(min(n_parts, window)))
                    )
        local = mapping.rotated(k, window)
        if self.core_base == 0:
            return local
        return Mapping(
            assignments={
                t: tuple(c + self.core_base for c in cores)
                for t, cores in local.assignments.items()
            },
            default_core=local.default_core + self.core_base,
        )

    def assign(
        self,
        reports: Sequence[dict],
        key: Callable[[int], object],
    ) -> list[tuple[dict, Mapping, object]]:
        """Pair pre-computed frame reports with their placements,
        ready for :meth:`PlatformSimulator.simulate_stream`."""
        return [
            (rep, self.mapping_for(k), key(k)) for k, rep in enumerate(reports)
        ]


def replay_frames(
    sequence: XRaySequence,
    pipeline: AnalysisPipeline,
    policy: CoschedulePolicy,
    key: Callable[[int], object],
) -> list[tuple[dict, Mapping, object]]:
    """Process a sequence and place every frame under ``policy``.

    The returned ``(reports, mapping, frame_key)`` triples feed
    ``simulate_stream`` for pipelined multi-application runs.
    """
    out = []
    for k, (img, _truth) in enumerate(sequence.iter_frames()):
        reports = pipeline.process(img).reports
        out.append((reports, policy.mapping_for(k), key(k)))
    return out


def simulate_report_sweep(
    simulator: PlatformSimulator,
    frames: Iterable[tuple[dict, Mapping, object]],
) -> list[FrameResult]:
    """Simulate hand-built ``(reports, mapping, frame_key)`` frames.

    For sweeps that construct task reports outside a sequence run
    (e.g. fig6's forced-ROI crops); keeps the raw ``simulate_frame``
    loop inside the engine module.
    """
    return [
        simulator.simulate_frame(reports, mapping, frame_key=key)
        for reports, mapping, key in frames
    ]
