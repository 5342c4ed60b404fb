"""Discrete-event execution of a mapped frame on core timelines.

The per-frame task set (the pipeline's work reports, in flow-graph
order) forms a dependency chain; each task runs on its mapped cores,
split into partitions when the mapping says so.  The simulator keeps
one timeline per core, charges inter-task communication on the link
the producer/consumer placement implies (same L2 cluster vs system
bus), adds partition fork/join overhead and halo traffic, and records
all external-memory and bus traffic in a
:class:`~repro.hw.bus.BandwidthLedger`.

The frame's *effective latency* is the completion time of its last
task -- the quantity Figs. 6 and 7 of the paper plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping as TMapping

import repro.obs as obs
from repro.graph.flowgraph import FlowGraph
from repro.hw.bus import BandwidthLedger
from repro.hw.cost import CostBreakdown, CostModel
from repro.hw.mapping import Mapping
from repro.imaging.common import WorkReport
from repro.util.units import MS_PER_S

__all__ = ["TaskTiming", "FrameResult", "PlatformSimulator"]


@dataclass(frozen=True)
class TaskTiming:
    """Scheduling record of one task within a frame."""

    task: str
    start_ms: float
    end_ms: float
    cores: tuple[int, ...]
    compute_ms: float
    comm_ms: float
    overhead_ms: float
    breakdown: CostBreakdown

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class FrameResult:
    """Outcome of simulating one frame.

    Attributes
    ----------
    latency_ms:
        Effective frame latency (completion of the last task).
    timings:
        Per-task scheduling records in execution order.
    task_ms:
        Convenience map task -> single-core compute time (the value
        the Triple-C computation predictors model).
    eviction_bytes, external_bytes:
        Cache swap traffic and total external-memory traffic.
    """

    latency_ms: float
    timings: list[TaskTiming]
    task_ms: dict[str, float] = field(default_factory=dict)
    eviction_bytes: int = 0
    external_bytes: int = 0

    def busy_ms(self) -> float:
        """Total core-busy milliseconds (compute work) of the frame."""
        return float(sum(t.compute_ms for t in self.timings))


class PlatformSimulator:
    """Schedules mapped frames onto platform core timelines.

    Parameters
    ----------
    platform:
        Platform spec (core count, links, caches).
    cost_model:
        Work-to-time converter; its platform should be the same spec.
    graph:
        Optional flow graph; when given, partitioning requests are
        validated against each task's ``divisible`` /
        ``functional_parallel`` capability.
    fork_ms, join_ms:
        Fixed per-partition fork/join control overhead ("the overhead
        imposed by task switching and control", Section 4).
    halo_fraction:
        Fraction of a partitioned task's input re-read across stripe
        boundaries per extra partition (overlap of filter supports).
    dram_contention:
        Model DRAM bandwidth sharing between overlapping tasks.  Each
        scheduled task posts its external-traffic demand as a
        ``(start, end, bytes/ms)`` interval; a new task whose
        interval overlaps posted demand has its memory-bound part
        stretched by the aggregate oversubscription of the channel
        bandwidth.  The approximation is *causal* (a task only sees
        demand already scheduled), which keeps the schedule
        single-pass while capturing the first-order effect -- see
        DESIGN.md §7.
    """

    def __init__(
        self,
        platform,
        cost_model: CostModel,
        graph: FlowGraph | None = None,
        fork_ms: float = 0.12,
        join_ms: float = 0.10,
        halo_fraction: float = 0.02,
        dram_contention: bool = False,
    ) -> None:
        self.platform = platform
        self.cost_model = cost_model
        self.graph = graph
        self.fork_ms = float(fork_ms)
        self.join_ms = float(join_ms)
        self.halo_fraction = float(halo_fraction)
        self.dram_contention = bool(dram_contention)
        self.ledger = BandwidthLedger()
        #: Posted DRAM demand intervals: (start_ms, end_ms, bytes_per_ms).
        self._dram_demand: list[tuple[float, float, float]] = []

    # -- contention -----------------------------------------------------------

    def reset_contention(self) -> None:
        """Drop posted DRAM-demand intervals (e.g. between streams)."""
        self._dram_demand.clear()

    def _dram_slowdown(self, begin: float, end: float, own_rate: float) -> float:
        """Oversubscription factor of the DRAM channels on [begin, end].

        Aggregate demand rate (own + time-weighted overlap of posted
        intervals) over the total streaming capacity; 1.0 when the
        window is within capacity.
        """
        if end <= begin:
            return 1.0
        capacity = self.platform.total_dram_stream_bw / 1e3  # bytes/ms
        overlap_rate = 0.0
        window = end - begin
        for s, e, rate in self._dram_demand:
            ov = min(end, e) - max(begin, s)
            if ov > 0:
                overlap_rate += rate * (ov / window)
        total = own_rate + overlap_rate
        return max(1.0, total / capacity)

    # -- helpers --------------------------------------------------------------

    def _validate_partition(self, task: str, n_parts: int) -> None:
        if n_parts <= 1 or self.graph is None:
            return
        spec = self.graph.tasks.get(task)
        if spec is None:
            return
        if not (spec.divisible or spec.functional_parallel):
            raise ValueError(
                f"task {task!r} is neither divisible nor functionally "
                f"parallel; cannot split over {n_parts} cores"
            )

    def _comm_time_ms(
        self, nbytes: float, src_core: int, dst_core: int
    ) -> tuple[float, str]:
        """Transfer time and link label between two cores."""
        if src_core == dst_core:
            return 0.0, "l2"
        if self.platform.share_l2(src_core, dst_core):
            return nbytes / self.platform.l1_l2_bw * MS_PER_S, "l2"
        return nbytes / self.platform.l2_bus_bw * MS_PER_S, "bus"

    # -- main entry point ------------------------------------------------------

    def simulate_frame(
        self,
        reports: TMapping[str, WorkReport],
        mapping: Mapping,
        frame_key: tuple[object, ...] = (),
        start_ms: float = 0.0,
    ) -> FrameResult:
        """Simulate one frame's task chain under ``mapping``.

        Parameters
        ----------
        reports:
            Ordered task -> work report map (insertion order = flow
            order), e.g. ``FrameAnalysis.reports``.
        mapping:
            Task placement / partitioning.
        frame_key:
            Execution identity for the deterministic jitter streams.
        start_ms:
            Frame arrival time on the simulated clock.

        The frame sees an otherwise idle platform; for overlapping
        frames sharing the cores, use :meth:`simulate_stream`.
        """
        core_free = [start_ms] * self.platform.n_cores
        return self._schedule_chain(reports, mapping, frame_key, start_ms, core_free)

    def simulate_stream(
        self,
        frames: list[tuple[TMapping[str, WorkReport], Mapping, tuple[object, ...]]],
        period_ms: float,
        arrivals: list[float] | None = None,
    ) -> list[FrameResult]:
        """Simulate frames arriving every ``period_ms`` on shared cores.

        Per-frame effective latency can exceed the frame period (the
        paper's 60-120 ms latencies at a 33 ms / 30 Hz period), so a
        sustainable deployment keeps several frames *in flight*:
        frame ``k+1`` starts on whatever cores are free while frame
        ``k`` is still completing.  The core timelines persist across
        frames, so insufficient capacity shows up as unboundedly
        growing latency -- the throughput-collapse signature the
        managed runtime must avoid ("guarantees a constant
        throughput", Section 8).

        Parameters
        ----------
        frames:
            Per-frame ``(reports, mapping, frame_key)`` triples in
            arrival order.  Rotating the mapping's cores across frames
            (see :meth:`repro.hw.mapping.Mapping.rotated`) spreads
            consecutive frames over the platform.
        period_ms:
            Frame inter-arrival time (33.3 ms at 30 Hz).
        arrivals:
            Optional explicit arrival times, overriding the periodic
            ``k * period_ms`` schedule -- this is how several
            applications sharing the platform interleave (frames of
            different apps arriving at the same tick).  Must be
            non-decreasing and match ``frames`` in length.

        Returns
        -------
        One :class:`FrameResult` per frame; ``latency_ms`` is measured
        from the frame's *arrival*, so queueing delay is included.
        """
        if period_ms <= 0:
            raise ValueError("period must be positive")
        if arrivals is not None:
            if len(arrivals) != len(frames):
                raise ValueError("arrivals must match frames in length")
            if any(b < a for a, b in zip(arrivals, arrivals[1:])):
                raise ValueError("arrivals must be non-decreasing")
        core_free = [0.0] * self.platform.n_cores
        results: list[FrameResult] = []
        for k, (reports, mapping, frame_key) in enumerate(frames):
            arrival = arrivals[k] if arrivals is not None else k * period_ms
            results.append(
                self._schedule_chain(reports, mapping, frame_key, arrival, core_free)
            )
        return results

    def simulate_costed_frame(self, *args: object, **kwargs: object) -> FrameResult:
        """Placeholder: every frame is priced by :meth:`simulate_frame`.

        The name stays only because the traced benchmark run
        (``perfbench/layers.py``) wraps it by ``vars(cls)[name]``;
        nothing calls it.  It goes with that wrap.
        """
        raise NotImplementedError("use simulate_frame")

    def _schedule_chain(
        self,
        reports: TMapping[str, WorkReport],
        mapping: Mapping,
        frame_key: tuple[object, ...],
        start_ms: float,
        core_free: list[float],
    ) -> FrameResult:
        """Schedule one frame's chain onto (possibly busy) timelines."""
        max_core = mapping.max_core()
        if max_core >= self.platform.n_cores:
            raise ValueError(
                f"mapping uses core {max_core} but platform has "
                f"{self.platform.n_cores} cores"
            )
        scale = self.cost_model.pixel_scale
        # Hoisted out of the task loop (loop-invariant attribute chain).
        l2_bus_bw = self.platform.l2_bus_bw

        timings: list[TaskTiming] = []
        task_ms: dict[str, float] = {}
        eviction_total = 0
        external_total = 0
        prev_end = start_ms
        prev_core: int | None = None
        prev_out_bytes = 0.0

        for name, report in reports.items():
            cores = mapping.cores_for(name)
            n_parts = len(cores)
            self._validate_partition(name, n_parts)

            breakdown = self.cost_model.time_ms(report, frame_key=frame_key)
            compute_ms = breakdown.total_ms
            eviction_total += breakdown.cache.eviction_bytes
            external_total += breakdown.cache.external_bytes
            self.ledger.record("dram", breakdown.cache.external_bytes)

            # Input transfer from the producing task's core.
            comm_ms = 0.0
            if prev_core is not None and prev_out_bytes > 0:
                comm_ms, link = self._comm_time_ms(
                    prev_out_bytes, prev_core, cores[0]
                )
                self.ledger.record(link, prev_out_bytes)

            # Optional DRAM sharing: stretch the memory-bound part of
            # the task by the channel oversubscription in its window.
            if self.dram_contention and compute_ms > 0:
                est_begin = max(prev_end + comm_ms, core_free[cores[0]])
                own_rate = breakdown.cache.external_bytes / compute_ms
                factor = self._dram_slowdown(
                    est_begin, est_begin + compute_ms, own_rate
                )
                compute_ms += breakdown.cache_stall_ms * (factor - 1.0)
            task_ms[name] = compute_ms

            if n_parts == 1:
                core = cores[0]
                begin = max(prev_end + comm_ms, core_free[core])
                end = begin + compute_ms
                core_free[core] = end
                overhead_ms = 0.0
            else:
                # Partitioned execution: fork, run slices in parallel,
                # join.  Each extra partition re-reads a halo slice of
                # the input (overlapping filter supports).
                halo_bytes = (
                    report.bytes_in * scale * self.halo_fraction * (n_parts - 1)
                )
                self.ledger.record("bus", halo_bytes)
                halo_ms = halo_bytes / l2_bus_bw * MS_PER_S
                slice_ms = compute_ms / n_parts + halo_ms
                overhead_ms = self.fork_ms + self.join_ms
                fork_done = max(prev_end + comm_ms, core_free[cores[0]]) + self.fork_ms
                slice_ends = []
                for core in cores:
                    b = max(fork_done, core_free[core])
                    e = b + slice_ms
                    core_free[core] = e
                    slice_ends.append(e)
                begin = fork_done - self.fork_ms
                end = max(slice_ends) + self.join_ms
                core_free[cores[0]] = max(core_free[cores[0]], end)

            timings.append(
                TaskTiming(
                    task=name,
                    start_ms=begin,
                    end_ms=end,
                    cores=cores,
                    compute_ms=compute_ms,
                    comm_ms=comm_ms,
                    overhead_ms=overhead_ms,
                    breakdown=breakdown,
                )
            )
            if self.dram_contention and end > begin:
                self._dram_demand.append(
                    (begin, end, breakdown.cache.external_bytes / (end - begin))
                )
            prev_end = end
            prev_core = cores[0]
            prev_out_bytes = report.bytes_out * scale

        self.ledger.frame_done()
        o = obs.get_obs()
        if o.enabled:
            o.metrics.counter("hw_eviction_bytes_total").inc(float(eviction_total))
            o.metrics.counter("hw_external_bytes_total").inc(float(external_total))
        return FrameResult(
            latency_ms=prev_end - start_ms,
            timings=timings,
            task_ms=task_ms,
            eviction_bytes=eviction_total,
            external_bytes=external_total,
        )
