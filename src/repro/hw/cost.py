"""Calibrated work-to-time cost model.

Converts a :class:`~repro.imaging.common.WorkReport` into simulated
milliseconds on one core of the platform:

    total = fixed + per_kpixel * kpixels_native
          + sum_c per_count[c] * count_native[c]
          + cache_stall + jitter

The constants are calibrated so that at the native 1024x1024 geometry
the mean task times match Table 2(b) of the paper (MKX 2.5 ms, REG
2 ms, ROI EST 1 ms, ENH 24 ms, ZOOM 12.5 ms) and the RDG FULL series
lands in the 35-55 ms band of Fig. 3.  Content-dependent counts
(ridge pixels, candidate pairs, wire path samples) carry the
data-dependent fluctuation that Triple-C's Markov chains model;
a small seeded multiplicative jitter stands in for the cache-miss and
task-switching noise the paper attributes short-term fluctuation to.

``pixel_scale`` rescales work metrics measured on down-sampled frames
to native geometry (area factor; ``(1024/256)**2 = 16`` for the
default 256x256 experiments), so simulated milliseconds stay in the
paper's range regardless of the rendering resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import repro.obs as obs
from repro.hw.cache import CacheUsage, analyze_report
from repro.hw.spec import PlatformSpec
from repro.imaging.common import WorkReport
from repro.util.quantity import Kpixels, Milliseconds
from repro.util.rng import rng_stream
from repro.util.units import MS_PER_S, PX_PER_KPX

__all__ = [
    "TaskCostSpec",
    "CostBreakdown",
    "CostModel",
    "DEFAULT_TASK_COSTS",
]

#: How each named count rescales with resolution: pixel-like counts
#: grow with frame *area*, contour-like counts with the *linear* size,
#: feature counts (candidates, pairs) not at all.
COUNT_SCALING: Mapping[str, str] = MappingProxyType(
    {
        "ridge_pixels": "area",
        "band_pixels": "area",
        "roi_kpixels": "area",
        "out_kpixels": "area",
        "path_samples": "linear",
        "pairs_tested": "none",
        "candidates": "none",
        "raw_components": "none",
        "integrated_frames": "none",
        # Counts of the non-StentBoost registry workloads.
        "flow_vectors": "area",
        "echo_samples": "area",
        "track_points": "linear",
        "plan_cells": "none",
        "detections": "none",
    }
)


@dataclass(frozen=True)
class TaskCostSpec:
    """Cost constants of one task.

    Attributes
    ----------
    fixed_ms:
        Per-execution overhead (control, setup, feature math).
    per_kpixel_ms:
        Cost per 1,000 native-equivalent units of ``report.pixels``.
    per_count_ms:
        Cost per native-equivalent unit of each named count.
    """

    fixed_ms: Milliseconds
    per_kpixel_ms: float = 0.0
    per_count_ms: Mapping[str, float] = field(default_factory=dict)


#: Calibrated constants (see module docstring and the calibration
#: test ``tests/hw/test_calibration.py``).
DEFAULT_TASK_COSTS: Mapping[str, TaskCostSpec] = MappingProxyType(
    {
        "RDG_DETECT": TaskCostSpec(fixed_ms=0.2, per_kpixel_ms=0.005),
        "RDG_FULL": TaskCostSpec(
            fixed_ms=1.2,
            per_kpixel_ms=0.0145,
            per_count_ms={"ridge_pixels": 0.00012},
        ),
        "RDG_ROI": TaskCostSpec(
            fixed_ms=1.2,
            per_kpixel_ms=0.0145,
            per_count_ms={"ridge_pixels": 0.00012},
        ),
        "MKX_FULL": TaskCostSpec(
            fixed_ms=0.3, per_kpixel_ms=0.0012, per_count_ms={"candidates": 0.01}
        ),
        "MKX_ROI": TaskCostSpec(
            fixed_ms=0.3, per_kpixel_ms=0.0012, per_count_ms={"candidates": 0.01}
        ),
        "MKX_FULL_RDG": TaskCostSpec(
            fixed_ms=0.3, per_kpixel_ms=0.0012, per_count_ms={"candidates": 0.01}
        ),
        "MKX_ROI_RDG": TaskCostSpec(
            fixed_ms=0.3, per_kpixel_ms=0.0012, per_count_ms={"candidates": 0.01}
        ),
        "CPLS_SEL": TaskCostSpec(
            fixed_ms=0.4, per_count_ms={"pairs_tested": 0.006}
        ),
        "REG": TaskCostSpec(fixed_ms=2.0),
        "ROI_EST": TaskCostSpec(fixed_ms=1.0),
        "GW_EXT": TaskCostSpec(
            fixed_ms=0.5,
            per_count_ms={"band_pixels": 0.00001, "path_samples": 0.001},
        ),
        "ENH": TaskCostSpec(fixed_ms=0.9, per_kpixel_ms=0.0096),
        "ZOOM": TaskCostSpec(fixed_ms=1.2, per_kpixel_ms=0.0053),
    }
)


@dataclass(frozen=True)
class CostBreakdown:
    """Decomposed simulated time of one task execution.

    ``total_ms = base_ms + content_ms + cache_stall_ms + jitter_ms``.
    """

    task: str
    base_ms: Milliseconds
    content_ms: Milliseconds
    cache_stall_ms: Milliseconds
    jitter_ms: Milliseconds
    cache: CacheUsage

    @property
    def total_ms(self) -> Milliseconds:
        return self.base_ms + self.content_ms + self.cache_stall_ms + self.jitter_ms

    @property
    def noise_free_ms(self) -> Milliseconds:
        """Deterministic part (what an oracle predictor could know)."""
        return self.base_ms + self.content_ms + self.cache_stall_ms


class CostModel:
    """Work-report -> simulated-milliseconds converter.

    Parameters
    ----------
    platform:
        Platform spec (provides the L2 capacity and DRAM bandwidth
        used for cache-stall accounting).
    pixel_scale:
        Area factor from processed to native resolution.
    jitter_sigma:
        Log-std-dev of the multiplicative execution jitter.
    spike_prob, spike_range:
        Probability and multiplicative range of sporadic slowdowns
        (OS preemption, cold caches after a context switch).
    seed:
        Root seed of the jitter streams.
    task_costs:
        Override table; defaults to :data:`DEFAULT_TASK_COSTS`.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        pixel_scale: float = 1.0,
        jitter_sigma: float = 0.01,
        spike_prob: float = 0.015,
        spike_range: tuple[float, float] = (1.05, 1.22),
        seed: int = 0,
        task_costs: Mapping[str, TaskCostSpec] | None = None,
    ) -> None:
        if pixel_scale <= 0:
            raise ValueError("pixel_scale must be positive")
        self.platform = platform
        self.pixel_scale = float(pixel_scale)
        self.jitter_sigma = float(jitter_sigma)
        self.spike_prob = float(spike_prob)
        self.spike_range = spike_range
        self.seed = int(seed)
        self.task_costs = dict(task_costs or DEFAULT_TASK_COSTS)

    # -- scaling helpers -----------------------------------------------------

    def scale_count(self, name: str, value: float) -> float:
        """Rescale a named count to native geometry."""
        mode = COUNT_SCALING.get(name, "none")
        if mode == "area":
            return value * self.pixel_scale
        if mode == "linear":
            return value * math.sqrt(self.pixel_scale)
        return value

    def native_kpixels(self, report: WorkReport) -> Kpixels:
        """Native-equivalent kilo-units of ``report.pixels``."""
        return report.pixels * self.pixel_scale / PX_PER_KPX

    # -- main conversion -----------------------------------------------------

    def time_ms(
        self,
        report: WorkReport,
        frame_key: tuple[object, ...] = (),
        with_jitter: bool = True,
    ) -> CostBreakdown:
        """Simulated single-core time of one task execution.

        Parameters
        ----------
        report:
            The task's work report.
        frame_key:
            Identifies the execution (e.g. ``(seq_id, frame_idx)``) so
            the jitter draw is deterministic per execution.
        with_jitter:
            Disable to obtain the noise-free cost (used by oracle
            baselines and calibration tests).
        """
        try:
            spec = self.task_costs[report.task]
        except KeyError as exc:
            raise KeyError(
                f"no cost spec for task {report.task!r}; known: "
                f"{sorted(self.task_costs)}"
            ) from exc

        base = spec.fixed_ms + spec.per_kpixel_ms * self.native_kpixels(report)
        content = 0.0
        for cname, unit_ms in spec.per_count_ms.items():
            content += unit_ms * self.scale_count(cname, report.count(cname))

        cache = analyze_report(
            report, self.platform.l2.capacity_bytes, self.pixel_scale
        )
        stall_ms = cache.eviction_bytes / self.platform.dram_stream_bw * MS_PER_S

        jitter_ms = 0.0
        if with_jitter:
            rng = rng_stream(self.seed, "jitter", report.task, *frame_key)
            factor = math.exp(rng.normal(0.0, self.jitter_sigma))
            spiked = rng.random() < self.spike_prob
            if spiked:
                factor *= rng.uniform(*self.spike_range)
            jitter_ms = (base + content + stall_ms) * (factor - 1.0)
            o = obs.get_obs()
            if o.enabled:
                o.metrics.counter("cost_jitter_draw_total").inc()
                if spiked:
                    o.metrics.counter("cost_jitter_spike_total").inc()
                o.metrics.histogram("cost_jitter_ms", task=report.task).observe(
                    jitter_ms
                )

        return CostBreakdown(
            task=report.task,
            base_ms=base,
            content_ms=content,
            cache_stall_ms=stall_ms,
            jitter_ms=jitter_ms,
            cache=cache,
        )
