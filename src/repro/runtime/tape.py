"""Frame tapes: a sequence's analysis pass, recorded once.

Running a sequence through the engine interleaves two very different
kinds of work: the *image* pass (``pipeline.process`` on every frame)
and the *scheduling* pass (predict, partition, simulate, observe).
A :class:`FrameTape` records the image pass -- every
:class:`~repro.imaging.pipeline.FrameAnalysis` plus the ROI size that
was visible at planning time -- so the scheduling pass can be re-run
on its own.  :meth:`FrameEngine.run_tape
<repro.runtime.engine.FrameEngine.run_tape>` replays it through the
engine's one per-frame loop, with :class:`TapeSequence` and
:class:`TapePipeline` standing in for the sequence and the pipeline.

The planning-time ROI needs care: the loop plans frame ``k``
*before* processing it, so the policy sees the ROI tracker state left
by frame ``k - 1``.  :func:`record_tape` reads the ROI at exactly
that point (before ``process``), which is what makes replays
reproduce a live run's plans byte for byte.

A tape is also the unit of reuse: :func:`tape_for` holds one tape per
``(sequence, pipeline replay key)`` for as long as the sequence
object lives, so every open-loop policy run over one sequence shares
a single image pass (see :meth:`FrameEngine.run
<repro.runtime.engine.FrameEngine.run>`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np

import repro.obs as obs
from repro.imaging.pipeline import AnalysisPipeline, FrameAnalysis
from repro.synthetic.sequence import XRaySequence

__all__ = [
    "FrameTape",
    "TapePipeline",
    "TapeSequence",
    "record_tape",
    "tape_for",
]


@dataclass(frozen=True)
class FrameTape:
    """One sequence's recorded analysis pass.

    Attributes
    ----------
    analyses:
        Per-frame pipeline output, in frame order.
    plan_roi_px:
        Pixels the policy would size its prediction with at planning
        time (the tracked ROI of the previous frame, or the full
        frame) -- ``int64``, one entry per frame.
    """

    analyses: tuple[FrameAnalysis, ...]
    plan_roi_px: np.ndarray

    def __post_init__(self) -> None:
        if self.plan_roi_px.shape != (len(self.analyses),):
            raise ValueError("plan_roi_px must have one entry per frame")

    def __len__(self) -> int:
        return len(self.analyses)


def record_tape(sequence: XRaySequence, pipeline: AnalysisPipeline) -> FrameTape:
    """Run the image pass of ``sequence`` and record it as a tape.

    The pipeline is consumed: its tracker state advances as in a live
    run.
    """
    n = len(sequence)
    roi_px = np.empty(n, dtype=np.int64)
    analyses: list[FrameAnalysis] = []
    for k, (img, _truth) in enumerate(sequence.iter_frames()):
        roi = pipeline.roi
        roi_px[k] = roi.pixels if roi is not None else img.size
        analyses.append(pipeline.process(img))
    return FrameTape(analyses=tuple(analyses), plan_roi_px=roi_px)


#: sequence -> {pipeline replay key: tape}; an entry dies with its
#: sequence object.
_TAPES: weakref.WeakKeyDictionary[XRaySequence, dict[Hashable, FrameTape]] = (
    weakref.WeakKeyDictionary()
)


def tape_for(
    sequence: XRaySequence, pipeline: AnalysisPipeline, key: Hashable
) -> FrameTape:
    """The tape of ``sequence`` under a pipeline with replay key ``key``.

    The first call records it with :func:`record_tape`, consuming
    ``pipeline`` as a live run would; later calls with an equal key
    return the same tape and leave their ``pipeline`` untouched.
    """
    tapes = _TAPES.setdefault(sequence, {})
    tape = tapes.get(key)
    if tape is None:
        o = obs.get_obs()
        with o.tracer.span("engine.record_tape") as sp:
            tape = record_tape(sequence, pipeline)
            if o.enabled:
                sp.set(frames=len(tape))
        tapes[key] = tape
    return tape


class _TapeImage:
    """Image stand-in: policies only ever read ``img.size``."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        self.size = size


class _TapeRoi:
    __slots__ = ("pixels",)

    def __init__(self, pixels: int) -> None:
        self.pixels = pixels


class TapePipeline:
    """Pipeline stand-in that replays a tape's recorded analyses.

    ``roi`` exposes the recorded planning-time ROI of the next frame;
    ``process`` returns that frame's recorded analysis and advances.
    Together with :class:`TapeSequence` this lets the unmodified
    engine loop re-run a tape bit-exactly.
    """

    def __init__(self, tape: FrameTape) -> None:
        self._tape = tape
        self._cursor = 0
        #: QoS slot required by the AnalysisPipeline protocol; replay
        #: is pre-recorded, so writes have no effect on the analyses.
        self.quality = None

    @property
    def roi(self) -> _TapeRoi:
        return _TapeRoi(int(self._tape.plan_roi_px[self._cursor]))

    def reset(self) -> None:
        self._cursor = 0

    def replay_key(self) -> None:
        """Never memoized: a replay is already a tape."""
        return None

    def process(self, img: object) -> FrameAnalysis:  # noqa: ARG002
        k = self._cursor
        self._cursor = k + 1
        return self._tape.analyses[k]


class TapeSequence:
    """Sequence stand-in yielding placeholder images over a tape."""

    def __init__(self, tape: FrameTape) -> None:
        self._tape = tape

    def __len__(self) -> int:
        return len(self._tape)

    def iter_frames(self) -> Iterator[tuple[_TapeImage, None]]:
        plan_roi_px = self._tape.plan_roi_px
        for px in plan_roi_px:
            yield _TapeImage(int(px)), None
