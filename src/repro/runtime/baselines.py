"""Baselines the paper compares Triple-C management against.

* :func:`run_straightforward` -- the static serial mapping of Fig. 7's
  red curve: no prediction, no repartitioning; latency follows the
  content (60-120 ms swings in the paper).
* :func:`run_worst_case` -- the Section 6 strawman: reserve for the
  worst case and pad every frame to it with a delay line.  It does
  stabilize latency, but "for most of the time the reserved resource
  budget is set too conservative [and] the output latency is higher
  than actually required".

Both are one-line policy configurations of the frame engine, so they
share its loop, logging and telemetry with the managed run.
"""

from __future__ import annotations

from repro.hw.simulator import PlatformSimulator
from repro.imaging.pipeline import AnalysisPipeline
from repro.runtime.engine import (
    FrameEngine,
    RunResult,
    StaticSerialPolicy,
    WorstCaseReservationPolicy,
)
from repro.synthetic.sequence import XRaySequence

__all__ = ["run_straightforward", "run_worst_case"]


def run_straightforward(
    sequence: XRaySequence,
    pipeline: AnalysisPipeline,
    simulator: PlatformSimulator,
    seq_key: object = 0,
) -> RunResult:
    """Static serial mapping, no QoS: latency = content.

    This is the paper's "straightforward mapping" whose effective
    latency "can vary between 60 and 120 ms" (Section 7).
    """
    engine = FrameEngine(simulator, StaticSerialPolicy())
    return engine.run(sequence, pipeline, seq_key=seq_key)


def run_worst_case(
    sequence: XRaySequence,
    pipeline: AnalysisPipeline,
    simulator: PlatformSimulator,
    worst_case_ms: float,
    seq_key: object = 0,
) -> RunResult:
    """Worst-case reservation: serial execution + pad to worst case.

    ``worst_case_ms`` is the reserved budget (e.g. the maximum
    latency observed over a training corpus, plus margin).  Output
    latency is constant but maximal -- the drawback Section 6 calls
    out before introducing the prediction-driven alternative.
    """
    engine = FrameEngine(simulator, WorstCaseReservationPolicy(worst_case_ms))
    return engine.run(sequence, pipeline, seq_key=seq_key)
