"""The resource manager: predict -> repartition -> execute -> observe.

This is the Section 6 runtime loop that produces the paper's Fig. 7
"semi-auto parallel" curve:

* **Initialization** -- the latency budget is set close to the
  average case (from the trained model's stationary expectation).
* **Runtime adaptation** -- each frame's Triple-C prediction drives a
  repartitioning decision before the frame executes.
* **Profiling** -- measured times feed back into the model
  (EWMA/Markov state always; transition counts too when the model
  was fitted with ``online_update=True``).

Since the engine refactor the loop itself lives in
:class:`repro.runtime.engine.FrameEngine`; this class is the
:class:`~repro.runtime.engine.TripleCPolicy` configuration with the
historical constructor, kept as the runtime's front door.
:class:`FrameLog` and :class:`RunResult` are re-exported from the
engine module unchanged.
"""

from __future__ import annotations

from repro.core.triplec import TripleC
from repro.hw.simulator import PlatformSimulator
from repro.imaging.pipeline import AnalysisPipeline
from repro.runtime.engine import FrameEngine, FrameLog, RunResult, TripleCPolicy
from repro.runtime.partition import Partitioner
from repro.synthetic.sequence import XRaySequence

__all__ = ["FrameLog", "RunResult", "ResourceManager"]


class ResourceManager:
    """Per-frame managed execution of a sequence.

    Parameters
    ----------
    triplec:
        A trained Triple-C model.
    simulator:
        Platform simulator executing the mapped frames.
    partitioner:
        Partitioning policy; built with the simulator's overhead
        constants when omitted.
    budget_ms:
        Explicit latency budget; derived from the model's
        average-case expectation when omitted.
    slack:
        Headroom multiplier of the auto-initialized budget.
    """

    def __init__(
        self,
        triplec: TripleC,
        simulator: PlatformSimulator,
        partitioner: Partitioner | None = None,
        budget_ms: float | None = None,
        slack: float = 1.08,
        quality_controller=None,
    ) -> None:
        self.triplec = triplec
        self.simulator = simulator
        self.policy = TripleCPolicy.for_simulator(
            triplec,
            simulator,
            partitioner=partitioner,
            budget_ms=budget_ms,
            slack=slack,
            quality_controller=quality_controller,
        )
        self.engine = FrameEngine(simulator, self.policy)

    @property
    def partitioner(self) -> Partitioner:
        return self.policy.partitioner

    @property
    def budget(self):
        return self.policy.budget

    @property
    def quality_controller(self):
        return self.policy.quality_controller

    def initialize_budget(self) -> float:
        """Section 6 "Initialization": budget near the average case."""
        return self.policy.initialize_budget()

    def run_sequence(
        self,
        sequence: XRaySequence,
        pipeline: AnalysisPipeline,
        seq_key: object = 0,
        label: str = "triple-c managed",
    ) -> RunResult:
        """Run one sequence under management."""
        return self.engine.run(sequence, pipeline, seq_key=seq_key, label=label)
