"""The benchmark's three workloads.

Each workload is a ``setup(seed, fresh_dir)`` that builds what the
measured phase needs and a ``run_round(state, index, fresh_dir)`` that
does one round of measured work.  A round returns its operation count,
the operations that failed an output check, its simulated metrics and
the material its digest is computed from.  Rounds after the first use
inputs of their own (derived from the seed and the round index), so
no in-process memo can make a repeated round free; the simulated
metrics of the first rounds repeat exactly at a fixed seed.

``fresh_dir()`` returns a new empty directory; every set-up and round
points ``REPRO_CACHE_DIR`` at one, so no on-disk trace or tape cache
survives from one to the next.
"""

from __future__ import annotations

import copy
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import prediction_accuracy
from repro.experiments.common import ExperimentContext, make_pipeline
from repro.fleet import estimates
from repro.fleet.cli import POLICIES
from repro.fleet.jobs import synthetic_burst_trace
from repro.fleet.nodes import default_fleet
from repro.fleet.simulator import FleetSimulator
from repro.parallel import available_cpus
from repro.profiling import ProfileConfig
from repro.runtime import (
    FrameEngine,
    QualityController,
    TripleCPolicy,
    run_straightforward,
    run_worst_case,
)
from repro.synthetic import CorpusSpec
from repro.synthetic.sequence import SequenceConfig, XRaySequence
from repro.util.rng import spawn_seeds
from repro.util.stats import jitter_metrics
from repro.workloads import get_workload, workload_names

__all__ = ["Round", "WORKLOADS"]

#: Enough per-round seeds for any run length.
MAX_ROUNDS = 256


@dataclass
class Round:
    """Outcome of one measured round."""

    ops: int
    failed: int
    sim: dict[str, float]
    digest_parts: list[bytes]
    #: Frames profiled through the process pool in this round.
    pool_frames: int = 0
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(part)
        return h.hexdigest()[:16]


def _arrays(*arrays: np.ndarray) -> list[bytes]:
    return [np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays]


def _round_seed(seed: int, workload: str, index: int) -> int:
    return spawn_seeds(seed, MAX_ROUNDS, "perfbench", workload)[index]


def _use_cache_dir(fresh_dir: Callable[[], Path]) -> None:
    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir())


def _context(spec: CorpusSpec, workload: str = "stentboost") -> ExperimentContext:
    return ExperimentContext(
        corpus_spec=spec,
        profile_config=ProfileConfig(workload=workload),
        jobs=available_cpus(),
    )


def _corpus_rows_ok(ctx: ExperimentContext) -> bool:
    """The merged TraceSet holds exactly one row per rendered frame."""
    configs = get_workload(ctx.workload).corpus_configs(ctx.corpus_spec)
    expected = [(seq, k) for seq, cfg in enumerate(configs) for k in range(cfg.n_frames)]
    return [(r.seq, r.frame) for r in ctx.traces.records] == expected


#: StentBoost training corpus (latency-control set-up, train-and-deploy
#: rounds).  ``TripleC.fit`` raises when the ROI ridge task (RDG_ROI)
#: ran exactly once in the corpus.  One sequence runs it exactly once
#: ~3 % of the time and never ~40 %, so a 2-sequence corpus trips it
#: ~2 % of the time; with 16 sequences it is under 1 in 10^5.
STENTBOOST_CORPUS = dict(n_sequences=16, total_frames=256)


# -- latency-control ---------------------------------------------------------
#: Frames of the per-round test sequence.
LC_FRAMES = 30


def lc_setup(seed: int, fresh_dir: Callable[[], Path]) -> dict[str, Any]:
    _use_cache_dir(fresh_dir)
    ctx = _context(CorpusSpec(base_seed=seed, **STENTBOOST_CORPUS))
    model = ctx.model  # profiles the corpus through the pool, then fits
    ok = _corpus_rows_ok(ctx)
    return {
        "seed": seed,
        "ctx": ctx,
        "model": model,
        "pool_frames": STENTBOOST_CORPUS["total_frames"],
        "problems": [] if ok else ["training TraceSet rows != rendered frames"],
    }


def lc_round(state: dict[str, Any], index: int, fresh_dir: Callable[[], Path]) -> Round:
    """Fig. 7 shape: one test sequence under three open-loop policies."""
    _use_cache_dir(fresh_dir)
    ctx: ExperimentContext = state["ctx"]
    seq = XRaySequence(
        SequenceConfig(
            n_frames=LC_FRAMES,
            seed=_round_seed(state["seed"], "latency-control", index),
            clutter_level=0.9,
            contrast_base=0.35,
            injection_frame=LC_FRAMES // 5,
            visibility_dips=1,
        )
    )
    key = ("latency-control", index)
    sw = run_straightforward(
        seq, make_pipeline(seq), ctx.profile_config.make_simulator(), seq_key=key
    )
    sim = ctx.profile_config.make_simulator()
    model = copy.deepcopy(state["model"])  # observe() adapts it online
    managed = FrameEngine(sim, TripleCPolicy.for_simulator(model, sim))
    mg = managed.run(seq, make_pipeline(seq), seq_key=key)
    wc = run_worst_case(
        seq,
        make_pipeline(seq),
        ctx.profile_config.make_simulator(),
        worst_case_ms=float(sw.latency().max()) * 1.05,
        seq_key=key,
    )

    # Every policy logs every frame and sees the same scenarios and
    # serial task times: only the mapping differs between them.
    problems = []
    runs = (sw, mg, wc)
    if any(len(r) != LC_FRAMES for r in runs):
        raise RuntimeError("a policy did not log every frame")
    sids = [r.table.column("actual_scenario") for r in runs]
    serial = [r.serial_latency() for r in runs]
    bad = np.zeros(LC_FRAMES, dtype=bool)
    for s, t in zip(sids[1:], serial[1:]):
        bad |= (s != sids[0]) | (t != serial[0])
    failed = 3 * int(bad.sum())
    if failed:
        problems.append(f"{int(bad.sum())} frames differ between policies")

    j_sw = jitter_metrics(sw.latency())
    j_mg = jitter_metrics(mg.latency())
    j_out = jitter_metrics(mg.output_latency())
    sim_metrics = {
        "latency_worst_over_avg": j_mg.worst_over_avg,
        "output_jitter_reduction": 1.0 - j_out.std / j_sw.std,
        "deadline_miss_rate": float(np.mean(mg.latency() > mg.budget_ms)),
        "prediction_accuracy": prediction_accuracy(
            mg.predicted()[3:], mg.serial_latency()[3:]
        ).mean_accuracy,
    }
    parts = _arrays(
        sids[0],
        *(
            a
            for r in runs
            for a in (r.latency(), r.output_latency(), r.serial_latency(), r.predicted())
        ),
    )
    return Round(3 * LC_FRAMES, failed, sim_metrics, parts, problems=problems)


# -- train-and-deploy --------------------------------------------------------

#: Training corpus profiled per round for each registered workload
#: other than StentBoost (which uses ``STENTBOOST_CORPUS``).
TD_CORPUS = dict(n_sequences=2, total_frames=64)
#: Held-out StentBoost sequences run closed-loop, per round.
TD_HELD_OUT = 2
TD_HELD_OUT_FRAMES = 20
#: Budget as a share of the model's expected serial frame time; below
#: the ~0.7 at which partitioning alone meets it, so the quality
#: controller engages.
TD_BUDGET_SLACK = 0.6


def td_setup(seed: int, fresh_dir: Callable[[], Path]) -> dict[str, Any]:
    return {"seed": seed, "workloads": workload_names(), "pool_frames": 0, "problems": []}


def td_round(state: dict[str, Any], index: int, fresh_dir: Callable[[], Path]) -> Round:
    """Profile + fit every registered workload, then deploy closed-loop."""
    _use_cache_dir(fresh_dir)
    seed = _round_seed(state["seed"], "train-and-deploy", index)
    problems = []
    failed = 0
    parts: list[bytes] = []
    models = {}
    corpus_frames = 0
    for i, name in enumerate(state["workloads"]):
        corpus = STENTBOOST_CORPUS if name == "stentboost" else TD_CORPUS
        ctx = _context(CorpusSpec(base_seed=seed + i, **corpus), name)
        models[name] = ctx.model
        if not _corpus_rows_ok(ctx):
            problems.append(f"{name}: TraceSet rows != rendered frames")
            failed += corpus["total_frames"]
        parts += _arrays(ctx.traces.latencies())
        corpus_frames += corpus["total_frames"]

    model = models["stentboost"]
    profile = ProfileConfig()
    accuracy, misses, degraded, frames = [], 0, 0, 0
    for h, held_seed in enumerate(spawn_seeds(seed, TD_HELD_OUT, "held-out")):
        seq = XRaySequence(
            SequenceConfig(
                n_frames=TD_HELD_OUT_FRAMES,
                seed=held_seed,
                clutter_level=0.9,
                injection_frame=TD_HELD_OUT_FRAMES // 4,
                visibility_dips=1,
            )
        )
        sim = profile.make_simulator()
        policy = TripleCPolicy.for_simulator(
            model,
            sim,
            slack=TD_BUDGET_SLACK,
            quality_controller=QualityController(),
        )
        run = FrameEngine(sim, policy).run(
            seq, make_pipeline(seq), seq_key=("held-out", index, h)
        )
        if len(run) != TD_HELD_OUT_FRAMES:
            problems.append("closed loop did not log every frame")
            failed += TD_HELD_OUT_FRAMES
            continue
        quality = [f.quality for f in run.frames]
        frames += len(run)
        misses += int(np.count_nonzero(run.latency() > run.budget_ms))
        degraded += sum(q != "full" for q in quality)
        accuracy.append(
            prediction_accuracy(run.predicted()[3:], run.serial_latency()[3:]).mean_accuracy
        )
        parts += _arrays(run.latency(), run.output_latency(), run.predicted())
        parts.append(",".join(quality).encode())
    sim_metrics = {
        "prediction_accuracy": float(np.mean(accuracy)) if accuracy else 0.0,
        "deadline_miss_rate": misses / frames if frames else 0.0,
        "quality_degraded_share": degraded / frames if frames else 0.0,
    }
    ops = corpus_frames + TD_HELD_OUT * TD_HELD_OUT_FRAMES
    return Round(ops, failed, sim_metrics, parts, corpus_frames, problems)


# -- fleet-burst -------------------------------------------------------------

#: Jobs of each burst trace; >= 1000 completions per policy leave at
#: least ten samples beyond p99.
FB_JOBS = 2000
#: Distinct traces built during set-up; rounds cycle through them.
FB_TRACES = 12
FB_POLICIES = ("fcfs", "easy", "predictive")


def fb_setup(seed: int, fresh_dir: Callable[[], Path]) -> dict[str, Any]:
    traces = [
        synthetic_burst_trace(n_jobs=FB_JOBS, seed=s)
        for s in spawn_seeds(seed, FB_TRACES, "perfbench", "fleet-burst")
    ]
    return {"seed": seed, "traces": traces, "digests": {}, "pool_frames": 0, "problems": []}


def fb_round(state: dict[str, Any], index: int, fresh_dir: Callable[[], Path]) -> Round:
    """One burst trace under every policy on the reference fleet.

    The fleet keeps no cache, so a round that replays a trace must
    reproduce the earlier round on it exactly.
    """
    slot = index % FB_TRACES
    trace = state["traces"][slot]
    by_id = {j.job_id: j for j in trace}
    problems = []
    failed = 0
    summaries, results = {}, {}
    for name in FB_POLICIES:
        scheduler_cls, kind = POLICIES[name]
        result = FleetSimulator(
            default_fleet(), scheduler_cls(), estimates.make_estimator(kind, trace)
        ).run(trace)
        done, shed = result.completed, result.shed
        early = sum(1 for o in done if o.start_ms < by_id[o.job_id].submit_ms)
        ids_ok = sorted(o.job_id for o in result.outcomes) == sorted(by_id)
        if len(done) + len(shed) != len(trace) or not ids_ok:
            problems.append(f"{name}: completed + shed != submitted")
            failed += len(trace)
        elif early:
            problems.append(f"{name}: {early} jobs started before submission")
            failed += early
        if len(done) < 1000:
            problems.append(f"{name}: under 1000 completions, p99 undersampled")
            failed += len(trace) - len(done)
        summaries[name] = result.slo_summary()
        results[name] = result
    done = results["predictive"].completed
    est = np.array([o.estimate_ms for o in done])
    true = np.array([by_id[o.job_id].runtime_ms for o in done])
    p = summaries["predictive"]
    sim_metrics = {
        "prediction_accuracy": prediction_accuracy(est, true).mean_accuracy,
        "deadline_miss_rate": p["deadline"]["miss_rate"],
        "wait_p50_ms.predictive": p["wait_ms"]["p50"],
        "shed_fraction": p["jobs"]["shed"] / p["jobs"]["submitted"],
        "max_pending_depth": float(max(r.max_pending_depth for r in results.values())),
        "events": float(sum(s["jobs"]["submitted"] + s["jobs"]["completed"] for s in summaries.values())),
    }
    for name in FB_POLICIES:
        sim_metrics[f"wait_p99_ms.{name}"] = summaries[name]["wait_ms"]["p99"]
    parts = [repr(sorted((k, repr(v)) for k, v in summaries.items())).encode()]
    outcome = Round(len(FB_POLICIES) * len(trace), failed, sim_metrics, parts, problems=problems)
    if outcome.digest() != state["digests"].setdefault(slot, outcome.digest()):
        outcome.problems.append(f"round {index} differs from round {slot}")
        outcome.failed = outcome.ops
    return outcome


#: name -> (set-up, round, what one operation is)
WORKLOADS = {
    "latency-control": (lc_setup, lc_round, "policy-frame"),
    "train-and-deploy": (td_setup, td_round, "frame"),
    "fleet-burst": (fb_setup, fb_round, "job-policy"),
}
