"""Tape reuse: open-loop runs over one sequence share one image pass.

``FrameEngine.run`` replays a sequence's memoized
:class:`~repro.runtime.tape.FrameTape` whenever the policy is
open-loop and the pipeline is fresh.  These tests pin when that
happens (and when it must not), that a shared image pass changes no
logged number, and that the memo lives exactly as long as its
sequence.
"""

from __future__ import annotations

import copy
import gc
import weakref

import numpy as np
import pytest

import repro.obs as obs
from repro.experiments.common import make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.imaging.pipeline import StentBoostPipeline
from repro.profiling import ProfileConfig
from repro.runtime import (
    FrameEngine,
    QualityController,
    StaticSerialPolicy,
    TripleCPolicy,
    run_straightforward,
    run_worst_case,
)
from repro.runtime import tape as tape_module
from repro.runtime.quality import QualityLevel
from repro.synthetic import CorpusSpec
from repro.synthetic.sequence import XRaySequence
from repro.workloads import get_workload
from repro.workloads.robotvision import RobotVisionPipeline
from repro.workloads.ultrasound import UltrasoundPipeline

N_FRAMES = 24

_COLUMNS = (
    "index",
    "predicted_scenario",
    "actual_scenario",
    "predicted_ms",
    "serial_ms",
    "latency_ms",
    "output_ms",
    "cores_used",
)


@pytest.fixture()
def calls(monkeypatch):
    """Class-level call counters on frame rendering and analysis."""
    counts = {"frame": 0, "process": 0}

    def spy(cls, attr, name):
        original = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    spy(XRaySequence, "frame", "frame")
    for cls in (StentBoostPipeline, RobotVisionPipeline, UltrasoundPipeline):
        spy(cls, "process", "process")
    return counts


def assert_same_columns(got, want):
    assert got.label == want.label
    assert got.budget_ms == want.budget_ms
    for name in _COLUMNS:
        a, b = got.table.column(name), want.table.column(name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"column {name!r} diverged"
    for a, b in zip(got.frames, want.frames):
        assert a == b


class LivePipeline(StentBoostPipeline):
    """A StentBoost pipeline that always asks for the live loop."""

    def replay_key(self) -> None:
        return None


def live_pipeline(seq) -> LivePipeline:
    return LivePipeline(make_pipeline(seq).config)


def three_policies(seq, model, profile_config, pipeline=make_pipeline):
    """Fig. 7's three open-loop runs over one sequence."""
    sw = run_straightforward(
        seq, pipeline(seq), profile_config.make_simulator(), seq_key="r-sw"
    )
    sim = profile_config.make_simulator()
    policy = TripleCPolicy.for_simulator(copy.deepcopy(model), sim)
    mg = FrameEngine(sim, policy).run(seq, pipeline(seq), seq_key="r-mg")
    wc = run_worst_case(
        seq,
        pipeline(seq),
        profile_config.make_simulator(),
        worst_case_ms=float(sw.latency().max()) * 1.05,
        seq_key="r-wc",
    )
    return sw, mg, wc


class TestOpenLoopReuse:
    def test_one_image_pass_serves_three_policies(
        self, calls, trained_model, profile_config
    ):
        seq = fig7_sequence(n_frames=N_FRAMES)
        shared = three_policies(seq, trained_model, profile_config)
        assert calls == {"frame": N_FRAMES, "process": N_FRAMES}

        separate = [
            three_policies(
                fig7_sequence(n_frames=N_FRAMES), trained_model, profile_config
            )[i]
            for i in range(3)
        ]
        for got, want in zip(shared, separate):
            assert_same_columns(got, want)

    def test_replays_equal_the_live_loop(self, calls, trained_model, profile_config):
        seq = fig7_sequence(n_frames=N_FRAMES)
        live = three_policies(seq, trained_model, profile_config, live_pipeline)
        assert calls["process"] == 3 * N_FRAMES
        replayed = three_policies(seq, trained_model, profile_config)
        assert calls["process"] == 4 * N_FRAMES
        for got, want in zip(replayed, live):
            assert_same_columns(got, want)

    def test_batched_runs_share_the_memo(self, calls, profile_config):
        seq = fig7_sequence(n_frames=N_FRAMES)
        scalar = run_straightforward(
            seq, make_pipeline(seq), profile_config.make_simulator()
        )
        batched = run_straightforward(
            seq, make_pipeline(seq), profile_config.make_simulator(), batched=True
        )
        assert calls["process"] == N_FRAMES
        assert_same_columns(batched, scalar)

    def test_first_run_consumes_its_pipeline_later_runs_do_not(
        self, profile_config
    ):
        seq = fig7_sequence(n_frames=N_FRAMES)
        first, second = make_pipeline(seq), make_pipeline(seq)
        for pipe in (first, second):
            run_straightforward(seq, pipe, profile_config.make_simulator())
        assert first.replay_key() is None
        assert second.replay_key() is not None


class TestLiveRuns:
    def test_quality_controller_processes_every_frame(
        self, calls, trained_model, profile_config
    ):
        seq = fig7_sequence(n_frames=N_FRAMES)
        run_straightforward(seq, make_pipeline(seq), profile_config.make_simulator())
        calls["process"] = 0
        sim = profile_config.make_simulator()
        policy = TripleCPolicy.for_simulator(
            copy.deepcopy(trained_model),
            sim,
            slack=0.6,
            quality_controller=QualityController(),
        )
        FrameEngine(sim, policy).run(seq, make_pipeline(seq), seq_key="r-q")
        assert calls["process"] == N_FRAMES

    def test_frame_setup_processes_every_frame(self, calls, profile_config):
        seq = fig7_sequence(n_frames=N_FRAMES)
        run_straightforward(seq, make_pipeline(seq), profile_config.make_simulator())
        calls["process"] = 0

        def force_full_frame(pipeline):
            pipeline._roi = None

        engine = FrameEngine(
            profile_config.make_simulator(),
            StaticSerialPolicy(frame_setup=force_full_frame),
        )
        result = engine.run(seq, make_pipeline(seq), seq_key="r-fs")
        assert calls["process"] == N_FRAMES
        assert not any(f.actual_scenario & 2 for f in result.frames)

    def test_used_pipeline_is_never_replayed(self, calls, profile_config):
        seq = fig7_sequence(n_frames=N_FRAMES)
        run_straightforward(seq, make_pipeline(seq), profile_config.make_simulator())
        used = make_pipeline(seq)
        used.process(seq.frame(0)[0])
        assert used.replay_key() is None
        calls["process"] = 0
        run_straightforward(seq, used, profile_config.make_simulator())
        assert calls["process"] == N_FRAMES

    def test_pipeline_with_quality_is_never_replayed(self, calls, profile_config):
        seq = fig7_sequence(n_frames=N_FRAMES)
        run_straightforward(seq, make_pipeline(seq), profile_config.make_simulator())
        degraded = make_pipeline(seq)
        degraded.quality = QualityLevel("reduced", rdg_scales=(2.0,), max_candidates=8)
        assert degraded.replay_key() is None
        calls["process"] = 0
        run_straightforward(seq, degraded, profile_config.make_simulator())
        assert calls["process"] == N_FRAMES

    def test_reset_pipeline_is_fresh_again(self):
        seq = fig7_sequence(n_frames=2)
        pipe = make_pipeline(seq)
        key = pipe.replay_key()
        pipe.process(seq.frame(0)[0])
        pipe.reset()
        assert pipe.replay_key() == key


class TestMemoLifetime:
    def test_memo_dies_with_its_sequence(self, profile_config):
        gc.collect()
        held = len(tape_module._TAPES)
        seq = fig7_sequence(n_frames=8)
        run_straightforward(seq, make_pipeline(seq), profile_config.make_simulator())
        (tapes,) = [t for s, t in tape_module._TAPES.items() if s is seq]
        (tape,) = tapes.values()
        tape_ref = weakref.ref(tape)
        del seq, tapes, tape
        gc.collect()
        assert len(tape_module._TAPES) == held
        assert tape_ref() is None


@pytest.mark.parametrize("workload", ["robotvision", "ultrasound"])
def test_registered_workloads_reuse_tapes(workload, calls):
    wl = get_workload(workload)
    spec = CorpusSpec(n_sequences=1, total_frames=16, base_seed=5)
    profile = ProfileConfig(workload=workload)

    def two_runs(seq):
        sw = run_straightforward(
            seq, wl.make_pipeline(seq, None), profile.make_simulator()
        )
        wc = run_worst_case(
            seq, wl.make_pipeline(seq, None), profile.make_simulator(), 500.0
        )
        return sw, wc

    seq = XRaySequence(wl.corpus_configs(spec)[0])
    shared = two_runs(seq)
    assert calls["process"] == len(seq)
    separate = [two_runs(XRaySequence(wl.corpus_configs(spec)[0]))[i] for i in range(2)]
    for got, want in zip(shared, separate):
        assert_same_columns(got, want)


class TestObservability:
    def test_reuse_applies_and_metrics_match(self, calls, trained_model, profile_config):
        """A managed run under telemetry replays a memoized tape, and
        its metric snapshot equals that of a run recording its own."""

        def managed(seq):
            sim = profile_config.make_simulator()
            policy = TripleCPolicy.for_simulator(copy.deepcopy(trained_model), sim)
            with obs.observed() as o:
                FrameEngine(sim, policy).run(seq, make_pipeline(seq), seq_key="r-o")
            recorded = [
                r
                for r in o.tracer.records
                if r.get("kind") == "span" and r.get("name") == "engine.record_tape"
            ]
            return o.metrics.snapshot(), recorded

        replayed_seq = fig7_sequence(n_frames=N_FRAMES)
        run_straightforward(
            replayed_seq, make_pipeline(replayed_seq), profile_config.make_simulator()
        )
        calls["process"] = 0
        replayed, no_recording = managed(replayed_seq)
        assert calls["process"] == 0
        assert no_recording == []

        recorded, (span,) = managed(fig7_sequence(n_frames=N_FRAMES))
        assert calls["process"] == N_FRAMES
        assert span["attrs"]["frames"] == N_FRAMES
        assert replayed == recorded
