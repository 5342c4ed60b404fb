"""Tests for the StentBoost pipeline and its switches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline, SwitchState
from repro.synthetic.sequence import SequenceConfig, XRaySequence


class TestSwitchState:
    def test_scenario_id_bijection(self):
        seen = set()
        for rdg in (False, True):
            for roi in (False, True):
                for reg in (False, True):
                    s = SwitchState(rdg, roi, reg)
                    sid = s.scenario_id
                    assert 0 <= sid < 8
                    seen.add(sid)
                    assert SwitchState.from_scenario_id(sid) == s
        assert len(seen) == 8

    def test_from_invalid_id(self):
        for sid in (-1, 8):
            with pytest.raises(ValueError):
                SwitchState.from_scenario_id(sid)


class TestPipeline:
    def test_first_frame_is_full_frame(self, short_sequence, pipeline):
        img, _ = short_sequence.frame(0)
        fa = pipeline.process(img)
        assert not fa.switches.roi_mode
        assert fa.roi_used is None

    def test_roi_mode_engages_after_success(self, short_sequence, pipeline):
        engaged = False
        for k in range(12):
            img, _ = short_sequence.frame(k)
            fa = pipeline.process(img)
            if fa.switches.roi_mode:
                engaged = True
                assert fa.roi_used is not None
                break
        assert engaged

    def test_reports_match_scenario_tasks(self, short_sequence, pipeline):
        from repro.graph import build_stentboost_graph

        graph = build_stentboost_graph()
        for k in range(8):
            img, _ = short_sequence.frame(k)
            fa = pipeline.process(img)
            assert fa.executed_tasks() == graph.active_tasks(fa.switches)

    def test_couple_positions_in_frame_coords(self, short_sequence, pipeline):
        """In ROI mode the couple must still be in frame coordinates."""
        for k in range(15):
            img, truth = short_sequence.frame(k)
            fa = pipeline.process(img)
            if fa.switches.roi_mode and fa.couple is not None and fa.couple.found:
                pa = np.asarray(fa.couple.marker_a)
                d = min(
                    np.linalg.norm(pa - truth.marker_a),
                    np.linalg.norm(pa - truth.marker_b),
                )
                assert d < 6.0
                return
        pytest.fail("no ROI-mode couple found in 15 frames")

    def test_track_loss_resets_to_full_frame(self):
        seq = XRaySequence(
            SequenceConfig(n_frames=30, seed=11, visibility_dips=0)
        )
        cfg = PipelineConfig(
            expected_distance=seq.config.resolved_phantom().marker_separation,
            reset_after_lost=2,
        )
        pipe = StentBoostPipeline(cfg)
        for k in range(6):
            pipe.process(seq.frame(k)[0])
        # Feed blank frames: no markers -> couple lost -> ROI dropped.
        blank = np.full((256, 256), 0.7, dtype=np.float32)
        for _ in range(3):
            fa = pipe.process(blank)
        assert pipe.roi is None
        assert pipe.reference_couple is None
        assert not fa.switches.reg_success

    def test_reset(self, short_sequence, pipeline):
        for k in range(5):
            pipeline.process(short_sequence.frame(k)[0])
        pipeline.reset()
        assert pipeline.roi is None
        assert pipeline.reference_couple is None
        fa = pipeline.process(short_sequence.frame(0)[0])
        assert fa.index == 0

    def test_frame_indices_increment(self, short_sequence, pipeline):
        for k in range(4):
            fa = pipeline.process(short_sequence.frame(k)[0])
            assert fa.index == k

    def test_extras_roi_kpixels(self, short_sequence, pipeline):
        img, _ = short_sequence.frame(0)
        fa = pipeline.process(img)
        assert fa.extras["roi_kpixels"] == pytest.approx(img.size / 1000.0)
