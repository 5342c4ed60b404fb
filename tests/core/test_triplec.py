"""Tests for the Triple-C facade (predict/observe loop)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import prediction_accuracy
from repro.hw import Mapping
from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline, SwitchState
from repro.synthetic.sequence import SequenceConfig, XRaySequence


class TestFitAndPredict:
    def test_cold_start_assumes_worst_case(self, trained_model):
        trained_model.start_sequence()
        pred = trained_model.predict(roi_kpixels=1048.0)
        assert pred.scenario_id == SwitchState(True, False, True).scenario_id
        assert pred.frame_ms > 0
        assert pred.external_bytes > 0

    def test_prediction_tasks_match_scenario(self, trained_model):
        trained_model.start_sequence(initial_scenario=3)
        pred = trained_model.predict(roi_kpixels=100.0)
        state = SwitchState.from_scenario_id(pred.scenario_id)
        assert set(pred.task_ms) == set(
            trained_model.graph.active_tasks(state)
        )

    def test_frame_ms_is_sum(self, trained_model):
        trained_model.start_sequence(initial_scenario=3)
        pred = trained_model.predict(roi_kpixels=100.0)
        assert pred.frame_ms == pytest.approx(sum(pred.task_ms.values()))

    def test_observe_advances_scenario_state(self, trained_model):
        trained_model.start_sequence(initial_scenario=3)
        trained_model.observe(7, {"REG": 2.0}, 100.0)
        pred = trained_model.predict(roi_kpixels=100.0)
        # After observing scenario 7 the prediction conditions on it.
        assert pred.scenario_id in range(8)
        assert trained_model._current_scenario == 7

    def test_plausible_predictions_include_most_likely(self, trained_model):
        trained_model.start_sequence(initial_scenario=3)
        plaus = trained_model.plausible_predictions(100.0)
        most_likely = trained_model.scenarios.predict_next(3)
        assert most_likely in plaus
        for sid, task_ms in plaus.items():
            state = SwitchState.from_scenario_id(sid)
            assert set(task_ms) == set(trained_model.graph.active_tasks(state))

    def test_expected_frame_ms_positive(self, trained_model):
        e = trained_model.expected_frame_ms()
        assert 5.0 < e < 150.0
        worst = trained_model.expected_frame_ms(
            SwitchState(True, False, True).scenario_id
        )
        best = trained_model.expected_frame_ms(
            SwitchState(False, True, False).scenario_id
        )
        assert worst > best


class TestHeldOutAccuracy:
    def test_accuracy_above_90_percent(self, trained_model, profile_config):
        """The Section 7 headline (97 %) -- loose bound for the small
        training corpus used in tests."""
        sim = profile_config.make_simulator()
        seq = XRaySequence(SequenceConfig(n_frames=60, seed=5150, visibility_dips=1))
        pipe = StentBoostPipeline(
            PipelineConfig(
                expected_distance=seq.config.resolved_phantom().marker_separation
            )
        )
        trained_model.start_sequence()
        preds, actuals = [], []
        for img, _ in seq.iter_frames():
            roi_px = pipe.roi.pixels if pipe.roi is not None else img.size
            roi_kpx = roi_px / 1000.0 * profile_config.pixel_scale
            pred = trained_model.predict(roi_kpx)
            fa = pipe.process(img)
            res = sim.simulate_frame(
                fa.reports, Mapping.serial(), frame_key=("acc", fa.index)
            )
            if fa.index >= 3:
                preds.append(pred.frame_ms)
                actuals.append(sum(res.task_ms.values()))
            trained_model.observe(fa.scenario_id, res.task_ms, roi_kpx)
        rep = prediction_accuracy(np.asarray(preds), np.asarray(actuals))
        assert rep.mean_accuracy > 0.90


def _single_roi_ridge_traces():
    """Profile the first small one-sequence corpus, scanning base seeds,
    in which the ROI ridge task ``RDG_ROI`` ran exactly once."""
    from repro.profiling import ProfileConfig, profile_corpus
    from repro.synthetic import CorpusSpec, generate_corpus

    for seed in range(200):
        spec = CorpusSpec(
            n_sequences=1, total_frames=16, width=128, height=128, base_seed=seed
        )
        traces = profile_corpus(generate_corpus(spec), ProfileConfig(), jobs=1)
        if traces.task_values("RDG_ROI").size == 1:
            return traces
    pytest.fail("no corpus ran RDG_ROI exactly once in 200 seeds")


class TestSparseTraining:
    def test_fit_with_one_roi_ridge_sample(self):
        """One RDG_ROI sample fits the constant ROI model instead of
        raising (a task that never ran is simply left out)."""
        from repro.core import TripleC
        from repro.core.computation import RoiLinearMarkovPredictor

        traces = _single_roi_ridge_traces()
        model = TripleC.fit(traces)
        roi_model = model.computation.predictors["RDG_ROI"]
        assert isinstance(roi_model, RoiLinearMarkovPredictor)
        assert roi_model.slope == 0.0
        assert roi_model.intercept == traces.task_values("RDG_ROI")[0]
