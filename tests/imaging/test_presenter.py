"""Tests for the StentBoost presenter (ENH/ZOOM pixels) and its split
from the analysis pipeline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.imaging import presenter as presenter_mod
from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline
from repro.imaging.presenter import StentBoostPresenter
from repro.synthetic.sequence import SequenceConfig, XRaySequence

#: sha256 of every presented frame (``None``: REG failed) and of the
#: final integrated image, for :func:`_golden_sequence`.  Generated from
#: the pipeline before ENH/ZOOM pixels moved to the presenter, when the
#: pipeline still produced them itself.
GOLDEN_OUTPUTS = [
    "2056ba3fc523860d4079de2e628ce359746ba24603afed5ef68a178b86c58e6b",
    "a4989c6d68992ac3a945ca93b11ea88c8e33485c643ed378813d1451910f094c",
    "3f93112b52b4f498c83ed5db9f9906bd3bfc27443afd1f5c5377ab93e473e885",
    "94ac4ffe2ca44b2f227357e778c38bc62bd22485326a6e7f5be37ff71ad94391",
    "e2636fc807566e1816c6ddf4b263020cb71b6bed725eb240884d1cab6cecf60a",
    None,
    None,
    "00e9b5eebf968580ee9569073e9e93072ca4cd94e1d9e9a31aeb2d72f7717409",
    "e73ef44951a8b57d2bc45e14388a0c9a2b728ef74616150cd1659420d31a4270",
    "16bcf82c26a30691ea80c3b412004c33f07220d96ac3de492030c41991ebef1a",
    "ddc4563ca02b7593487014a00183f84243320ed3ad41922f96c0df589c4f5af7",
    "bfcb0e8161c8daea86959eb12d17deb650d9258dc4ad231d7acd40fc885dc8f5",
    "0c3f38222f43bfcde0a3728da7550f74779fa3fe3a18ae9c60bd7d4758837c9e",
    "b58cd095d670ff615f6d356a1b9b34d623695f78eabdbfb540d8094416420b45",
    "55c2a227fbe461c3a886532a9d6750997d1c2661046299bb18efd91fd947b88f",
    "48fa0f57be75e9efeca6c7a7da05a364902dc555ff7ef0d912dc1fd3f8cb63ee",
    "a8a8b4f3c72577f4909c32c4cffa52a0631045b9f9048a1096af6f1231a0daa6",
    "203c215dabfdb57bcd7091d96be045a72572fdb301db43f5734075f4937c70d3",
    "c2a984e3d2f0eee529d5b67e580c4055c3ef46e3744f8990939db1c7dd2f21e8",
    "d93d303372169704b5543f8ceea3f226f04e6edbce0a636a02320a129e853d3b",
    "22f21e4938917e98b41a590497135a6366cc5650a658924a63467040d1c1b490",
    "08736f753023ba8cb944a84602c8ea36758cb04aec1a5d164e1adaedf535eb96",
    "270078c1b796c7b28546a06f7352782bc15b10b930c6aa4b3dcdcc9d1dca6569",
    "657af830e99839253cfddd4ec40d843b406948ecd78cfb5d6fc75c0578294753",
]
GOLDEN_INTEGRATED = "780283c0b9c0e7625791cee186a422df159689b32b44f9fcc6bff95679b0c234"


def _golden_sequence() -> tuple[XRaySequence, PipelineConfig]:
    """24 small frames with a track-loss reset (frames 5-6) and ROIs
    clipped at the frame edge (frames 12-13)."""
    seq = XRaySequence(
        SequenceConfig(
            width=128,
            height=128,
            n_frames=24,
            seed=14,
            visibility_dips=2,
            injection_frame=3,
        )
    )
    cfg = PipelineConfig(
        expected_distance=seq.config.resolved_phantom().marker_separation,
        reset_after_lost=2,
    )
    return seq, cfg


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_run():
    """Run pipeline + presenter over the golden sequence, recording the
    presented pixels and the reports ``enhance`` / ``zoom_roi`` built."""
    seq, cfg = _golden_sequence()
    pipe = StentBoostPipeline(cfg)
    pres = StentBoostPresenter(cfg)
    pixel_reports: list = []
    enhance = pres.enhancer.enhance
    zoom_roi = presenter_mod.zoom_roi

    def recording_enhance(*args, **kwargs):
        out, rep = enhance(*args, **kwargs)
        pixel_reports.append(rep)
        return out, rep

    def recording_zoom(*args, **kwargs):
        out, rep = zoom_roi(*args, **kwargs)
        pixel_reports.append(rep)
        return out, rep

    pres.enhancer.enhance = recording_enhance
    mp = pytest.MonkeyPatch()
    mp.setattr(presenter_mod, "zoom_roi", recording_zoom)
    frames = []
    try:
        for img, _ in seq.iter_frames():
            fa = pipe.process(img)
            del pixel_reports[:]
            out = pres.present(img, fa)
            frames.append((img, fa, out, list(pixel_reports)))
    finally:
        mp.undo()
    return frames, pres


class TestPresenterGolden:
    def test_sequence_covers_reset_and_edge_roi(self, golden_run):
        frames, _ = golden_run
        lost = [fa.extras["lost_frames"] for _, fa, _, _ in frames]
        assert max(lost) >= 2
        edge = [
            fa.roi_next
            for img, fa, _, _ in frames
            if fa.roi_next is not None
            and (
                min(fa.roi_next.row0, fa.roi_next.col0) == 0
                or fa.roi_next.row1 == img.shape[0]
                or fa.roi_next.col1 == img.shape[1]
            )
        ]
        assert edge

    def test_outputs_match_golden(self, golden_run):
        frames, pres = golden_run
        got = [None if out is None else _sha(out) for _, _, out, _ in frames]
        assert got == GOLDEN_OUTPUTS
        assert pres.integrated is not None
        assert _sha(pres.integrated) == GOLDEN_INTEGRATED

    def test_pipeline_reports_equal_pixel_reports(self, golden_run):
        frames, _ = golden_run
        for _, fa, out, pixel_reports in frames:
            if out is None:
                assert "ENH" not in fa.reports and "ZOOM" not in fa.reports
                assert pixel_reports == []
            else:
                assert pixel_reports == [fa.reports["ENH"], fa.reports["ZOOM"]]


class TestPresenter:
    def test_success_path_produces_output(self, short_sequence, pipeline):
        presenter = StentBoostPresenter(pipeline.config)
        for k in range(10):
            img, _ = short_sequence.frame(k)
            fa = pipeline.process(img)
            out = presenter.present(img, fa)
            if fa.switches.reg_success:
                assert out is not None
                assert out.ndim == 2
                # Fixed presentation size: sqrt(2) x frame.
                assert out.shape[0] == int(round(img.shape[0] * np.sqrt(2)))
                return
        pytest.fail("no successful frame in 10")

    def test_failed_frame_presents_nothing(self, pipeline):
        presenter = StentBoostPresenter(pipeline.config)
        blank = np.full((256, 256), 0.7, dtype=np.float32)
        assert presenter.present(blank, pipeline.process(blank)) is None
        assert presenter.integrated is None

    def test_reset_drops_integrator(self, short_sequence, pipeline):
        presenter = StentBoostPresenter(pipeline.config)
        for k in range(5):
            img, _ = short_sequence.frame(k)
            presenter.present(img, pipeline.process(img))
        assert presenter.integrated is not None
        presenter.reset()
        assert presenter.integrated is None
