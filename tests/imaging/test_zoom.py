"""Tests for ROI zoom / presentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.roi import Roi
from repro.imaging.zoom import presentation_shape, zoom_report, zoom_roi


class TestZoomRoi:
    def test_default_doubles_roi(self):
        img = np.random.default_rng(0).random((128, 128)).astype(np.float32)
        roi = Roi(20, 20, 60, 80)
        out, rep = zoom_roi(img, roi)
        assert out.shape == (80, 120)
        assert rep.task == "ZOOM"

    def test_explicit_output_shape(self):
        img = np.zeros((128, 128), dtype=np.float32)
        out, _ = zoom_roi(img, Roi(0, 0, 50, 50), output_shape=(181, 181))
        assert out.shape == (181, 181)

    def test_constant_region_stays_constant(self):
        img = np.full((64, 64), 0.42, dtype=np.float32)
        out, _ = zoom_roi(img, Roi(10, 10, 40, 40))
        np.testing.assert_allclose(out, 0.42, atol=1e-5)

    def test_values_interpolate_smoothly(self):
        img = np.tile(np.linspace(0, 1, 64, dtype=np.float32), (64, 1))
        out, _ = zoom_roi(img, Roi(0, 0, 64, 64), output_shape=(128, 128), order=1)
        assert out.min() >= -1e-5 and out.max() <= 1.0 + 1e-5
        assert np.all(np.diff(out[64], 1) >= -1e-4)  # monotone gradient

    def test_empty_roi_raises(self):
        img = np.zeros((32, 32), dtype=np.float32)
        with pytest.raises(ValueError):
            zoom_roi(img, Roi(32, 32, 32, 32))

    def test_work_counts(self):
        img = np.zeros((128, 128), dtype=np.float32)
        roi = Roi(0, 0, 40, 40)
        out, rep = zoom_roi(img, roi, output_shape=(100, 100))
        assert rep.pixels == 100 * 100
        assert rep.count("roi_kpixels") == pytest.approx(1.6)
        assert rep.count("out_kpixels") == pytest.approx(10.0)


class TestZoomReport:
    @pytest.mark.parametrize(
        "roi, output_shape",
        [
            (Roi(20, 20, 60, 80), (80, 120)),
            (Roi(0, 0, 50, 50), (181, 181)),
            # Odd factors, where scipy's rounded shape overshoots or
            # matches the requested one.
            (Roi(3, 5, 40, 36), (77, 59)),
            # ROI reaching past the frame: the window is clipped.
            (Roi(100, 90, 140, 160), (57, 91)),
        ],
    )
    def test_equals_zoom_roi_report(self, roi, output_shape):
        img = np.random.default_rng(3).random((128, 128)).astype(np.float32)
        out, rep = zoom_roi(img, roi, output_shape=output_shape)
        assert zoom_report(img.shape, roi, output_shape) == rep
        assert rep.pixels == out.size

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            zoom_report((32, 32), Roi(32, 0, 40, 10), (16, 16))

    def test_presentation_shape_is_sqrt2_frame(self):
        assert presentation_shape((256, 256)) == (362, 362)
        assert presentation_shape((128, 96)) == (181, 136)
