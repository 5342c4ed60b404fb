"""Tests for motion-compensated temporal integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.enhance import TemporalEnhancer, enhance_report
from repro.imaging.registration import RigidTransform


def ident():
    return RigidTransform.identity((32.0, 32.0))


class TestTemporalEnhancer:
    def test_first_frame_passthrough(self):
        enh = TemporalEnhancer(decay=0.25)
        img = np.random.default_rng(0).random((64, 64)).astype(np.float32)
        out, rep = enh.enhance(img, ident())
        np.testing.assert_allclose(out, img, atol=1e-6)
        assert rep.count("integrated_frames") == 1.0

    def test_noise_suppression(self):
        """Integrating static content reduces noise variance."""
        rng = np.random.default_rng(1)
        clean = np.full((64, 64), 0.5, dtype=np.float32)
        enh = TemporalEnhancer(decay=0.15)
        for _ in range(60):
            noisy = clean + rng.normal(0, 0.05, clean.shape).astype(np.float32)
            out, _ = enh.enhance(noisy, ident())
        assert out.std() < 0.05 / 2.0
        assert out.mean() == pytest.approx(0.5, abs=0.005)

    def test_motion_compensation_aligns(self):
        """A shifted copy warps back onto the reference geometry."""
        img = np.zeros((64, 64), dtype=np.float32)
        img[30:34, 30:34] = 1.0
        shifted = np.roll(img, (3, 5), axis=(0, 1))
        t = RigidTransform(
            dy=-3.0, dx=-5.0, angle=0.0, pivot=(32.0, 32.0), success=True, residual=0.0
        )
        enh = TemporalEnhancer(decay=1.0)
        out, _ = enh.enhance(shifted, t)
        # Peak of warped output must sit where the original peak was.
        peak = np.unravel_index(np.argmax(out), out.shape)
        assert abs(peak[0] - 31) <= 1 and abs(peak[1] - 31) <= 1

    def test_reset(self):
        enh = TemporalEnhancer()
        enh.enhance(np.zeros((16, 16), dtype=np.float32), ident())
        assert enh.integrated_frames == 1
        enh.reset()
        assert enh.integrated_frames == 0

    def test_output_is_copy(self):
        enh = TemporalEnhancer()
        img = np.full((16, 16), 0.5, dtype=np.float32)
        out, _ = enh.enhance(img, ident())
        out[:] = 99.0
        out2, _ = enh.enhance(img, ident())
        assert out2.max() <= 1.0

    def test_invalid_decay(self):
        for d in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                TemporalEnhancer(decay=d)

    def test_report_buffers(self):
        enh = TemporalEnhancer()
        _, rep = enh.enhance(np.zeros((32, 32), dtype=np.float32), ident())
        names = {b.name for b in rep.buffers}
        assert {"input", "warped", "accumulator", "output"} <= names
        assert rep.pixels == 32 * 32 * 2

    def test_report_is_shape_only(self):
        enh = TemporalEnhancer()
        img = np.zeros((32, 48), dtype=np.float32)
        for k in (1, 2, 3):
            _, rep = enh.enhance(img, ident())
            assert rep == enhance_report(img.shape, k)

    def test_integrated_is_live_accumulator(self):
        enh = TemporalEnhancer()
        assert enh.integrated is None
        out, _ = enh.enhance(np.full((16, 16), 0.5, dtype=np.float32), ident())
        assert enh.integrated is not None
        np.testing.assert_array_equal(enh.integrated, out)
