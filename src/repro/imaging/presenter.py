"""StentBoost presentation: the ENH and ZOOM pixels of analysed frames.

:class:`~repro.imaging.pipeline.StentBoostPipeline` is the analysis
half of the application: it reports ENH and ZOOM work from shapes
alone, which is all that profiling, the platform model and the
runtime read.  The presenter is the opt-in other half.  Fed each frame
with its :class:`~repro.imaging.pipeline.FrameAnalysis`, it integrates
the registered frames and zooms the ROI that a physician would see.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.imaging.enhance import TemporalEnhancer
from repro.imaging.pipeline import FrameAnalysis, PipelineConfig
from repro.imaging.zoom import presentation_shape, zoom_roi

__all__ = ["StentBoostPresenter"]


class StentBoostPresenter:
    """Renders the enhanced, zoomed view of a StentBoost analysis.

    Give it the same :class:`PipelineConfig` as the pipeline: the
    integrator's decay and the track-loss reset follow that config.
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.enhancer = TemporalEnhancer(decay=self.config.enhancer_decay)

    @property
    def integrated(self) -> NDArray[np.float32] | None:
        """The running integrated (enhanced) frame; ``None`` before the
        first REG-success frame and after a track-loss reset."""
        return self.enhancer.integrated

    def reset(self) -> None:
        """Drop the integrator (pair with ``StentBoostPipeline.reset``)."""
        self.enhancer.reset()

    def present(
        self, img: NDArray[np.float32], analysis: FrameAnalysis
    ) -> NDArray[np.float32] | None:
        """ENH + ZOOM one analysed frame; ``None`` unless REG succeeded."""
        if analysis.switches.reg_success:
            assert analysis.transform is not None and analysis.roi_next is not None
            enhanced, _ = self.enhancer.enhance(img, analysis.transform)
            zoomed, _ = zoom_roi(
                enhanced,
                analysis.roi_next,
                output_shape=presentation_shape(enhanced.shape),
            )
            return zoomed
        if analysis.extras["lost_frames"] >= self.config.reset_after_lost:
            # The pipeline's track-loss rule: the next detection
            # re-initializes the geometry, so the integrator restarts.
            self.enhancer.reset()
        return None
