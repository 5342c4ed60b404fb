"""Zoom (ZOOM) -- magnified presentation of the enhanced ROI.

"The output is presented by zooming in the ROI containing the stent"
(Section 3).  The enhanced ROI window is interpolated up to a fixed
presentation size with spline interpolation; the output pixel count
(not the ROI size) dominates the task's cost, which is why the paper
models ZOOM with a constant 12.5 ms (Table 2b).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from repro.imaging.common import BufferAccess, WorkReport
from repro.imaging.roi import Roi

__all__ = ["presentation_shape", "zoom_report", "zoom_roi"]

#: Presentation magnification relative to the frame (2x linear zoom of
#: a half-frame ROI fills the display).
DEFAULT_OUTPUT_SCALE: float = 2.0


def presentation_shape(frame_shape: tuple[int, int]) -> tuple[int, int]:
    """Fixed StentBoost presentation size for a ``frame_shape`` frame.

    Table 1 gives ZOOM a constant 4,096 KB output (2x the frame bytes
    -> sqrt(2) linear), which is why Table 2(b) models ZOOM as a
    constant cost.
    """
    return (
        int(round(frame_shape[0] * np.sqrt(2.0))),
        int(round(frame_shape[1] * np.sqrt(2.0))),
    )


def zoom_report(
    frame_shape: tuple[int, int],
    roi: Roi,
    output_shape: tuple[int, int],
) -> WorkReport:
    """Work report of zooming ``roi`` of a ``frame_shape`` frame.

    Shape-only twin of :func:`zoom_roi`: the window is ``roi.slices``
    clipped to the frame, and each output edge follows
    :func:`scipy.ndimage.zoom`'s ``round(in * factor)`` rule cropped to
    ``output_shape`` -- exactly the array :func:`zoom_roi` returns.
    """
    rows, cols = roi.slices
    win_h = len(range(frame_shape[0])[rows])
    win_w = len(range(frame_shape[1])[cols])
    if win_h == 0 or win_w == 0:
        raise ValueError("ROI does not intersect the frame")
    zh, zw = output_shape
    out_h = min(zh, int(round(win_h * (zh / win_h))))
    out_w = min(zw, int(round(win_w * (zw / win_w))))
    in_px = win_h * win_w
    out_px = out_h * out_w
    return WorkReport(
        task="ZOOM",
        pixels=out_px,  # cost scales with *output* samples
        bytes_in=in_px * 2,
        bytes_out=out_px * 2,
        buffers=(
            BufferAccess("input", in_px * 2),
            BufferAccess("spline", in_px * 4, passes=2.0),
            BufferAccess("output", out_px * 2),
        ),
        counts={"roi_kpixels": in_px / 1000.0, "out_kpixels": out_px / 1000.0},
    )


def zoom_roi(
    enhanced: NDArray[np.float32],
    roi: Roi,
    output_shape: tuple[int, int] | None = None,
    order: int = 3,
) -> tuple[NDArray[np.float32], WorkReport]:
    """Magnify the enhanced ROI to the presentation size.

    Parameters
    ----------
    enhanced:
        Full enhanced frame from :class:`TemporalEnhancer`.
    roi:
        Region to present.
    output_shape:
        Target (height, width); defaults to twice the ROI extent.
    order:
        Spline interpolation order (3 = bicubic, the clinical default).

    Returns
    -------
    (zoomed, WorkReport)
    """
    enhanced = np.asarray(enhanced, dtype=np.float32)
    if output_shape is None:
        output_shape = (
            int(round(roi.height * DEFAULT_OUTPUT_SCALE)),
            int(round(roi.width * DEFAULT_OUTPUT_SCALE)),
        )
    report = zoom_report(enhanced.shape, roi, output_shape)
    window = enhanced[roi.slices]
    zh, zw = output_shape
    factors = (zh / window.shape[0], zw / window.shape[1])
    zoomed = ndimage.zoom(window, factors, order=order, grid_mode=True, mode="nearest")
    # ndimage.zoom rounds the output shape; enforce it exactly.
    zoomed = zoomed[:zh, :zw].astype(np.float32, copy=False)
    return zoomed, report
