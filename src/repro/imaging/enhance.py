"""Enhancement (ENH) -- motion-compensated temporal integration.

"Enhancement of the stent is performed by temporal integration of the
registered image frames according to the balloon markers" (Section 3).
Each frame is warped onto the reference geometry with the rigid
transform produced by REG and blended into a running average: static
(stent) structures reinforce while noise and moving background
average out -- exactly the StentBoost effect of Fig. 1(c, d).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from repro.imaging.common import BufferAccess, WorkReport
from repro.imaging.registration import RigidTransform

__all__ = ["TemporalEnhancer", "enhance_report"]


def enhance_report(frame_shape: tuple[int, int], integrated_frames: int) -> WorkReport:
    """Work report of one ENH pass over a ``frame_shape`` frame.

    The work depends only on the frame size and on how many frames
    the integrator holds after the pass, so the analysis pipeline can
    report ENH without warping a pixel.
    """
    px = frame_shape[0] * frame_shape[1]
    return WorkReport(
        task="ENH",
        pixels=px * 2,  # warp pass + blend pass
        bytes_in=px * 2,
        bytes_out=px * 2,
        buffers=(
            BufferAccess("input", px * 2),
            BufferAccess("warped", px * 4),
            BufferAccess("accumulator", px * 4, passes=2.0),
            BufferAccess("output", px * 2),
        ),
        counts={"integrated_frames": float(integrated_frames)},
    )


class TemporalEnhancer:
    """Running motion-compensated average of registered frames.

    Parameters
    ----------
    decay:
        Recursive blending weight: the integrated image is
        ``(1-decay)*acc + decay*warped``.  Small values integrate
        deeper (more noise suppression, slower adaptation).

    Notes
    -----
    The integrator is itself an EWMA -- the same Eq. 1 machinery the
    prediction model uses, applied to pixels instead of timings.
    """

    def __init__(self, decay: float = 0.2) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay)
        self._acc: NDArray[np.float32] | None = None
        self._count = 0

    @property
    def integrated_frames(self) -> int:
        """How many frames have been blended so far."""
        return self._count

    @property
    def integrated(self) -> NDArray[np.float32] | None:
        """The running average itself (not a copy); ``None`` when empty."""
        return self._acc

    def reset(self) -> None:
        """Drop the accumulated average (e.g. after a scene change)."""
        self._acc = None
        self._count = 0

    def enhance(
        self,
        img: NDArray[np.float32],
        transform: RigidTransform,
    ) -> tuple[NDArray[np.float32], WorkReport]:
        """Warp ``img`` to reference geometry and integrate it.

        Parameters
        ----------
        img:
            Full frame (float32).
        transform:
            Current-to-reference rigid transform from REG.

        Returns
        -------
        (enhanced, WorkReport): the running integrated image (a copy,
        safe to hand to ZOOM) and the stage's work report.
        """
        img = np.asarray(img, dtype=np.float32)
        if img.ndim != 2:
            raise ValueError("enhance expects a 2-D image")

        # Rigid warp: rotate about the pivot, then translate.  Build
        # the inverse affine (output -> input) for affine_transform.
        c, s = np.cos(-transform.angle), np.sin(-transform.angle)
        matrix = np.array([[c, -s], [s, c]], dtype=np.float64)
        pivot = np.asarray(transform.pivot, dtype=np.float64)
        shift = np.array([transform.dy, transform.dx], dtype=np.float64)
        # Forward: y = R(x - p) + p + t  =>  x = R^-1 (y - p - t) + p
        offset = pivot - matrix @ (pivot + shift)
        warped = ndimage.affine_transform(
            img, matrix, offset=offset, order=1, mode="nearest"
        )

        if self._acc is None:
            self._acc = warped.copy()
        else:
            # In-place EWMA blend: acc += decay * (warped - acc).
            self._acc += np.float32(self.decay) * (warped - self._acc)
        self._count += 1

        return self._acc.copy(), enhance_report(img.shape, self._count)
