#!/usr/bin/env python
"""The clinical application itself: motion-compensated stent boost.

Runs the full Fig. 2 pipeline over a synthetic angiography sequence,
hands each analysed frame to the presenter (ENH + ZOOM pixels), and
writes three PGM images (viewable everywhere, no plotting deps):

* ``out_raw.pgm``        -- one noisy input frame;
* ``out_enhanced.pgm``   -- the temporally integrated (StentBoost) view;
* ``out_zoomed.pgm``     -- the zoomed ROI presented to the physician.

It also prints the noise statistics before/after enhancement -- the
Fig. 1 effect: the stent and markers reinforce while quantum noise
averages out.

Run:  python examples/stent_enhancement.py [output-dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro import SequenceConfig, StentBoostPipeline, XRaySequence
from repro.imaging import StentBoostPresenter
from repro.imaging.pipeline import PipelineConfig


def write_pgm(path: Path, img: np.ndarray) -> None:
    """Write a float image in [0,1] as a binary 8-bit PGM."""
    data = np.clip(img * 255.0, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def main(out_dir: str = ".") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    seq = XRaySequence(
        SequenceConfig(n_frames=60, seed=2024, visibility_dips=0, injection_frame=5)
    )
    config = PipelineConfig(
        expected_distance=seq.config.resolved_phantom().marker_separation
    )
    pipeline = StentBoostPipeline(config)
    presenter = StentBoostPresenter(config)

    last_raw = None
    last_output = None
    enhanced_roi_stats = []
    for img, truth in seq.iter_frames():
        analysis = pipeline.process(img)
        output = presenter.present(img, analysis)
        last_raw = img
        if output is not None:
            last_output = output
            roi = analysis.roi_next
            # Noise proxy: local std-dev inside the ROI, away from edges.
            patch_raw = img[roi.slices]
            enhanced_roi_stats.append(
                (float(np.std(np.diff(patch_raw, axis=0))), analysis.index)
            )

    if last_output is None:
        print("pipeline never locked onto the markers -- try another seed")
        return

    enhanced = presenter.integrated
    assert enhanced is not None
    write_pgm(out / "out_raw.pgm", last_raw)
    write_pgm(out / "out_enhanced.pgm", enhanced)
    write_pgm(out / "out_zoomed.pgm", last_output)

    roi = pipeline.roi
    region = roi.slices if roi is not None else (slice(None), slice(None))
    noise_before = float(np.std(np.diff(last_raw[region], axis=0)))
    noise_after = float(np.std(np.diff(enhanced[region], axis=0)))
    print(f"frames integrated: {presenter.enhancer.integrated_frames}")
    print(
        f"high-frequency noise in ROI: {noise_before:.4f} (raw) -> "
        f"{noise_after:.4f} (enhanced), "
        f"{noise_before / max(noise_after, 1e-9):.1f}x reduction"
    )
    print(f"wrote {out/'out_raw.pgm'}, {out/'out_enhanced.pgm'}, {out/'out_zoomed.pgm'}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
