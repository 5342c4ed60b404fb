"""Image-analysis stages of the StentBoost case-study application.

One module per task of the Fig. 2 flow graph:

========  =====================================  =======================
Fig. 2    Module                                 Operation
========  =====================================  =======================
RDG       :mod:`repro.imaging.ridge`             Hessian ridge filter
MKX EXT   :mod:`repro.imaging.markers`           balloon-marker blobs
CPLS SEL  :mod:`repro.imaging.couples`           marker-couple selection
REG       :mod:`repro.imaging.registration`      temporal registration
ROI EST   :mod:`repro.imaging.roi`               region-of-interest
GW EXT    :mod:`repro.imaging.guidewire`         guide-wire validation
ENH       :mod:`repro.imaging.enhance`           temporal integration
ZOOM      :mod:`repro.imaging.zoom`              ROI magnification
========  =====================================  =======================

Every stage returns ``(result, WorkReport)``.  The
:class:`~repro.imaging.common.WorkReport` carries the *work metrics*
(pixels touched, candidates found, pair tests, path samples, bytes
moved) that the platform model of :mod:`repro.hw` converts into
simulated computation time -- this is how data-dependent content turns
into the data-dependent timing that Triple-C predicts.

:mod:`repro.imaging.pipeline` wires the stages together with the three
data-dependent switches of the flow graph.  It is analysis only: ENH
and ZOOM are reported from shapes, and their pixels come from the
opt-in :class:`~repro.imaging.presenter.StentBoostPresenter`.
"""

from repro.imaging.common import BufferAccess, WorkReport
from repro.imaging.couples import CoupleResult, select_couple
from repro.imaging.enhance import TemporalEnhancer, enhance_report
from repro.imaging.evaluation import DetectionMetrics, evaluate_detection
from repro.imaging.guidewire import GuidewireResult, extract_guidewire
from repro.imaging.markers import MarkerCandidates, extract_markers
from repro.imaging.pipeline import FrameAnalysis, StentBoostPipeline, SwitchState
from repro.imaging.presenter import StentBoostPresenter
from repro.imaging.registration import RigidTransform, register_couples
from repro.imaging.ridge import RidgeResult, ridge_filter, structure_precheck
from repro.imaging.roi import Roi, estimate_roi
from repro.imaging.zoom import zoom_report, zoom_roi

__all__ = [
    "BufferAccess",
    "WorkReport",
    "RidgeResult",
    "ridge_filter",
    "structure_precheck",
    "MarkerCandidates",
    "extract_markers",
    "CoupleResult",
    "select_couple",
    "RigidTransform",
    "register_couples",
    "Roi",
    "estimate_roi",
    "GuidewireResult",
    "extract_guidewire",
    "TemporalEnhancer",
    "enhance_report",
    "zoom_roi",
    "zoom_report",
    "StentBoostPipeline",
    "StentBoostPresenter",
    "FrameAnalysis",
    "SwitchState",
    "DetectionMetrics",
    "evaluate_detection",
]
