"""Communication-bandwidth accounting.

The ledger accumulates bytes moved per logical link (inter-task
transfers on the system bus, cache-eviction swap traffic to DRAM) and
converts them into sustained MByte/s at the video rate -- the
quantities Section 5.2 analyses and Section 7 validates at "an
average prediction accuracy [...] of 90 %".
"""

from __future__ import annotations

from collections import defaultdict

import repro.obs as obs
from repro.util.units import HZ_VIDEO, MB

__all__ = ["BandwidthLedger"]


class BandwidthLedger:
    """Per-link byte accounting across simulated frames.

    Links are free-form strings; the simulator uses ``"bus"`` for
    inter-task transfers crossing L2 clusters, ``"l2"`` for transfers
    within a cluster and ``"dram"`` for external-memory traffic
    (compulsory + eviction).
    """

    def __init__(self) -> None:
        self._bytes: dict[str, float] = defaultdict(float)
        self._frames = 0

    def record(self, link: str, nbytes: float) -> None:
        """Add ``nbytes`` of traffic on ``link``."""
        if nbytes < 0:
            raise ValueError("negative traffic")
        self._bytes[link] += float(nbytes)
        o = obs.get_obs()
        if o.enabled:
            o.metrics.counter("bus_traffic_bytes_total", link=link).inc(
                float(nbytes)
            )

    def frame_done(self) -> None:
        """Mark the end of one frame (denominator of per-frame rates)."""
        self._frames += 1

    @property
    def frames(self) -> int:
        return self._frames

    def total_bytes(self, link: str | None = None) -> float:
        """Accumulated bytes on ``link`` (or across all links)."""
        if link is None:
            return float(sum(self._bytes.values()))
        return self._bytes.get(link, 0.0)

    def bytes_per_frame(self, link: str | None = None) -> float:
        """Mean bytes per frame on ``link``."""
        if self._frames == 0:
            return 0.0
        return self.total_bytes(link) / self._frames

    def bandwidth_mbps(
        self, link: str | None = None, rate_hz: float = HZ_VIDEO
    ) -> float:
        """Sustained MByte/s on ``link`` at the given frame rate."""
        return self.bytes_per_frame(link) * rate_hz / MB

    def links(self) -> list[str]:
        """All links with recorded traffic."""
        return sorted(self._bytes)

    def merge(self, other: "BandwidthLedger") -> None:
        """Fold another ledger's traffic and frames into this one."""
        for link, nbytes in other._bytes.items():
            self._bytes[link] += nbytes
        self._frames += other._frames

    # -- persistence ----------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (inverse of :meth:`from_state`).

        The live ledger object is dropped by ``TraceSet.save``; trace
        shards persist this snapshot instead so cached traces keep
        their bandwidth accounting across processes and runs.
        """
        return {
            "links": {link: self._bytes[link] for link in sorted(self._bytes)},
            "frames": self._frames,
        }

    @staticmethod
    def from_state(state: dict[str, object]) -> "BandwidthLedger":
        """Rebuild a ledger from a :meth:`state_dict` snapshot."""
        ledger = BandwidthLedger()
        links = state.get("links", {})
        if not isinstance(links, dict):
            raise ValueError("ledger state 'links' must be a mapping")
        for link, nbytes in links.items():
            if not isinstance(nbytes, (int, float)):
                raise ValueError(f"ledger traffic for {link!r} must be numeric")
            ledger.record(str(link), float(nbytes))
        frames = state.get("frames", 0)
        if not isinstance(frames, int):
            raise ValueError("ledger state 'frames' must be an integer")
        ledger._frames = frames
        return ledger
