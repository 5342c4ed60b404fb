"""Process-local metric instruments: counters, gauges, histograms.

The design follows the Prometheus data model (monotonic counters,
point-in-time gauges, cumulative-bucket histograms) without any
dependency: a :class:`MetricsRegistry` hands out instruments keyed by
``(name, labels)``, snapshots them into plain JSON-able dicts, and
merges snapshots from worker processes back in (the parallel
profiling fan-out returns one snapshot per worker).

Naming convention (rendered with a ``repro_`` prefix by
:func:`repro.obs.export.prometheus_text`):

* ``<area>_<quantity>_<unit>`` for gauges/histograms
  (``runtime_frame_latency_ms``),
* ``<area>_<quantity>_total`` for counters
  (``runtime_repartition_total``),
* label keys are static dimensions with low cardinality
  (``task``, ``link``, ``state``).

A :class:`NullRegistry` is what disabled observability hands out: its
instruments are shared no-op singletons, so the off path allocates
nothing and mutates nothing (pinned by ``tests/obs/test_nullpath``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]

#: Default histogram bucket upper bounds (milliseconds).  Symmetric
#: around zero so the same default serves latencies *and* signed
#: prediction residuals; the implicit +Inf bucket closes the range.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    -250.0, -100.0, -50.0, -25.0, -10.0, -5.0, -2.5, -1.0, -0.5,
    0.0, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, bytes, frames)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (cores in use, budget, occupancy)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (queue depth, fleet occupancy)."""
        v = float(value)
        if v > self.value:
            self.value = v

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket distribution (latencies, residuals).

    ``bounds`` are the finite bucket upper edges, ascending; an
    implicit +Inf bucket catches the tail, so ``counts`` has
    ``len(bounds) + 1`` cells.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        bounds: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        b = tuple(float(x) for x in bounds)
        if list(b) != sorted(set(b)):
            raise ValueError("histogram bounds must be strictly ascending")
        self.name = name
        self.labels = labels
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1]).

        Walks the cumulative buckets to the one containing the
        ``q``-th observation and interpolates linearly inside it,
        the standard Prometheus ``histogram_quantile`` estimator.
        Observations in the +Inf bucket clamp to the last finite
        bound (there is no upper edge to interpolate toward).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i >= len(self.bounds):  # +Inf bucket: clamp
                    return self.bounds[-1] if self.bounds else 0.0
                upper = self.bounds[i]
                lower = self.bounds[i - 1] if i > 0 else min(0.0, upper)
                frac = (rank - cumulative) / n
                return lower + (upper - lower) * frac
            cumulative += n
        return self.bounds[-1] if self.bounds else 0.0


class MetricsRegistry:
    """Instrument factory + store, keyed by ``(name, labels)``.

    The same ``(name, labels)`` pair always returns the same
    instrument; requesting it as a different kind is an error (one
    name, one type -- the Prometheus exposition requires it).
    """

    def __init__(self) -> None:
        self._instruments: dict[
            tuple[str, _LabelKey], Counter | Gauge | Histogram
        ] = {}

    def _get(
        self,
        kind: type[Counter] | type[Gauge] | type[Histogram],
        name: str,
        labels: Mapping[str, str],
        bounds: Sequence[float] | None = None,
    ) -> Counter | Gauge | Histogram:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            if kind is Histogram:
                inst = Histogram(name, key[1], bounds or DEFAULT_BUCKETS_MS)
            else:
                inst = kind(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {kind.__name__}"
            )
        return inst

    def counter(self, name: str, **labels: str) -> Counter:
        inst = self._get(Counter, name, labels)
        assert isinstance(inst, Counter)
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        inst = self._get(Gauge, name, labels)
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        **labels: str,
    ) -> Histogram:
        inst = self._get(Histogram, name, labels, buckets)
        assert isinstance(inst, Histogram)
        return inst

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        """All instruments, sorted by (name, labels) for stable output."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    # -- cross-process transport ----------------------------------------------

    def snapshot(self) -> dict[str, list[dict[str, object]]]:
        """JSON-able dump of every instrument (inverse of :meth:`merge`)."""
        out: dict[str, list[dict[str, object]]] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for inst in self.instruments():
            entry: dict[str, object] = {
                "name": inst.name,
                "labels": {k: v for k, v in inst.labels},
            }
            if isinstance(inst, Histogram):
                entry.update(
                    bounds=list(inst.bounds),
                    counts=list(inst.counts),
                    sum=inst.sum,
                    count=inst.count,
                )
                out["histograms"].append(entry)
            elif isinstance(inst, Counter):
                entry["value"] = inst.value
                out["counters"].append(entry)
            else:
                entry["value"] = inst.value
                out["gauges"].append(entry)
        return out

    def merge(self, snapshot: Mapping[str, list[dict[str, object]]]) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histogram cells add; gauges take the incoming
        value (last writer wins -- a gauge is a point-in-time reading,
        not an accumulator).  Histogram bucket layouts must match.
        """
        for entry in snapshot.get("counters", []):
            labels = dict(entry.get("labels", {}))  # type: ignore[arg-type]
            self.counter(str(entry["name"]), **labels).inc(
                float(entry["value"])  # type: ignore[arg-type]
            )
        for entry in snapshot.get("gauges", []):
            labels = dict(entry.get("labels", {}))  # type: ignore[arg-type]
            self.gauge(str(entry["name"]), **labels).set(
                float(entry["value"])  # type: ignore[arg-type]
            )
        for entry in snapshot.get("histograms", []):
            labels = dict(entry.get("labels", {}))  # type: ignore[arg-type]
            bounds = [float(b) for b in entry["bounds"]]  # type: ignore[union-attr]
            hist = self.histogram(str(entry["name"]), buckets=bounds, **labels)
            if list(hist.bounds) != bounds:
                raise ValueError(
                    f"histogram {entry['name']!r}: bucket layout mismatch "
                    "between processes"
                )
            counts = entry["counts"]
            assert isinstance(counts, list)
            for i, c in enumerate(counts):
                hist.counts[i] += int(c)
            hist.sum += float(entry["sum"])  # type: ignore[arg-type]
            hist.count += int(entry["count"])  # type: ignore[arg-type]


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None

    def set_max(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null", bounds=(0.0,))


class NullRegistry(MetricsRegistry):
    """The disabled-path registry: shared no-op instruments, no state."""

    def counter(self, name: str, **labels: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> Gauge:
        return NULL_GAUGE

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        **labels: str,
    ) -> Histogram:
        return NULL_HISTOGRAM
