"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **Zero overhead when off.**  Metrics are opt-in per run: a
   :class:`~repro.sim.Simulator` carries ``sim.metrics = None`` until a
   registry is installed (:func:`repro.obs.attach_metrics`), and every
   instrumented call site is guarded by one attribute load and an ``is
   None`` check.  With metrics off, no instrument object is ever created,
   no label tuple is built, and no trace category is forced live — the
   smoke figures stay byte-identical and ``repro.perf`` holds its gate.

2. **Deterministic.**  Instruments never touch the event heap or any RNG
   stream; they observe, timestamped with the *simulation* clock.  Two runs
   of the same seed produce the same snapshot, metrics on or off.

3. **Allocation-light when on.**  Instruments are created once per
   ``(name, labels)`` pair and cached; hot call sites hold the instrument
   handle (see :class:`~repro.mpi.channels.base.BaseChannel`) so the steady
   state is one float add per event.

Scoped labels (``protocol``, ``channel``, ``rank``, ``wave``, ...) are plain
keyword arguments; a snapshot renders them into stable ``name{k=v,...}``
keys with the label dict kept alongside, so consumers never parse keys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "metric_values",
    "phase_totals",
]

#: default histogram buckets for durations in simulated seconds: wide
#: log-spaced coverage from microsecond engine costs to whole-run spans
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0,
)

LabelItems = Tuple[Tuple[str, Any], ...]


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value", "updated")

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0
        self.updated = 0.0

    def inc(self, amount: float = 1.0, now: float = 0.0) -> None:
        self.value += amount
        self.updated = now

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "updated": self.updated}


class Gauge:
    """A last-value instrument that also tracks its high-water mark."""

    __slots__ = ("value", "peak", "updated")

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0
        self.updated = 0.0

    def set(self, value: float, now: float = 0.0) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value
        self.updated = now

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "peak": self.peak,
                "updated": self.updated}


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow.

    Buckets are ascending upper bounds set at creation and never resized —
    observation is a linear scan over a short tuple (bisect would allocate
    nothing either, but the scan wins at these sizes) plus three float
    updates.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "max", "updated")

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.updated = 0.0

    def observe(self, value: float, now: float = 0.0) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        self.updated = now

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "updated": self.updated,
        }


def _format_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Holds every instrument of one run, keyed by ``(name, labels)``.

    Parameters
    ----------
    sim:
        Optional simulator whose clock timestamps instrument updates; a
        registry without one stamps everything ``0.0`` (unit tests).
    """

    def __init__(self, sim: Optional["Simulator"] = None) -> None:
        self.sim = sim
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}
        #: callbacks run (in registration order) at snapshot time; use for
        #: state that is cheap to read once but hot to track incrementally
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # ----------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # ----------------------------------------------------------- instruments
    def _get(self, factory: Callable[[], Any], name: str,
             labels: Dict[str, Any]) -> Any:
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get(lambda: Histogram(bounds), name, labels)

    # ------------------------------------------------------------ shorthands
    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.counter(name, **labels).inc(amount, self.now)

    def set(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(value, self.now)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name, **labels).observe(value, self.now)

    # ------------------------------------------------------------ collectors
    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Run ``fn(registry)`` at every snapshot (snapshot-time sampling)."""
        self._collectors.append(fn)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """One JSON-able document of every instrument, deterministically
        ordered; runs the registered collectors first."""
        for collector in self._collectors:
            collector(self)
        doc: Dict[str, Any] = {
            "schema": "repro.obs/1",
            "time": self.now,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}
        for (name, labels) in sorted(self._instruments,
                                     key=lambda k: (k[0], _format_key(*k))):
            instrument = self._instruments[(name, labels)]
            entry = instrument.to_dict()
            entry["name"] = name
            entry["labels"] = {k: v for k, v in labels}
            doc[section[instrument.kind]][_format_key(name, labels)] = entry
        if self.sim is not None and self.sim.trace.counters:
            # the tracer's scalar counters (mpi.messages, mpi.bytes,
            # ft.restore_local, ...) ride along — they are always-on and
            # already deterministic
            doc["trace_counters"] = {
                key: self.sim.trace.counters[key]
                for key in sorted(self.sim.trace.counters)
            }
        return doc


# ------------------------------------------------------------ snapshot query
def metric_values(snapshot: Dict[str, Any], name: str,
                  section: str = "counters") -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """All ``(labels, entry)`` pairs of metric ``name`` in a snapshot."""
    out = []
    for entry in snapshot.get(section, {}).values():
        if entry.get("name") == name:
            out.append((entry.get("labels", {}), entry))
    return out


def phase_totals(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Summed seconds per checkpoint-wave phase from a metrics snapshot.

    Sources the ``ft.wave_phase_seconds`` histograms the protocol layer
    feeds (one per ``(protocol, phase)`` label set) and folds them to a
    ``phase -> total seconds`` map.
    """
    totals: Dict[str, float] = {}
    for labels, entry in metric_values(snapshot, "ft.wave_phase_seconds",
                                       "histograms"):
        phase = str(labels.get("phase", "unknown"))
        totals[phase] = totals.get(phase, 0.0) + float(entry.get("sum", 0.0))
    return totals
