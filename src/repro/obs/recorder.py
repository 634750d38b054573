"""The single instrumentation write path.

Every component takes one instrumentation input, ``obs=``, and records
through that :class:`Recorder`:

* :meth:`Recorder.event` — a point event on the simulated timeline,
  stored as a :class:`~repro.sim.trace.TraceRecord` for the event
  exporters;
* :meth:`Recorder.span` — a ``[start, end)`` interval (burst slots,
  schedule intervals, WNIC awake stretches) feeding the Chrome-trace /
  Perfetto exporter;
* :meth:`Recorder.inc` / :meth:`Recorder.gauge_set` /
  :meth:`Recorder.observe` — metrics instruments.

The ``OBS001`` analysis rule forbids calling ``TraceRecorder.record``
directly anywhere outside this package, so the recorder is the one
funnel all observability flows through, and ``OBS002`` forbids reading
trace rows outside it, so no result depends on what was recorded: the
obs mode changes only what a run can export. :class:`NullRecorder` keeps
the hooks nearly free when observability is off (the overhead bench in
``benchmarks/test_bench_obs_overhead.py`` holds it under 5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed ``[start, end)`` interval on a named track."""

    start: float
    end: float
    name: str
    track: str
    fields: dict[str, Any]


class _NullInstrument:
    """Write-only stand-in for a metrics instrument; discards updates."""

    __slots__ = ()

    def inc(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instrument returned by handle resolution when metrics
#: are off; callers can cache and update it unconditionally.
NULL_INSTRUMENT = _NullInstrument()


class Recorder:
    """Interface (and no-op base) for instrumentation sinks."""

    #: The raw event log, if any (read only by the exporters).
    trace: Optional[TraceRecorder] = None
    #: The metrics registry, if metrics are being collected.
    metrics: Optional[MetricsRegistry] = None

    def event(self, time: float, category: str, **fields: Any) -> None:
        """Record a point event at simulated ``time``."""

    def span(
        self, start: float, end: float, name: str, track: str,
        **fields: Any,
    ) -> None:
        """Record a completed interval on ``track``."""

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        """Bump a counter."""

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge."""

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        """Record one histogram observation."""

    # -- resolved handles --------------------------------------------------
    #
    # Per-packet call sites (the medium's frame accounting, the AP's
    # queue-depth gauge) resolve their instrument once and update the
    # returned handle directly, skipping the per-call label
    # canonicalization and registry lookup. The handles still come from
    # the recorder, so observability stays funneled through this class
    # and turning metrics off yields free no-op handles.

    def resolve_counter(self, name: str, **labels: Any) -> Any:
        """A cacheable counter handle (no-op when metrics are off)."""
        return NULL_INSTRUMENT

    def resolve_gauge(self, name: str, **labels: Any) -> Any:
        """A cacheable gauge handle (no-op when metrics are off)."""
        return NULL_INSTRUMENT

    def resolve_histogram(
        self,
        name: str,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> Any:
        """A cacheable histogram handle (no-op when metrics are off)."""
        return NULL_INSTRUMENT

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Completed spans in emission order."""
        return ()


class NullRecorder(Recorder):
    """Discards everything; all hooks are no-ops."""


#: Shared stateless no-op instance (safe to reuse everywhere).
NULL_RECORDER = NullRecorder()


class SimRecorder(Recorder):
    """The real sink: trace rows + spans + metrics.

    Args:
        trace: raw event log to append to (created when omitted).
        metrics: shared registry (created when omitted).
        record_metrics: when False, ``inc``/``gauge_set``/``observe``
            become no-ops (trace-only mode, the pre-obs baseline).
        record_spans: when False, ``span`` becomes a no-op.
        record_events: when False, ``event`` becomes a no-op
            (metrics-only mode — large campus runs keep counters
            without accumulating per-event trace rows).
    """

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_metrics: bool = True,
        record_spans: bool = True,
        record_events: bool = True,
    ) -> None:
        self.trace = trace if trace is not None else TraceRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.record_metrics = record_metrics
        self.record_spans = record_spans
        self.record_events = record_events
        self._spans: list[SpanRecord] = []

    # -- events ------------------------------------------------------------

    def event(self, time: float, category: str, **fields: Any) -> None:
        if self.record_events:
            self.trace.record_fields(time, category, fields)

    def span(
        self, start: float, end: float, name: str, track: str,
        **fields: Any,
    ) -> None:
        if not self.record_spans:
            return
        self._spans.append(
            SpanRecord(
                start=start, end=end, name=name, track=track, fields=fields
            )
        )

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        return tuple(self._spans)

    # -- metrics -----------------------------------------------------------

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        if self.record_metrics:
            self.metrics.counter(name, **labels).inc(n)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        if self.record_metrics:
            self.metrics.gauge(name, **labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        if self.record_metrics:
            self.metrics.histogram(name, buckets=buckets, **labels).observe(
                value
            )

    def resolve_counter(self, name: str, **labels: Any) -> Any:
        if not self.record_metrics:
            return NULL_INSTRUMENT
        return self.metrics.counter(name, **labels)

    def resolve_gauge(self, name: str, **labels: Any) -> Any:
        if not self.record_metrics:
            return NULL_INSTRUMENT
        return self.metrics.gauge(name, **labels)

    def resolve_histogram(
        self,
        name: str,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> Any:
        if not self.record_metrics:
            return NULL_INSTRUMENT
        return self.metrics.histogram(name, buckets=buckets, **labels)
