"""Structured tracing of simulation activity.

Components emit events through a :class:`~repro.obs.recorder.Recorder`,
which appends them as :class:`TraceRecord` rows to a
:class:`TraceRecorder`. The rows are an export: the obs exporters and
tests read them, and no simulation result does (the ``OBS002`` analysis
rule enforces it).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional


class TraceRecord:
    """A single trace row (treat as immutable once recorded).

    A plain ``__slots__`` class rather than a frozen dataclass: rows
    are allocated once per instrumented event (hundreds of thousands
    per run) and the frozen-dataclass ``__setattr__`` detour showed up
    in sweep profiles.

    Attributes:
        time: simulated timestamp in seconds.
        category: dotted event category, e.g. ``"wnic.transition"``.
        fields: arbitrary structured payload.
    """

    __slots__ = ("time", "category", "fields")

    def __init__(
        self,
        time: float,
        category: str,
        fields: Optional[dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.fields = {} if fields is None else fields

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"fields={self.fields!r})"
        )


class TraceRecorder:
    """Append-only container of trace records with simple querying."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, time: float, category: str, **fields: Any) -> TraceRecord:
        """Append a record and return it."""
        row = TraceRecord(time, category, fields)
        self._records.append(row)
        return row

    def record_fields(
        self, time: float, category: str, fields: dict[str, Any]
    ) -> None:
        """Append a record taking ownership of an existing ``fields`` dict.

        The hot-path sibling of :meth:`record`: the recorder already
        collected the event's fields as a kwargs dict, so re-splatting
        them through ``**fields`` would build the same dict twice per
        event. The caller must not mutate ``fields`` afterwards.
        """
        self._records.append(TraceRecord(time, category, fields))

    def all(self) -> tuple[TraceRecord, ...]:
        """Every record in insertion (and therefore time) order."""
        return tuple(self._records)

    def query(
        self,
        category: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> Iterator[TraceRecord]:
        """Iterate records matching the given filters.

        Args:
            category: exact category, or a prefix ending in ``"."`` to
                match a whole namespace, or None for all categories.
            predicate: optional extra row filter.
            since: inclusive lower time bound.
            until: exclusive upper time bound.
        """
        for row in self._records:
            if not since <= row.time < until:
                continue
            if category is not None:
                if category.endswith("."):
                    if not row.category.startswith(category):
                        continue
                elif row.category != category:
                    continue
            if predicate is not None and not predicate(row):
                continue
            yield row

    def count(self, category: Optional[str] = None) -> int:
        """Number of records matching ``category`` (same rules as query)."""
        return sum(1 for _ in self.query(category=category))
