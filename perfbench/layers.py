"""The traced run: per-layer self time, spans and boundary counts.

One timed call runs under the stdlib profiler (``cProfile``, wall
clock). Afterwards:

* every function's self time is charged to a layer: a function in
  ``src/repro/<subpackage>/`` to that subpackage (``net`` is split into
  ``net.medium``, ``net.link``, ``net.tcp`` and the rest of ``net``);
  a function in the stdlib ``asyncio``, ``selectors`` or ``socket``
  modules to ``runtime.loop``, except the event loop's blocking poll,
  which is ``runtime.loop_wait``. A built-in or any other function
  (stdlib helpers, dataclass-generated ``__init__``) is charged, per
  call edge, to the layer of its caller; what no layer claims is
  ``other``. The buckets partition the profile, so they sum to its
  total;
* spans (name, start, end, parent) are recorded around the public
  boundary calls ``build_scenario``, ``Simulator.run``,
  ``EnergyAnalyzer`` (construction and ``analyze``) and
  ``SweepEngine.run``;
* counts come from the profile's call counts, looked up by the public
  function's code object (kernel heap pushes, ``Schedule.from_meta``,
  ``BurstSlot`` constructions, ``Recorder.inc``,
  ``RuntimeSchedule.encode``), and from a wrapper at the simulated
  proxy's ``broadcast_schedule`` (schedules whose slots end past their
  interval).

A boundary that no longer exists is skipped and its counts read 0, so
a refactor that removes one shows as a change in the ledger, not as a
crash.
"""

from __future__ import annotations

import asyncio
import cProfile
import importlib
import os
import selectors
import socket
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

#: ``repro`` subpackages that are layers of their own.
SUBPACKAGES = (
    "sim", "net", "core", "wnic", "obs", "energy", "workloads", "campus",
    "experiments", "sweep", "runtime",
)
NET_PARTS = ("medium", "link", "tcp")
#: Every bucket of the partition and the metric it is reported as.
BUCKETS = {
    **{layer: f"{layer}.self_s" for layer in SUBPACKAGES},
    **{f"net.{part}": f"net.{part}.self_s" for part in NET_PARTS},
    "runtime.loop": "runtime.loop_self_s",
    "runtime.loop_wait": "runtime.loop_wait_s",
    "other": "other.self_s",
}

#: Counts read from the profile's call counts of public functions.
COUNTED = {
    "core.schedule.decodes": [("repro.core.schedule", "Schedule.from_meta")],
    "core.schedule.slots_built": [
        ("repro.core.schedule", "BurstSlot.__post_init__")
    ],
    "obs.inc_calls": [
        ("repro.obs.recorder", "Recorder.inc"),
        ("repro.obs.recorder", "SimRecorder.inc"),
    ],
    "runtime.wire.encodes": [("repro.runtime.wire", "RuntimeSchedule.encode")],
}

_LOOP_FILES = (
    os.path.dirname(asyncio.__file__) + os.sep,
    selectors.__file__,
    socket.__file__,
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span, or -1.
    parent: int


class Boundaries:
    """Patches the public boundary calls for the length of a ``with``.

    Collects spans and the counts only a wrapper can see.
    """

    SPANS = (
        ("repro.experiments.runner", "build_scenario"),
        ("repro.sim.core", "Simulator.run"),
        ("repro.energy.analyzer", "EnergyAnalyzer.__init__"),
        ("repro.energy.analyzer", "EnergyAnalyzer.analyze"),
        ("repro.sweep.engine", "SweepEngine.run"),
    )

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.broadcasts = 0
        self.overruns = 0
        self._undo: list[tuple[Any, str, Any]] = []

    def span_seconds(self, *names: str) -> float:
        """Total seconds in spans called any of ``names``, counting a
        span nested inside another of the same names once."""
        total = 0.0
        for span in self.spans:
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if span.name in names and parent < 0:
                total += span.end - span.start
        return total

    def _patch(
        self, module: str, qualname: str, wrap: Callable[[Any], Any]
    ) -> None:
        owner: Any = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))

    def _spanned(self, name: str) -> Callable[[Any], Any]:
        def wrap(func):
            def spanned(*args, **kwargs):
                index = len(self.spans)
                parent = self._open[-1] if self._open else -1
                self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
                self._open.append(index)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._open.pop()
                    self.spans[index].end = time.perf_counter()
            return spanned
        return wrap

    def _classified_broadcast(self, broadcast):
        def broadcast_schedule(proxy, schedule):
            self.broadcasts += 1
            if any(slot.end > schedule.next_srp for slot in schedule.slots):
                self.overruns += 1
            return broadcast(proxy, schedule)
        return broadcast_schedule

    def __enter__(self) -> "Boundaries":
        for module, qualname in self.SPANS:
            self._patch(module, qualname, self._spanned(qualname))
        self._patch(
            "repro.core.proxy", "TransparentProxy.broadcast_schedule",
            self._classified_broadcast,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _layer(func: tuple[str, int, str], repro_dir: str) -> Optional[str]:
    """The bucket a profiled function's own self time belongs to, or None
    when it should be charged to its callers."""
    filename, _line, name = func
    if filename == "~":
        return "runtime.loop_wait" if name.startswith(
            ("<method 'poll' of 'select.", "<method 'select' of 'select.",
             "<built-in method select.")
        ) else None
    if filename.startswith(repro_dir):
        parts = filename[len(repro_dir):].split(os.sep)
        if len(parts) < 2 or parts[0] not in SUBPACKAGES:
            return None
        if parts[0] == "net" and parts[1][:-3] in NET_PARTS:
            return "net." + parts[1][:-3]
        return parts[0]
    if filename.startswith(_LOOP_FILES):
        return "runtime.loop"
    return None


def ledger(stats: dict, repro_dir: str) -> dict[str, float]:
    """Per-layer self seconds and counts from ``cProfile`` stats.

    The buckets (:data:`BUCKETS`; ``net.self_s`` counts its parts
    again) partition the profile: they sum to ``trace.total_s``.
    """
    own = {func: _layer(func, repro_dir) for func in stats}
    buckets: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if own[func] is not None:
            buckets[own[func]] += tt
            continue
        rest = tt
        for caller, edge in callers.items():
            buckets[own.get(caller) or "other"] += edge[2]
            rest -= edge[2]
        buckets["other"] += rest

    pushes = sum(
        edge[0]
        for (filename, _l, name), (*_rest, callers) in stats.items()
        if filename == "~" and name.endswith("heappush>")
        for caller, edge in callers.items()
        if own.get(caller) == "sim"
    )
    out = {metric: buckets.get(bucket, 0.0) for bucket, metric in BUCKETS.items()}
    out["net.self_s"] = sum(
        buckets.get(name, 0.0) for name in BUCKETS if name.startswith("net")
    )
    out["trace.total_s"] = sum(buckets.values())
    out["sim.events"] = pushes
    for metric, targets in COUNTED.items():
        keys = [_code_key(module, qualname) for module, qualname in targets]
        found = [stats[key] for key in keys if key in stats]
        out[metric] = sum(entry[1] for entry in found)
        if metric == "runtime.wire.encodes":
            out["runtime.wire.encode_s"] = sum(entry[3] for entry in found)
    return out


def _code_key(module: str, qualname: str) -> Optional[tuple[str, int, str]]:
    """The profile key of a function, or None if it no longer exists."""
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    code = getattr(getattr(obj, "__func__", obj), "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


@contextmanager
def traced(repro_dir: str) -> Iterator[dict]:
    """Profile the body with the boundaries patched; on exit the yielded
    dict holds the ledger, the span totals and the boundary counts."""
    out: dict = {}
    profile = cProfile.Profile()
    with Boundaries() as bounds:
        profile.enable()
        try:
            yield out
        finally:
            profile.disable()
    profile.create_stats()
    out.update(ledger(profile.stats, repro_dir))
    out["experiments.build_s"] = bounds.span_seconds("build_scenario")
    out["energy.analyze_s"] = bounds.span_seconds(
        "EnergyAnalyzer.__init__", "EnergyAnalyzer.analyze"
    )
    out["core.schedule_overrun_frac"] = (
        bounds.overruns / bounds.broadcasts if bounds.broadcasts else 0.0
    )
    out["spans"] = bounds.spans
