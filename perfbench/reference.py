"""A host-speed reference measured during each simulator call.

On a shared host the same simulation runs up to half again as slowly
when the neighbours are busy, and that drift lasts longer than a run,
so wall times of separate runs differ by more than any code change
worth judging. :class:`HostMeter` measures the drift while the call
runs: a timer signal interrupts the call every ``PERIOD_S`` and times
:func:`kernel`, a fixed stdlib-only loop of the operations the
simulator spends its time on (objects with slots, heap pushes and pops,
dict lookups, float arithmetic). Nothing in the loop comes from
``repro``, so a change to the program moves the call's time but never
the kernel's.

:meth:`HostMeter.rescale` turns the call's wall time, less the time
spent in the kernel, into seconds at the reference speed: the speed at
which one kernel pass takes ``NOMINAL_S``.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import signal
import time

#: Seconds between two kernel passes.
PERIOD_S = 0.1
#: Loop rounds of one kernel pass.
ROUNDS = 4000
#: Seconds one kernel pass takes at the reference speed: about its time
#: on an idle core of a 2.1 GHz Xeon KVM guest under CPython 3.11.
NOMINAL_S = 0.005


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float, next: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = next


def kernel(rounds: int = ROUNDS) -> float:
    """One reference pass."""
    heap: list[tuple[int, int]] = []
    table: dict[int, _Node] = {}
    node = None
    total = 0.0
    for i in range(rounds):
        node = _Node(i, i * 0.5, node)
        table[i & 255] = node
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
        hit = table.get((i * 31) & 255)
        if hit is not None:
            total += hit.value
    return total


class HostMeter:
    """Times :func:`kernel` every ``PERIOD_S`` for the length of a
    ``with``, or at each :meth:`sample`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time one kernel pass now."""
        # A collection triggered here would scan the program's heap and
        # be charged to the kernel.
        enabled = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - begin)
        if enabled:
            gc.enable()

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """Mean kernel time over ``NOMINAL_S`` (1.0 with no samples)."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / NOMINAL_S

    def rescale(self, call):
        """``call`` with its times in seconds at the reference speed."""
        program_s = max(call.wall_s - sum(self.samples), 0.0)
        factor = program_s / self.slowdown / call.wall_s if call.wall_s else 1.0
        return dataclasses.replace(
            call,
            wall_s=call.wall_s * factor,
            request_s=[s * factor for s in call.request_s],
            busy_s=call.busy_s * factor,
            host_wall_s=call.wall_s,
            host_slowdown=self.slowdown,
        )
