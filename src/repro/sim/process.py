"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.core.Event`
objects. When a yielded event fires, the process resumes with the event's
value (or the event's exception is thrown into the generator, so failures
propagate naturally and can be handled with ``try/except``).

A :class:`Process` is itself an event: it fires with the generator's
return value when the generator finishes, so processes can be joined by
yielding them, composed with ``any_of``/``all_of``, and interrupted.

Hot-path note: process startup and resumption dominate sweep profiles
(hundreds of thousands of spawns/resumes per cold figure-4 run), so the
bootstrap is a single lightweight timer cell instead of a full Event,
the generator's ``send``/``throw`` and the ``_resume`` bound method are
cached once per process, and ``_resume`` reads Event slots directly
instead of going through property descriptors. The enqueue order is
identical to the pre-optimization kernel (one push at spawn, one per
completion), so traces stay byte-for-byte the same.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ProcessError
from repro.sim.core import Event, Simulator

_PENDING = Event._PENDING


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _StartTrigger:
    """Shared ok/None trigger the bootstrap hands to ``_resume``."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _StartTrigger()


class Process(Event):
    """A running simulation process wrapping a generator."""

    __slots__ = ("_generator", "_waiting_on", "name", "_send", "_throw", "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        try:
            send = generator.send
            throw = generator.throw
        except AttributeError:
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__}"
            ) from None
        super().__init__(sim)
        self._generator = generator
        self._send = send
        self._throw = throw
        self._waiting_on: Event | None = None
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current instant (one heap push,
        # exactly like the bootstrap Event it replaces).
        sim.call_later(0.0, self._bootstrap)

    def _bootstrap(self) -> None:
        self._resume(_START)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a
        process twice before it resumes is also an error.
        """
        if self._value is not _PENDING:
            raise ProcessError(f"cannot interrupt finished process {self.name!r}")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.add_callback(self._resume_cb)
        self.sim._enqueue(interrupt_event, delay=0.0, priority=0)

    # -- internal ----------------------------------------------------------

    def _resume(self, trigger) -> None:
        if self._value is not _PENDING:
            return  # process already finished (e.g. interrupt raced completion)
        waiting = self._waiting_on
        if waiting is not None and trigger is not waiting:
            # A stale wakeup: after an interrupt the process may have moved
            # on to waiting on another event, but the original one still
            # fires. Only genuine interrupts may preempt the current wait.
            if trigger._ok or not isinstance(trigger._value, Interrupt):
                return
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._value)
        except StopIteration as stop:
            # A finished process drops its cached bound method (a
            # self-reference), so it leaves no cyclic garbage behind.
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            self._resume_cb = None
            self.fail(ProcessError(f"process {self.name!r} died on interrupt: {exc}"))
            return
        except BaseException as exc:  # propagate real errors loudly
            self._resume_cb = None
            self.fail(exc)
            raise
        if not isinstance(target, Event):
            raise ProcessError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:  # already processed: resume immediately
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)
