"""Unit tests for the simulation event loop and primitive events."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, collector_paused


class TestSimulatorClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_empty_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_in_past_raises(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_infinite(self):
        assert Simulator().peek() == float("inf")

    def test_step_without_events_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()


class TestTimeout:
    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        fired = []
        sim.timeout(3.5).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [3.5]

    def test_timeout_carries_value(self):
        sim = Simulator()
        seen = []
        sim.timeout(1.0, value="payload").add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["payload"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_zero_delay_fires_immediately(self):
        sim = Simulator()
        fired = []
        sim.timeout(0.0).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.timeout(1.0, value=label).add_callback(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.timeout(1.0).add_callback(lambda e: fired.append(1))
        sim.timeout(2.0).add_callback(lambda e: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1]
        assert sim.now == 1.5


class TestEvent:
    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_twice_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_fail_marks_not_ok(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("boom"))
        sim.run()
        assert not event.ok
        assert isinstance(event.value, RuntimeError)

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_call_at_runs_function_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.call_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)


class TestConditions:
    def test_any_of_fires_on_first(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0, "fast"), sim.timeout(2.0, "slow")
        results = []
        sim.any_of([t1, t2]).add_callback(lambda e: results.append(dict(e.value)))
        sim.run()
        assert results[0] == {t1: "fast"}

    def test_any_of_empty_fires_immediately(self):
        sim = Simulator()
        cond = sim.any_of([])
        assert cond.triggered

    def test_all_of_waits_for_everything(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        when = []
        sim.all_of([t1, t2]).add_callback(lambda e: when.append(sim.now))
        sim.run()
        assert when == [2.0]

    def test_all_of_collects_values(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        values = []
        sim.all_of([t1, t2]).add_callback(lambda e: values.append(dict(e.value)))
        sim.run()
        assert values[0] == {t1: "a", t2: "b"}

    def test_decided_any_of_unhooks_from_pending_children(self):
        sim = Simulator()
        wake = sim.event()
        cond = sim.any_of([wake, sim.timeout(1.0)])
        sim.run()
        assert cond.triggered
        assert wake.callbacks == []
        # A child firing after the decision changes nothing.
        wake.succeed("late")
        sim.run()
        assert list(cond.value.values()) == [None]

    def test_any_of_with_processed_child_fires_immediately(self):
        sim = Simulator()
        done = sim.timeout(0.0, "done")
        sim.run()
        pending = sim.event()
        cond = sim.any_of([done, pending])
        assert cond.value == {done: "done"}
        assert pending.callbacks == []

    def test_failed_all_of_unhooks_from_pending_children(self):
        sim = Simulator()
        broken, pending = sim.event(), sim.event()
        cond = sim.all_of([broken, pending])
        cond.add_callback(lambda e: None)  # the failure is handled
        broken.fail(ValueError("boom"))
        sim.run()
        assert not cond.ok
        assert pending.callbacks == []


def _cyclic_garbage_of(body) -> list:
    """Objects only the cyclic collector could free after ``body()``."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        body()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestNoCyclicGarbage:
    """Kernel waits leave nothing for the cyclic collector to find, so
    pausing it for a whole run (``collector_paused``) holds no dead
    objects back."""

    def test_timed_any_of_waits(self):
        def body():
            sim = Simulator()

            def sleeper():
                for _ in range(200):
                    wake = sim.event()
                    yield sim.any_of([wake, sim.timeout(0.01)])

            sim.process(sleeper())
            sim.run()

        assert _cyclic_garbage_of(body) == []

    def test_failed_all_of_and_finished_processes(self):
        def body():
            sim = Simulator()

            def child():
                yield sim.timeout(0.01)
                return "done"

            def failing_soon():
                event = sim.event()
                sim.call_later(0.01, lambda: event.fail(ValueError("boom")))
                return event

            def waiter():
                yield sim.process(child())
                # No local may hold the failed event: the exception's
                # traceback references this frame.
                try:
                    yield sim.all_of([sim.event(), failing_soon()])
                except ValueError:
                    pass

            for _ in range(20):
                sim.process(waiter())
            sim.run()

        assert _cyclic_garbage_of(body) == []


class TestCollectorPaused:
    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_pauses_and_restores(self):
        gc.enable()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_restores_on_exception(self):
        gc.enable()
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_nested_use_keeps_the_outer_pause(self):
        gc.enable()
        with collector_paused():
            with collector_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()
