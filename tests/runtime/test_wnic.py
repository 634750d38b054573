"""VirtualWnic transition-log edge cases.

The virtual card's savings estimate feeds the load-test's per-client
rows; these tests pin down the window semantics — overlapping queries,
zero-length windows, and wake-penalty accounting — that the wall-clock
integration tests cannot time precisely.
"""

import pytest

from repro.wnic.power import WAVELAN_2_4GHZ
from repro.runtime.client import VirtualWnic


def make_wnic():
    clock = {"t": 0.0}
    wnic = VirtualWnic(clock=lambda: clock["t"])
    return clock, wnic


class TestAwakeTime:
    def test_transitions_and_awake_time(self):
        clock, wnic = make_wnic()
        clock["t"] = 1.0
        wnic.sleep()
        clock["t"] = 3.0
        wnic.wake()
        clock["t"] = 4.0
        assert wnic.awake_time(4.0) == pytest.approx(2.0)
        assert wnic.wake_count == 1

    def test_zero_duration_window(self):
        _clock, wnic = make_wnic()
        assert wnic.awake_time(0.0) == 0.0
        assert wnic.estimated_savings_pct(until=0.0) == 0.0

    def test_negative_window_clamps_to_zero(self):
        _clock, wnic = make_wnic()
        assert wnic.awake_time(-1.0) == 0.0
        assert wnic.estimated_savings_pct(until=-1.0) == 0.0

    def test_until_mid_sleep_counts_only_awake_overlap(self):
        clock, wnic = make_wnic()
        clock["t"] = 2.0
        wnic.sleep()
        clock["t"] = 6.0
        wnic.wake()
        # Query lands inside the sleep stretch.
        assert wnic.awake_time(4.0) == pytest.approx(2.0)
        # Query lands after the wake.
        clock["t"] = 8.0
        assert wnic.awake_time(8.0) == pytest.approx(4.0)

    def test_overlapping_queries_are_consistent(self):
        """awake_time at increasing `until` points is non-decreasing and
        additive over sub-windows — earlier queries must not perturb
        later ones."""
        clock, wnic = make_wnic()
        clock["t"] = 1.0
        wnic.sleep()
        clock["t"] = 4.0
        wnic.wake()
        clock["t"] = 5.0
        wnic.sleep()
        clock["t"] = 9.0
        samples = [wnic.awake_time(t) for t in (0.5, 2.0, 4.5, 6.0, 9.0)]
        assert samples == sorted(samples)
        assert samples[0] == pytest.approx(0.5)
        assert samples[-1] == pytest.approx(2.0)  # [0,1) + [4,5)
        # Re-querying an earlier point still agrees.
        assert wnic.awake_time(2.0) == pytest.approx(samples[1])

    def test_idempotent_transitions_do_not_double_count(self):
        clock, wnic = make_wnic()
        clock["t"] = 1.0
        wnic.sleep()
        wnic.sleep()
        clock["t"] = 2.0
        wnic.wake()
        wnic.wake()
        assert wnic.wake_count == 1
        clock["t"] = 3.0
        assert wnic.awake_time(3.0) == pytest.approx(2.0)


class TestWakesUntil:
    def test_counts_only_wakes_inside_window(self):
        clock, wnic = make_wnic()
        for start in (1.0, 3.0, 5.0):
            clock["t"] = start
            wnic.sleep()
            clock["t"] = start + 1.0
            wnic.wake()
        assert wnic.wake_count == 3
        assert wnic.wakes_until(0.5) == 0
        assert wnic.wakes_until(2.0) == 1
        assert wnic.wakes_until(4.0) == 2
        assert wnic.wakes_until(10.0) == 3

    def test_boundary_wake_is_included(self):
        clock, wnic = make_wnic()
        clock["t"] = 1.0
        wnic.sleep()
        clock["t"] = 2.0
        wnic.wake()
        assert wnic.wakes_until(2.0) == 1


class TestEstimatedSavings:
    def test_estimated_savings_bounds(self):
        clock, wnic = make_wnic()
        clock["t"] = 0.1
        wnic.sleep()
        clock["t"] = 10.0
        pct = wnic.estimated_savings_pct(until=10.0)
        assert 70.0 < pct < 90.0  # mostly asleep

    def test_always_awake_saves_nothing(self):
        clock, wnic = make_wnic()
        clock["t"] = 5.0
        assert wnic.estimated_savings_pct(until=5.0) == pytest.approx(0.0)

    def test_wake_penalty_outside_window_not_charged(self):
        """A wake at t=8 must not be charged against a query ending at
        t=4 (the overlapping-query accounting fix)."""
        clock, wnic = make_wnic()
        clock["t"] = 1.0
        wnic.sleep()
        clock["t"] = 8.0
        wnic.wake()
        clock["t"] = 9.0
        early = wnic.estimated_savings_pct(until=4.0)
        # Same sleep fraction by hand, no wake penalty in [0, 4):
        power = WAVELAN_2_4GHZ
        expected_energy = 1.0 * power.idle_w + 3.0 * power.sleep_w
        expected = 100.0 * (1.0 - expected_energy / (4.0 * power.idle_w))
        assert early == pytest.approx(expected)

    def test_wake_penalty_inside_window_is_charged(self):
        clock, wnic = make_wnic()
        clock["t"] = 1.0
        wnic.sleep()
        clock["t"] = 3.0
        wnic.wake()
        clock["t"] = 4.0
        with_penalty = wnic.estimated_savings_pct(until=4.0)
        power = WAVELAN_2_4GHZ
        energy = (
            2.0 * power.idle_w + 2.0 * power.sleep_w + power.wake_penalty_j
        )
        expected = 100.0 * (1.0 - energy / (4.0 * power.idle_w))
        assert with_penalty == pytest.approx(expected)

    def test_savings_match_the_power_models_formula_exactly(self):
        """The estimate is the shared PowerModel energy formula: a hand
        computation with the same operand order matches to the bit."""
        clock, wnic = make_wnic()
        clock["t"] = 0.7
        wnic.sleep()
        clock["t"] = 2.9
        wnic.wake()
        clock["t"] = 3.3
        wnic.sleep()
        power = WAVELAN_2_4GHZ
        awake = 0.7 + (3.3 - 2.9)
        energy = (
            (5.0 - awake) * power.sleep_w
            + awake * power.idle_w
            + 1 * power.wake_penalty_j
        )
        expected = 100.0 * (1.0 - energy / (5.0 * power.idle_w))
        assert wnic.awake_time(5.0) == awake
        assert wnic.estimated_savings_pct(until=5.0) == expected
