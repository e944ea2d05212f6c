"""Differential property tests: the heap ``Simulator`` vs a reference calendar.

``repro.netsim.events.Simulator`` is the one scheduler ``src/`` has, and it
is tuned (tuple heap entries, two entry shapes, lazy cancellation with a
batched sweep, a drain fast path).  The foil here is the event calendar as
a textbook states it — one list kept sorted by ``(time, seq)``, dispatched
front to back, cancellation by eager removal — in under 40 lines.  Both
are driven through the same seeded operation scripts (ties, cancels,
nested scheduling from inside callbacks, partial runs) and must produce
equal observable traces.
"""

import bisect
import random

import pytest

from repro.netsim.events import SimError, Simulator, make_simulator


class SortedListCalendar:
    """Reference scheduler: O(n) inserts, obviously correct order."""

    def __init__(self):
        self.now = 0.0
        self.processed_events = 0
        self._seq = 0
        self._keys = []  # sorted (time, seq); seq breaks ties FIFO
        self._callbacks = {}  # key -> callback, for the keys still queued

    @property
    def pending_events(self):
        return len(self._keys)

    def schedule_at(self, time, callback):
        key = (time, self._seq)
        self._seq += 1
        bisect.insort(self._keys, key)
        self._callbacks[key] = callback
        return _Handle(self, key)

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    schedule_fire, schedule_fire_at = schedule, schedule_at

    def run(self, until=None, max_events=None):
        executed = 0
        while self._keys and executed != max_events:
            if until is not None and self._keys[0][0] > until:
                break
            key = self._keys.pop(0)
            self.now = key[0]
            self.processed_events += 1
            executed += 1
            self._callbacks.pop(key)()
        if until is not None and until > self.now:
            self.now = until


class _Handle:
    cancelled = False

    def __init__(self, calendar, key):
        self._calendar, self._key = calendar, key

    def cancel(self):
        self.cancelled = True
        if self._calendar._callbacks.pop(self._key, None) is not None:
            self._calendar._keys.remove(self._key)


#: Delays are drawn from a coarse grid so exact-tie timestamps are common
#: (tie-breaking by insertion seq is exactly what we need to exercise).
GRID = 1e-6


def _drive(sim, seed):
    """Run one seeded script on ``sim``; return the full observable trace.

    The script mixes every scheduling entry point (relative/absolute,
    cancellable/fire-and-forget), cancels a fraction of pending events,
    and lets callbacks schedule follow-ups and cancel peers mid-run.  All
    randomness comes from a private ``random.Random(seed)`` consumed in
    dispatch order, so two simulators that dispatch identically replay
    the identical script.
    """
    rng = random.Random(seed)
    log = []
    cancellable = []

    def make_cb(label):
        def fire():
            log.append((sim.now, label))
            roll = rng.random()
            if roll < 0.20:
                sim.schedule_fire(
                    GRID * rng.randrange(0, 40), make_cb(label + "f")
                )
            elif roll < 0.35:
                cancellable.append(
                    sim.schedule(
                        GRID * rng.randrange(0, 40), make_cb(label + "e")
                    )
                )
            elif roll < 0.45 and cancellable:
                cancellable.pop(rng.randrange(len(cancellable))).cancel()

        return fire

    # Wave 1: a burst across every entry point, heavy on ties.
    for i in range(250):
        delay = GRID * rng.randrange(0, 120)
        kind = rng.randrange(4)
        label = f"s{i}"
        if kind == 0:
            sim.schedule_fire(delay, make_cb(label))
        elif kind == 1:
            cancellable.append(sim.schedule(delay, make_cb(label)))
        elif kind == 2:
            sim.schedule_fire_at(sim.now + delay, make_cb(label))
        else:
            cancellable.append(sim.schedule_at(sim.now + delay, make_cb(label)))
    for _ in range(40):
        if cancellable:
            # Some targets already fired; cancel() must be a harmless
            # no-op for those on both schedulers.
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    # Partial run: stop mid-burst, observe, then continue.
    sim.run(until=GRID * 40)
    checkpoint = (sim.now, sim.processed_events, len(log))

    # Wave 2 from the advanced clock, reaching far past the first wave.
    for i in range(120):
        delay = GRID * rng.randrange(0, 400)
        label = f"t{i}"
        if rng.randrange(2):
            sim.schedule_fire(delay, make_cb(label))
        else:
            cancellable.append(sim.schedule(delay, make_cb(label)))
    for _ in range(20):
        if cancellable:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()
    sim.run(max_events=150)
    checkpoint2 = (sim.now, sim.processed_events, len(log))
    sim.run()
    return {
        "log": log,
        "checkpoint": checkpoint,
        "checkpoint2": checkpoint2,
        "final_now": sim.now,
        "processed": sim.processed_events,
        "pending": sim.pending_events,
    }


class TestDifferentialDispatchOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_calendar_matches_heap_trace(self, seed):
        assert _drive(SortedListCalendar(), seed) == _drive(Simulator(), seed)


class TestSameTimestampTies:
    def test_exact_ties_dispatch_in_insertion_order(self):
        for sim in (Simulator(), SortedListCalendar()):
            order = []
            for i in range(20):
                sim.schedule_fire(5e-6, lambda i=i: order.append(i))
            sim.run()
            assert order == list(range(20))

    def test_ties_across_entry_points_interleave_by_seq(self):
        traces = []
        for sim in (Simulator(), SortedListCalendar()):
            order = []
            sim.schedule_fire(1e-6, lambda: order.append("fire0"))
            sim.schedule(1e-6, lambda: order.append("event0"))
            sim.schedule_fire_at(1e-6, lambda: order.append("fire_at"))
            sim.schedule_at(1e-6, lambda: order.append("event_at"))
            sim.run()
            traces.append(order)
        assert traces[0] == traces[1] == [
            "fire0", "event0", "fire_at", "event_at",
        ]


class TestCancellation:
    def test_cancelled_events_skipped_and_accounting_matches(self):
        for sim in (Simulator(), SortedListCalendar()):
            fired = []
            keep = sim.schedule(2e-6, lambda: fired.append("keep"))
            drop = sim.schedule(1e-6, lambda: fired.append("drop"))
            drop.cancel()
            drop.cancel()  # idempotent
            assert sim.pending_events == 1
            sim.run()
            assert fired == ["keep"]
            assert keep.cancelled is False

    def test_mass_cancel_triggers_sweep_without_losing_live_events(self):
        for sim in (Simulator(), SortedListCalendar()):
            fired = []
            doomed = [
                sim.schedule(GRID * (i % 7), lambda: fired.append("x"))
                for i in range(300)
            ]
            sim.schedule(GRID * 3, lambda: fired.append("live"))
            for event in doomed:
                event.cancel()
            # Scheduling after heavy cancellation is what trips the heap's
            # batched sweep of lazily-cancelled entries.
            sim.schedule(GRID * 4, lambda: fired.append("live2"))
            assert sim.pending_events == 2
            sim.run()
            assert fired == ["live", "live2"]


class TestCalendarSpecifics:
    def test_make_simulator_selects_backend(self):
        # One backend: the heap.  The selector argument is gone.
        assert type(make_simulator()) is Simulator
        with pytest.raises(TypeError):
            make_simulator("calendar")

    def test_past_scheduling_rejected_like_heap(self):
        # Every entry point refuses the past (the reference has no such
        # guard; the heap must, or a late event would rewind the clock).
        sim = Simulator()
        sim.schedule_fire(1e-6, lambda: None)
        sim.run()
        for schedule in (sim.schedule, sim.schedule_fire):
            with pytest.raises(SimError):
                schedule(-1e-9, lambda: None)
        for schedule_at in (sim.schedule_at, sim.schedule_fire_at):
            with pytest.raises(SimError):
                schedule_at(sim.now - 1e-6, lambda: None)
