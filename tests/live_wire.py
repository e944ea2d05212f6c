"""A single-threaded wire on a virtual clock for the live roles.

Every live process is a sans-I/O role (``repro.live.driver``):
``handle_frame(frame, addr)`` and ``on_timer(now)`` return the frames to
send, ``next_timer`` says when ``on_timer`` is next due and ``done`` when
the role has finished.  ``driver.serve`` drives one role from a UDP socket
and the monotonic clock; :class:`Wire` drives any mix of roles from one
event heap on a virtual clock, so a whole live session — switches, PS
shards, workers, peers — runs in one thread, deterministically, in
milliseconds of real time.

Each frame sent is delayed by ``latency`` and then, by a seeded draw,
dropped, cut short at a random length (``truncate``), duplicated or held
back up to ``reorder_window`` (which reorders it against the frames
behind it).  A frame addressed to no role, or to a role that is done
(its socket closed), is lost.

:func:`run_fleet` is the wire as a carrier of a whole live run: the same
``repro.live.fleet.fleet`` that ``run_live`` spawns as processes, with
``Wire.address`` as its address source, and the same result.
"""

import heapq
import itertools
import math
import random

from repro.core.protocol import Action, ControlMessage, encode_control
from repro.live.fleet import _result, fleet, report

LOOPBACK = "127.0.0.1"


class WireStalled(AssertionError):
    """Nothing in flight, no timer armed, and the session not finished."""


class Wire:
    def __init__(
        self,
        seed=0,
        latency=50e-6,
        drop=0.0,
        duplicate=0.0,
        reorder=0.0,
        reorder_window=2e-3,
        truncate=0.0,
    ):
        self.now = 0.0
        self.roles = {}
        self.latency = latency
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.reorder_window = reorder_window
        self.truncate = truncate
        self._rng = random.Random(seed)
        self._heap = []
        self._seq = itertools.count()
        self._ports = itertools.count(40000)
        self.dropped = self.duplicated = self.truncated = 0

    def address(self):
        """A fresh address that no role owns (yet)."""
        return (LOOPBACK, next(self._ports))

    def add(self, role, addr=None):
        """Plug ``role`` in at ``addr`` (a fresh one by default)."""
        addr = addr or self.address()
        self.roles[addr] = role
        return addr

    def send(self, src, frames):
        """Put ``src``'s frames on the wire (counted as its ``frames_tx``,
        as ``serve`` counts them)."""
        role = self.roles.get(src)
        for frame, dst in frames:
            if role is not None:
                role.counters["frames_tx"] += 1
            draw = self._rng.random
            if self.drop and draw() < self.drop:
                self.dropped += 1
                continue
            if self.truncate and draw() < self.truncate:
                frame = frame[: int(draw() * len(frame))]
                self.truncated += 1
            copies = 1
            if self.duplicate and draw() < self.duplicate:
                copies = 2
                self.duplicated += 1
            for _ in range(copies):
                delay = self.latency
                if self.reorder and draw() < self.reorder:
                    delay += draw() * self.reorder_window
                heapq.heappush(
                    self._heap, (self.now + delay, next(self._seq), frame, src, dst)
                )

    def _next_timer(self):
        due, owner = math.inf, None
        for addr, role in self.roles.items():
            if not role.done and role.next_timer < due:
                due, owner = role.next_timer, addr
        return due, owner

    def run(self, until=None, horizon=600.0, max_events=2_000_000):
        """Deliver frames and fire timers in time order until ``until()``
        (default: every role done).  A role's exception propagates."""
        if until is None:
            until = lambda: all(role.done for role in self.roles.values())
        for _ in range(max_events):
            if until():
                return
            due, owner = self._next_timer()
            if self._heap and self._heap[0][0] <= due:
                when, _, frame, src, dst = heapq.heappop(self._heap)
                self.now = max(self.now, when)
                role = self.roles.get(dst)
                if role is not None and not role.done:
                    self.send(dst, role.handle_frame(frame, src))
            elif owner is not None:
                self.now = max(self.now, due)
                self.send(owner, self.roles[owner].on_timer(self.now))
            else:
                raise WireStalled(f"nothing left to do at t={self.now:.6f}")
            if self.now > horizon:
                raise WireStalled(f"still running at t={self.now:.1f}")
        raise WireStalled(f"{max_events} events without finishing")


def run_fleet(config, wire=None):
    """``config``'s live run on ``wire`` (a clean one by default): every
    member's role at its address, run until all of them are done; returns
    the ``TrainingResult``, as ``run_live`` builds it."""
    wire = wire or Wire()
    members = fleet(config, wire.address)
    roles = [member.build() for member in members]
    for member, role in zip(members, roles):
        wire.add(role, member.address)
    wire.run()
    reports = [(m.name, report(role, wire.now)) for m, role in zip(members, roles)]
    return _result(config, reports)


class Chatter:
    """Unrelated control frames (ACK) at ``target`` every ``period``: a
    20 Hz stream that used to restart a worker's whole watchdog timeout
    with every datagram."""

    done = False

    def __init__(self, target, period=0.05):
        self.target = target
        self.period = period
        self.counters = {"frames_tx": 0}
        self.next_timer = period
        self._frame = encode_control(ControlMessage(Action.ACK, value=1))

    def on_timer(self, now):
        self.next_timer = now + self.period
        return [(self._frame, self.target)]

    def handle_frame(self, frame, addr):
        return []
