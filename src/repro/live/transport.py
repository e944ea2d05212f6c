"""Loopback UDP endpoints for the live backend.

One :class:`UdpEndpoint` per process: a non-blocking socket bound to an
ephemeral port on 127.0.0.1 (by the parent, before the process starts),
whose receives take what is queued before they wait (DESIGN §9.4).
Datagram boundaries map one-to-one onto protocol frames, so no
additional framing is needed.
"""

from __future__ import annotations

import contextlib
import os
import select
import socket
from typing import Optional, Tuple

__all__ = ["UdpEndpoint", "loopback_available", "Address"]

Address = Tuple[str, int]

LOOPBACK = "127.0.0.1"

#: Socket receive-buffer request.  A 4-worker synth round is ~64
#: frames/worker of ~1.5 kB; 1 MiB absorbs every worker bursting a full
#: round while the switch is descheduled.
RECV_BUFFER_BYTES = 1 << 20


class UdpEndpoint:
    """A bound, non-blocking loopback UDP socket with timeout receives."""

    def __init__(self, port: int = 0, recv_buffer: int = RECV_BUFFER_BYTES) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, recv_buffer
            )
        except OSError:
            pass  # caps vary by platform; the default still works
        self.sock.bind((LOOPBACK, port))
        self.sock.setblocking(False)
        self.address: Address = self.sock.getsockname()
        self._poll = select.poll()
        self._poll.register(self.sock, select.POLLIN)
        #: Receives that found the socket empty and blocked in a poll.
        self.waits = 0

    def __getstate__(self) -> dict:
        # A child started with the spawn method gets the socket by
        # multiprocessing's socket reduction (a duplicated descriptor);
        # the poll object is rebuilt around it.
        state = dict(self.__dict__)
        del state["_poll"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.sock.setblocking(False)
        self._poll = select.poll()
        self._poll.register(self.sock, select.POLLIN)

    def send(self, frame: bytes, addr: Address) -> None:
        try:
            self.sock.sendto(frame, addr)
        except BlockingIOError:
            # A transiently full send buffer: wait up to a second for room,
            # as a blocking socket would; past that the datagram is lost.
            if select.select((), (self.sock,), (), 1.0)[1]:
                with contextlib.suppress(BlockingIOError):
                    self.sock.sendto(frame, addr)

    def recv(self, timeout: Optional[float]) -> Optional[Tuple[bytes, Address]]:
        """One datagram — at once if one is queued — or ``None`` if
        ``timeout`` seconds pass first (or on close).  An empty socket
        yields the CPU once before it polls: where processes outnumber
        cores the peer about to send runs first, and what it sent is taken
        with no sleep and no wakeup."""
        for retry in (False, True):
            try:
                return self.sock.recvfrom(65536)
            except BlockingIOError:
                if not retry:
                    os.sched_yield()
            except OSError:
                return None  # closed from another thread during shutdown
        self.waits += 1
        try:
            if not self._poll.poll(None if timeout is None else max(timeout, 0) * 1e3):
                return None
            return self.sock.recvfrom(65536)
        except OSError:
            return None  # closed meanwhile, or a wakeup with nothing to read

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "UdpEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def loopback_available() -> bool:
    """Can this environment bind loopback UDP sockets and pass datagrams?

    The conformance tests skip (rather than fail) where sandboxes forbid
    socket creation or loopback delivery.
    """
    try:
        with UdpEndpoint() as a, UdpEndpoint() as b:
            a.send(b"ping", b.address)
            got = b.recv(timeout=1.0)
            return got is not None and got[0] == b"ping"
    except OSError:
        return False
