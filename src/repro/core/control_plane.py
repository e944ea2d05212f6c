"""The iSwitch control plane (paper §3.3, Figure 9).

The control plane keeps a lightweight **membership table** — one row per
worker or switch participating in the training job, recording its unique
ID, address, UDP port, type, and parent in the aggregation hierarchy —
and manages the accelerator (initialization, ``SetH``, ``Reset``).

Rows are added/removed via ``Join``/``Leave`` control messages (or
programmatically by the topology orchestrator, which models an operator
pre-configuring the switch).  The data plane consults the table to learn
which attached members should receive result broadcasts and which parent
switch partial aggregates flow to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["MemberType", "MemberEntry", "MembershipTable"]


class MemberType:
    """Row types in the membership table (Figure 9)."""

    WORKER = "worker"
    SWITCH = "switch"


@dataclass
class MemberEntry:
    """One row of the membership table.

    ``address`` plays the role of the paper's IP column (the simulator
    addresses devices by name), ``parent`` is the ID of the switch this
    member sends contributions to (``None`` for the root switch).
    """

    member_id: int
    address: str
    port: int
    member_type: str
    parent: Optional[int] = None


class MembershipTable:
    """The Join/Leave-maintained membership state of one switch."""

    def __init__(self) -> None:
        self._by_id: Dict[int, MemberEntry] = {}
        self._by_address: Dict[str, MemberEntry] = {}
        self._next_id = 0
        #: All member addresses, in join order: what every result
        #: broadcast reads, so it is rebuilt on the (rare) Join and Leave
        #: rather than per read.  Ids only grow, so ``_by_id`` is in order.
        self.addresses: List[str] = []

    def join(
        self,
        address: str,
        port: int,
        member_type: str = MemberType.WORKER,
        parent: Optional[int] = None,
    ) -> MemberEntry:
        """Add a member; idempotent on address (re-join returns the row)."""
        existing = self._by_address.get(address)
        if existing is not None:
            return existing
        if member_type not in (MemberType.WORKER, MemberType.SWITCH):
            raise ValueError(f"unknown member type: {member_type!r}")
        entry = MemberEntry(
            member_id=self._next_id,
            address=address,
            port=port,
            member_type=member_type,
            parent=parent,
        )
        self._next_id += 1
        self._by_id[entry.member_id] = entry
        self._by_address[address] = entry
        self.addresses = [e.address for e in self._by_id.values()]
        return entry

    def leave(self, address: str) -> bool:
        """Remove a member by address; returns whether it was present."""
        entry = self._by_address.pop(address, None)
        if entry is None:
            return False
        del self._by_id[entry.member_id]
        self.addresses = [e.address for e in self._by_id.values()]
        return True

    def get(self, address: str) -> Optional[MemberEntry]:
        return self._by_address.get(address)

    def children_of(self, parent_id: Optional[int]) -> List[MemberEntry]:
        """Members whose parent column equals ``parent_id``."""
        return [e for e in self._by_id.values() if e.parent == parent_id]

    @property
    def workers(self) -> List[MemberEntry]:
        return [
            e for e in self._by_id.values() if e.member_type == MemberType.WORKER
        ]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, address: str) -> bool:
        return address in self._by_address
