"""The iSwitch wire protocol (paper §3.2, Figure 5, Table 2).

Packets belonging to in-switch training are tagged through the IP **ToS**
byte.  Three reserved values are used:

* :data:`TOS_CONTROL` — control messages (Figure 5a): a 1-byte ``Action``
  code plus an optional ``Value`` payload.
* :data:`TOS_DATA_UP` — gradient contributions flowing worker → switch →
  (optionally) parent switch (Figure 5b): an 8-byte ``Seg`` index followed
  by raw float32 gradient data.
* :data:`TOS_DATA_DOWN` — aggregated results broadcast switch → workers.
  The paper distinguishes directions implicitly by port; an explicit second
  ToS value keeps the simulated data plane honest without changing hop
  counts or packet sizes (both directions carry the same 8-byte ``Seg``
  header).

Gradient vectors are segmented for transmission by a :class:`SegmentPlan`:
each data frame carries ``Seg`` (8 bytes) + up to 1464 bytes = 366 float32
gradient elements.  ``Seg`` numbers are globally unique across aggregation
rounds (``seg = round * segments_per_vector + offset``) so the accelerator
never confuses two rounds' worth of the same vector offset.
"""

from __future__ import annotations

import enum
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..netsim.packets import MAX_UDP_PAYLOAD, PER_FRAME_OVERHEAD, Packet, PacketTrain

__all__ = [
    "TOS_CONTROL",
    "TOS_DATA_UP",
    "TOS_DATA_DOWN",
    "TOS_NUMERICS_MASK",
    "ISWITCH_TOS_VALUES",
    "ISWITCH_UDP_PORT",
    "SEG_HEADER_BYTES",
    "SEG_PAYLOAD_BYTES",
    "FLOATS_PER_SEGMENT",
    "FLOAT_BYTES",
    "MAX_JOB_ID",
    "MAX_SEG_INDEX",
    "Action",
    "ProtocolError",
    "JoinInfo",
    "ControlMessage",
    "DataSegment",
    "SegmentRun",
    "SegmentPlan",
    "cached_segment",
    "encode_control",
    "encode_data",
    "decode_frame",
    "decode_data_header",
    "decode_payload",
    "make_control_packet",
    "make_data_packet",
]

TOS_CONTROL = 0x04
TOS_DATA_UP = 0x08
TOS_DATA_DOWN = 0x0C
#: Low two bits of a *data* ToS byte: the numerics tag selecting the
#: gradient codec (0 = fp32, see PROTOCOL.md §8).  The three base values
#: above all have these bits clear, so untagged fp32 frames are
#: byte-identical to the pre-codec wire format.
TOS_NUMERICS_MASK = 0x03
ISWITCH_TOS_VALUES = frozenset({TOS_CONTROL, TOS_DATA_UP, TOS_DATA_DOWN})

#: The reserved UDP port iSwitch traffic uses (membership table, Figure 9).
ISWITCH_UDP_PORT = 9999

SEG_HEADER_BYTES = 8  # the 8-byte Seg field (Figure 5b)
FLOAT_BYTES = 4  # "raw float-point format", fp32
SEG_PAYLOAD_BYTES = MAX_UDP_PAYLOAD - SEG_HEADER_BYTES  # 1464 B
FLOATS_PER_SEGMENT = SEG_PAYLOAD_BYTES // FLOAT_BYTES  # 366 elements

#: Job ids ride in reserved high bits of existing fields (see
#: :class:`ControlMessage`); 7 bits keep every encoding uniform.
MAX_JOB_ID = 127
#: Seg indices share their 8-byte field with the job id: low 56 bits.
MAX_SEG_INDEX = (1 << 56) - 1


class Action(enum.IntEnum):
    """Control-message action codes (Table 2)."""

    JOIN = 1  #: Join the training job
    LEAVE = 2  #: Leave the training job
    RESET = 3  #: Clear accelerator buffers/counters on the switch
    SETH = 4  #: Set the aggregation threshold H on the switch
    FBCAST = 5  #: Force broadcasting a partially aggregated segment
    HELP = 6  #: Request a lost data packet for a worker
    HALT = 7  #: Suspend the training job on all workers
    ACK = 8  #: Confirm the success/failure of actions


class ProtocolError(ValueError):
    """A frame cannot be encoded to / decoded from the wire format.

    Raised for malformed, truncated, or out-of-range frames; decoding
    arbitrary bytes must raise this (or return a valid message), never
    crash with an unrelated exception.
    """


@dataclass(slots=True)
class JoinInfo:
    """The Value payload of a JOIN control message (16 bytes on the wire).

    Carries the metadata a switch needs to admit a member: what kind of
    node is joining, its rank (used as the canonical sender identity in
    live mode), and the gradient geometry it will stream.
    """

    member_type: str = "worker"  #: ``"worker"`` or ``"switch"``
    rank: int = 0
    n_elements: int = 0
    n_chunks: int = 0


@dataclass(slots=True)
class ControlMessage:
    """Payload of a control packet: the Action byte plus optional Value.

    ``job`` selects which training job the message addresses when one
    switch hosts several (see :mod:`repro.core.jobs`); it is encoded in
    the Value field's reserved bits, so packet sizes are unchanged.
    """

    action: Action
    value: Any = None
    job: int = 0

    @property
    def payload_size(self) -> int:
        """Action is 1 byte; Value sizes are modelled per action."""
        if self.value is None:
            return 1
        if self.action == Action.SETH:
            return 1 + 4  # H as a 32-bit integer
        if self.action in (Action.FBCAST, Action.HELP):
            return 1 + SEG_HEADER_BYTES  # the Seg index in question
        if self.action == Action.JOIN:
            return 1 + 16  # model meta-data (size, segment count, ...)
        if self.action == Action.ACK:
            return 1 + 1  # success/failure flag
        return 1 + 8


@dataclass(slots=True)
class DataSegment:
    """Payload of a data packet: the Seg index plus gradient values.

    ``data`` is a float32 array.  ``sender`` and ``commit_id`` identify the
    contribution for optional duplicate suppression during loss recovery
    (the real accelerator is a pure counter; see
    :class:`repro.core.accelerator.AggregationEngine`).
    """

    seg: int
    data: np.ndarray
    sender: str = ""
    commit_id: int = 0
    #: Training-job id for multi-tenant switches; carried in the high
    #: bits of the 8-byte Seg field, so packet sizes are unchanged.
    job: int = 0
    #: Wire footprint stamped by :func:`make_data_packet` (UDP payload
    #: bytes / Ethernet frames), so switches emit results with exactly the
    #: footprint the contributions had — including any wire multiplier.
    wire_payload: Optional[int] = None
    wire_frames: Optional[int] = None

    def __post_init__(self) -> None:
        if self.seg < 0:
            raise ValueError(f"Seg index must be >= 0, got {self.seg}")
        if not isinstance(self.data, np.ndarray):
            raise TypeError(
                f"DataSegment.data must be an ndarray, got {type(self.data).__name__}"
            )
        if self.data.dtype != np.float32:
            raise ValueError(
                f"DataSegment.data must be float32, got {self.data.dtype}; "
                "the wire codec would silently reinterpret other dtypes"
            )
        if self.data.ndim != 1:
            raise ValueError(
                f"DataSegment.data must be 1-D, got shape {self.data.shape}"
            )
        if not self.data.flags.c_contiguous:
            raise ValueError("DataSegment.data must be C-contiguous")

    @classmethod
    def trusted(
        cls,
        seg: int,
        data: np.ndarray,
        sender: str = "",
        commit_id: int = 0,
        job: int = 0,
        wire_payload: Optional[int] = None,
        wire_frames: Optional[int] = None,
    ) -> "DataSegment":
        """Validation-free constructor for arrays the caller already owns.

        The datapath creates one segment per chunk per round; every hot
        producer (plan splitting, engine completion, upstream forwarding)
        derives ``data`` from an array that went through ``__post_init__``
        once, so the float32/1-D/contiguity checks cannot newly fail.
        """
        s = object.__new__(cls)
        s.seg = seg
        s.data = data
        s.sender = sender
        s.commit_id = commit_id
        s.job = job
        s.wire_payload = wire_payload
        s.wire_frames = wire_frames
        return s


@dataclass(slots=True, eq=False)
class SegmentRun:
    """Consecutive chunks ``[lo, hi)`` of one plan-cut vector, as one object:
    a header (``job``, the first chunk's ``seg``, ``sender``, ``commit_id``)
    plus the float32 ``data`` of exactly those chunks; the geometry is the
    plan's, built once.  The datapath moves, sums and emits runs; per-chunk
    :class:`DataSegment` objects exist only for a consumer that asks
    (:meth:`segments`): a capture, the per-packet arbiter, a Help cache.
    ``commit_id=None`` means "each chunk's own Seg" (a switch's partials).
    Validated by :meth:`SegmentPlan.run`; ``run[a:b]`` and
    ``dataclasses.replace`` keep it valid.
    """

    plan: "SegmentPlan"
    lo: int
    hi: int
    seg: int
    data: np.ndarray
    sender: str = ""
    commit_id: Optional[int] = 0
    job: int = 0
    _segments: Optional[List[DataSegment]] = field(default=None, init=False)

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self):
        return iter(self.segments())

    def __getitem__(self, part: slice) -> "SegmentRun":
        """Chunks ``[a, b)`` of this run — still a run (a barrier split)."""
        a, b, step = part.indices(self.hi - self.lo)
        if step != 1 or b <= a:
            raise ValueError(f"a run is cut into contiguous runs, got {part}")
        offsets = self.plan._offsets
        first = offsets[self.lo]
        return SegmentRun(
            self.plan, self.lo + a, self.lo + b, self.seg + a,
            self.data[offsets[self.lo + a] - first : offsets[self.lo + b] - first],
            self.sender, self.commit_id, self.job,
        )

    # What :class:`repro.netsim.packets.PacketTrain` reads of its run.
    def packets(self, header) -> List[Packet]:
        """Its packets under a train's ``header``, built now."""
        return header.stamped(self.segments())

    @property
    def wire_sizes(self) -> np.ndarray:
        """Per-chunk bytes on the wire, headers included (float64)."""
        return self.plan._wire_sizes[self.lo : self.hi]

    @property
    def wire_total(self) -> int:
        cumulative = self.plan._wire_cumulative
        return cumulative[self.hi] - cumulative[self.lo]

    @property
    def payload_sizes(self) -> List[int]:
        return self.plan._wire_payloads[self.lo : self.hi]

    def segments(self) -> List[DataSegment]:
        """Its per-chunk segments, wire-stamped; built once, then shared."""
        if self._segments is None:
            plan = self.plan
            offsets = plan._offsets
            first = offsets[self.lo]
            self._segments = [
                DataSegment.trusted(
                    seg,
                    self.data[offsets[chunk] - first : offsets[chunk + 1] - first],
                    self.sender,
                    seg if self.commit_id is None else self.commit_id,
                    self.job,
                    plan._wire_payloads[chunk],
                    plan._wire_frames[chunk],
                )
                for seg, chunk in enumerate(range(self.lo, self.hi), self.seg)
            ]
        return self._segments


def cached_segment(cache: dict, seg: int) -> Optional[DataSegment]:
    """``seg`` from a by-Seg cache of segments and (whole-round) runs."""
    entry = cache.get(seg)
    if isinstance(entry, SegmentRun):
        return entry.segments()[seg - entry.seg]
    return entry


class SegmentPlan:
    """How one gradient vector of ``n_elements`` floats maps onto packets.

    ``frames_per_chunk`` groups consecutive frames into a single simulated
    packet *train* (see :class:`repro.netsim.packets.Packet`); semantics
    are unchanged because every worker uses the identical plan, so the
    aggregation unit is simply ``frames_per_chunk`` segments at once.

    ``wire_multiplier`` scales every packet's *wire* footprint (payload
    bytes and frame count) without touching the carried data.  The
    convergence experiments train small NumPy models but must move the
    paper's multi-megabyte vectors on the simulated network; a multiplier
    of k makes each chunk occupy exactly the bytes of k real chunks.
    """

    def __init__(
        self,
        n_elements: int,
        frames_per_chunk: int = 1,
        wire_multiplier: int = 1,
        bytes_per_element: int = FLOAT_BYTES,
        frame_overhead: int = 0,
    ) -> None:
        if n_elements < 1:
            raise ValueError(f"need at least one element, got {n_elements}")
        if frames_per_chunk < 1:
            raise ValueError(f"frames_per_chunk must be >= 1, got {frames_per_chunk}")
        if wire_multiplier < 1:
            raise ValueError(f"wire_multiplier must be >= 1, got {wire_multiplier}")
        if bytes_per_element < 1:
            raise ValueError(
                f"bytes_per_element must be >= 1, got {bytes_per_element}"
            )
        if not 0 <= frame_overhead <= SEG_PAYLOAD_BYTES - bytes_per_element:
            raise ValueError(
                f"frame_overhead must leave room for at least one element, "
                f"got {frame_overhead}"
            )
        self.n_elements = n_elements
        self.frames_per_chunk = frames_per_chunk
        self.wire_multiplier = wire_multiplier
        #: Wire width of one gradient element (4 = the paper's raw fp32;
        #: smaller values model compressed wires, see
        #: :mod:`repro.core.compression`).
        self.bytes_per_element = bytes_per_element
        #: Per-frame payload bytes spent before the first element (the
        #: scale/count words of compressed codecs, PROTOCOL.md §8).
        self.frame_overhead = frame_overhead
        self.elements_per_frame = (
            SEG_PAYLOAD_BYTES - frame_overhead
        ) // bytes_per_element
        self.n_frames = math.ceil(n_elements / self.elements_per_frame)
        self.n_chunks = math.ceil(self.n_frames / frames_per_chunk)
        self.elements_per_chunk = self.elements_per_frame * frames_per_chunk
        # Per-chunk geometry, as columns, built once: every run and every
        # data packet of this plan reads its element bounds, its wire
        # footprint (UDP payload bytes, frames — the values stamped on
        # outgoing chunks) and its bytes on the wire here.
        per_chunk = self.elements_per_chunk
        self._offsets = [
            min(chunk * per_chunk, n_elements) for chunk in range(self.n_chunks + 1)
        ]
        sizes = [stop - start for start, stop in zip(self._offsets, self._offsets[1:])]
        self._chunk_frames = [
            math.ceil(size / self.elements_per_frame) for size in sizes
        ]
        per_frame = SEG_HEADER_BYTES + frame_overhead
        self._wire_payloads = [
            wire_multiplier * (frames * per_frame + size * bytes_per_element)
            for frames, size in zip(self._chunk_frames, sizes)
        ]
        self._wire_frames = [frames * wire_multiplier for frames in self._chunk_frames]
        wire = [
            frames * PER_FRAME_OVERHEAD + payload
            for frames, payload in zip(self._wire_frames, self._wire_payloads)
        ]
        self._wire_sizes = np.array(wire, dtype=np.float64)
        self._wire_sizes.flags.writeable = False
        #: Running total of ``wire``: any part of a run knows its bytes.
        self._wire_cumulative = [0, *itertools.accumulate(wire)]

    @property
    def wire_bytes(self) -> int:
        """Total UDP payload bytes for one full vector (headers excluded)."""
        return (
            self.n_frames * (SEG_HEADER_BYTES + self.frame_overhead)
            + self.n_elements * self.bytes_per_element
        )

    def chunk_bounds(self, chunk: int) -> tuple:
        """(start, stop) element indices of chunk ``chunk``."""
        if not 0 <= chunk < self.n_chunks:
            raise IndexError(f"chunk {chunk} out of range [0, {self.n_chunks})")
        return self._offsets[chunk], self._offsets[chunk + 1]

    def chunk_frames(self, chunk: int) -> int:
        """Number of real Ethernet frames this chunk stands for."""
        if not 0 <= chunk < self.n_chunks:
            raise IndexError(f"chunk {chunk} out of range [0, {self.n_chunks})")
        return self._chunk_frames[chunk]

    def run(
        self,
        vector: np.ndarray,
        round_index: int,
        sender: str = "",
        commit_id: int = 0,
        job: int = 0,
    ) -> SegmentRun:
        """One gradient vector as one :class:`SegmentRun` (no copy of a
        contiguous float32 vector, and no per-chunk object).

        Seg numbers are offset by ``round_index * n_chunks`` so they are
        globally unique across aggregation rounds.
        """
        if vector.shape != (self.n_elements,):
            raise ValueError(
                f"vector shape {vector.shape} != ({self.n_elements},)"
            )
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        if vector.dtype != np.float32:
            vector = vector.astype(np.float32)
        else:
            vector = np.ascontiguousarray(vector)
        return SegmentRun(
            self, 0, self.n_chunks, round_index * self.n_chunks, vector,
            sender, commit_id, job,
        )

    def split(
        self,
        vector: np.ndarray,
        round_index: int,
        sender: str = "",
        commit_id: int = 0,
    ) -> List[DataSegment]:
        """Slice a gradient vector into per-chunk :class:`DataSegment`
        objects: :meth:`run`, as the segments it stands for."""
        return self.run(vector, round_index, sender, commit_id).segments()

    def assemble(self, segments: Sequence[DataSegment]) -> np.ndarray:
        """Reassemble one round's segments into a full vector.

        Segments may arrive in any order; their round base is inferred from
        the smallest chunk offset present.  All ``n_chunks`` segments of
        the round must be present.
        """
        if len(segments) != self.n_chunks:
            raise ValueError(
                f"expected {self.n_chunks} segments, got {len(segments)}"
            )
        base = min(s.seg for s in segments)
        base -= base % self.n_chunks
        out = np.empty(self.n_elements, dtype=np.float32)
        seen = set()
        for seg in segments:
            chunk = seg.seg - base
            if not 0 <= chunk < self.n_chunks:
                raise ValueError(
                    f"segment {seg.seg} is not part of round base {base}"
                )
            if chunk in seen:
                raise ValueError(f"duplicate chunk {chunk} in round {base}")
            seen.add(chunk)
            start, stop = self.chunk_bounds(chunk)
            if seg.data.shape != (stop - start,):
                raise ValueError(
                    f"chunk {chunk} has {seg.data.shape[0]} elements, "
                    f"expected {stop - start}"
                )
            out[start:stop] = seg.data
        return out

    def round_of_seg(self, seg: int) -> int:
        """Which aggregation round a global Seg number belongs to."""
        return seg // self.n_chunks

    def chunk_of_seg(self, seg: int) -> int:
        """Chunk offset of a global Seg number within its round."""
        return seg % self.n_chunks


# ---------------------------------------------------------------------------
# Byte codec (docs/PROTOCOL.md §7)
# ---------------------------------------------------------------------------
#
# A wire frame is the 1-byte ToS tag followed by the UDP payload exactly as
# PROTOCOL.md lays it out.  On a real network the tag lives in the IP
# header's ToS byte, which portable UDP sockets can neither set per-packet
# nor read back; prefixing it keeps loopback frames self-describing while
# leaving every modelled payload byte identical.  All multi-byte fields are
# little-endian.

_MEMBER_CODES = {"worker": 1, "switch": 2}
_MEMBER_NAMES = {code: name for name, code in _MEMBER_CODES.items()}

#: JOIN Value layout: member code, rank, job, n_elements, n_chunks, reserved.
_JOIN_STRUCT = struct.Struct("<BBHIII")

_SETH_H_BITS = 24  # low bits of the 32-bit SETH Value; high 8 carry the job

_CONTROL_PREFIX = bytes((TOS_CONTROL,))
_F4 = np.dtype("<f4")


def encode_control(message: ControlMessage) -> bytes:
    """Serialize a control message to its wire frame.

    The frame is exactly ``1 + message.payload_size`` bytes: the ToS tag
    plus the modelled Action/Value payload.  Raises :class:`ProtocolError`
    for values the layout cannot carry.
    """
    try:
        action = Action(message.action)
    except ValueError as exc:
        raise ProtocolError(f"unknown action {message.action!r}") from exc
    job = message.job
    if not isinstance(job, int) or not 0 <= job <= MAX_JOB_ID:
        raise ProtocolError(f"job id must be in [0, {MAX_JOB_ID}], got {job!r}")
    head = bytes((TOS_CONTROL, action))
    value = message.value
    if value is None:
        if job:
            raise ProtocolError(
                f"{action.name} without a Value has no field to carry job {job}"
            )
        return head
    if action == Action.JOIN:
        if not isinstance(value, JoinInfo):
            raise ProtocolError(
                f"JOIN Value must be a JoinInfo, got {type(value).__name__}"
            )
        code = _MEMBER_CODES.get(value.member_type)
        if code is None:
            raise ProtocolError(f"unknown member type {value.member_type!r}")
        if not 0 <= value.rank <= 0xFF:
            raise ProtocolError(f"rank must fit one byte, got {value.rank}")
        if not 0 <= value.n_elements <= 0xFFFFFFFF:
            raise ProtocolError(f"n_elements out of range: {value.n_elements}")
        if not 0 <= value.n_chunks <= 0xFFFFFFFF:
            raise ProtocolError(f"n_chunks out of range: {value.n_chunks}")
        return head + _JOIN_STRUCT.pack(
            code, value.rank, job, value.n_elements, value.n_chunks, 0
        )
    if not isinstance(value, int):
        raise ProtocolError(
            f"{action.name} Value must be an int, got {type(value).__name__}"
        )
    if action == Action.SETH:
        if not 0 <= value < 1 << _SETH_H_BITS:
            raise ProtocolError(f"SETH H must fit {_SETH_H_BITS} bits, got {value}")
        return head + struct.pack("<I", (job << _SETH_H_BITS) | value)
    if action == Action.ACK:
        if value not in (0, 1):
            raise ProtocolError(f"ACK flag must be 0 or 1, got {value}")
        return head + struct.pack("<B", (job << 1) | value)
    # FBCAST/HELP carry a Seg index; LEAVE/RESET/HALT reuse the same
    # 8-byte Value layout for any ad-hoc integer payload.
    if not 0 <= value <= MAX_SEG_INDEX:
        raise ProtocolError(
            f"{action.name} Value must be in [0, {MAX_SEG_INDEX}], got {value}"
        )
    return head + struct.pack("<Q", (job << 56) | value)


def encode_data(
    segment: DataSegment, downstream: bool = False, codec=None
) -> bytes:
    """Serialize one data segment to its wire frame (Figure 5b).

    The frame is the ToS tag, the 8-byte Seg field (job id in the high
    bits), then the payload.  Without a codec (or with fp32) the payload
    is raw little-endian float32 and the frame is byte-identical to the
    pre-codec wire format; a :class:`~repro.core.compression.GradientCodec`
    with a ``wire_tag`` sets the tag in the ToS low bits and lays the
    payload out per PROTOCOL.md §8.
    """
    if not 0 <= segment.job <= MAX_JOB_ID:
        raise ProtocolError(
            f"job id must be in [0, {MAX_JOB_ID}], got {segment.job}"
        )
    if segment.seg > MAX_SEG_INDEX:
        raise ProtocolError(f"Seg index {segment.seg} exceeds {MAX_SEG_INDEX}")
    tos = TOS_DATA_DOWN if downstream else TOS_DATA_UP
    if codec is None or codec.wire_tag == 0:
        if segment.data.size > FLOATS_PER_SEGMENT:
            raise ProtocolError(
                f"{segment.data.size} floats exceed one frame's "
                f"{FLOATS_PER_SEGMENT}-element capacity"
            )
        header = struct.pack("<BQ", tos, (segment.job << 56) | segment.seg)
        return header + segment.data.astype("<f4", copy=False).tobytes()
    if codec.wire_tag is None:
        raise ProtocolError(f"codec {codec.name!r} has no wire format")
    if segment.data.size > codec.elements_per_frame:
        raise ProtocolError(
            f"{segment.data.size} elements exceed one {codec.name} frame's "
            f"{codec.elements_per_frame}-element capacity"
        )
    header = struct.pack(
        "<BQ", tos | codec.wire_tag, (segment.job << 56) | segment.seg
    )
    return header + codec.encode_payload(segment.data, downstream=downstream)


def decode_frame(
    frame: Union[bytes, bytearray, memoryview],
) -> Tuple[int, Union[ControlMessage, DataSegment]]:
    """Parse a wire frame back into ``(tos, message)``.

    The inverse of :func:`encode_control` / :func:`encode_data`:
    fp32/control round-trips are lossless; compressed data frames decode
    to the dense float32 values the codec's grid represents (the returned
    ``tos`` keeps its numerics tag so callers know which codec applied).
    Malformed input of any kind raises :class:`ProtocolError`; no other
    exception escapes.
    """
    buf = bytes(frame)
    if buf[:1] == _CONTROL_PREFIX:
        return TOS_CONTROL, _decode_control(buf)
    tos, job, seg = decode_data_header(buf)
    # A fresh, writable, native-order copy: the caller owns the message.
    return tos, DataSegment(seg=seg, data=np.array(decode_payload(buf)), job=job)


def decode_data_header(frame: bytes) -> Tuple[int, int, int]:
    """``(tos, job, seg)`` of a data frame — the header half of
    :func:`decode_frame`, with every length and job check it makes, so
    :func:`decode_payload` can only fail inside a codec's own layout."""
    body_len = len(frame) - 1 - SEG_HEADER_BYTES
    if body_len < 0:
        raise ProtocolError(
            f"frame of {len(frame)} B is shorter than a data frame's header"
        )
    tos = frame[0]
    if (tos & ~TOS_NUMERICS_MASK) not in (TOS_DATA_UP, TOS_DATA_DOWN):
        raise ProtocolError(f"unknown ToS tag 0x{tos:02x}")
    if not tos & TOS_NUMERICS_MASK:
        if body_len % FLOAT_BYTES:
            raise ProtocolError(
                f"data payload of {body_len} B is not whole float32 elements"
            )
        if body_len > SEG_PAYLOAD_BYTES:
            raise ProtocolError(
                f"data payload of {body_len} B exceeds one frame "
                f"({SEG_PAYLOAD_BYTES} B max)"
            )
    word = struct.unpack_from("<Q", frame, 1)[0]
    return tos, _decode_job(word >> 56), word & MAX_SEG_INDEX


def decode_payload(frame: bytes) -> np.ndarray:
    """The float32 payload of a data frame :func:`decode_data_header`
    accepted: a read-only view of the frame's own bytes (fp32), or the
    dense values the codec's grid represents (the ToS numerics tag)."""
    tag = frame[0] & TOS_NUMERICS_MASK
    if not tag:  # positional: NumPy parses keyword arguments slowly
        return np.frombuffer(frame, _F4, -1, 1 + SEG_HEADER_BYTES)
    # The codec registered for the tag owns the payload layout (PROTOCOL.md
    # §8).  Imported lazily — compression builds on this module's constants.
    from .compression import codec_for_tag

    data = codec_for_tag(tag).decode_payload(
        frame[1 + SEG_HEADER_BYTES :],
        downstream=(frame[0] & ~TOS_NUMERICS_MASK) == TOS_DATA_DOWN,
    )
    return np.ascontiguousarray(data, dtype=np.float32)


def _decode_job(word_high: int) -> int:
    if word_high > MAX_JOB_ID:
        raise ProtocolError(f"job id {word_high} exceeds {MAX_JOB_ID}")
    return word_high


def _decode_control(buf: bytes) -> ControlMessage:
    if len(buf) < 2:
        raise ProtocolError("control frame is missing its Action byte")
    try:
        action = Action(buf[1])
    except ValueError as exc:
        raise ProtocolError(f"unknown action code {buf[1]}") from exc
    body = buf[2:]
    if not body:
        return ControlMessage(action=action, value=None, job=0)
    if action == Action.JOIN:
        if len(body) != _JOIN_STRUCT.size:
            raise ProtocolError(
                f"JOIN Value must be {_JOIN_STRUCT.size} bytes, got {len(body)}"
            )
        code, rank, job, n_elements, n_chunks, reserved = _JOIN_STRUCT.unpack(body)
        if reserved:
            raise ProtocolError(f"JOIN reserved field must be zero, got {reserved}")
        member = _MEMBER_NAMES.get(code)
        if member is None:
            raise ProtocolError(f"unknown member code {code}")
        info = JoinInfo(
            member_type=member, rank=rank, n_elements=n_elements, n_chunks=n_chunks
        )
        return ControlMessage(action=action, value=info, job=_decode_job(job))
    if action == Action.SETH:
        if len(body) != 4:
            raise ProtocolError(f"SETH Value must be 4 bytes, got {len(body)}")
        word = struct.unpack("<I", body)[0]
        return ControlMessage(
            action=action,
            value=word & ((1 << _SETH_H_BITS) - 1),
            job=_decode_job(word >> _SETH_H_BITS),
        )
    if action == Action.ACK:
        if len(body) != 1:
            raise ProtocolError(f"ACK Value must be 1 byte, got {len(body)}")
        return ControlMessage(action=action, value=body[0] & 1, job=body[0] >> 1)
    if len(body) != SEG_HEADER_BYTES:
        raise ProtocolError(
            f"{action.name} Value must be {SEG_HEADER_BYTES} bytes, got {len(body)}"
        )
    word = struct.unpack("<Q", body)[0]
    return ControlMessage(
        action=action, value=word & MAX_SEG_INDEX, job=_decode_job(word >> 56)
    )


def make_control_packet(
    src: str, dst: str, message: ControlMessage, src_port: int = ISWITCH_UDP_PORT
) -> Packet:
    """Build a ToS-tagged control packet (Figure 5a)."""
    return Packet(
        src=src,
        dst=dst,
        payload_size=message.payload_size,
        tos=TOS_CONTROL,
        payload=message,
        src_port=src_port,
        dst_port=ISWITCH_UDP_PORT,
        job=message.job,
    )


def make_data_packet(
    src: str,
    dst: str,
    segment: DataSegment,
    plan: SegmentPlan,
    downstream: bool = False,
    src_port: int = ISWITCH_UDP_PORT,
) -> Packet:
    """Build a ToS-tagged data packet (train) for one chunk (Figure 5b)."""
    chunk = segment.seg % plan.n_chunks
    payload_size, frames = plan._wire_payloads[chunk], plan._wire_frames[chunk]
    if segment.data.size != plan._offsets[chunk + 1] - plan._offsets[chunk]:
        # Off-plan segment (e.g. a truncated retransmission): recompute.
        mult = plan.wire_multiplier
        chunk_frames = plan._chunk_frames[chunk]
        frames = chunk_frames * mult
        payload_size = mult * (
            chunk_frames * (SEG_HEADER_BYTES + plan.frame_overhead)
            + segment.data.size * plan.bytes_per_element
        )
    segment.wire_payload = payload_size
    segment.wire_frames = frames
    # Trusted construction: the plan guarantees each chunk's payload fits
    # its frame count (validated when the plan was built).
    return Packet.trusted(
        src,
        dst,
        payload_size,
        TOS_DATA_DOWN if downstream else TOS_DATA_UP,
        segment,
        src_port,
        ISWITCH_UDP_PORT,
        frames,
        segment.job,
    )


def make_data_train(run: SegmentRun, dst: str) -> PacketTrain:
    """Build the upstream train of one gradient run: a header plus the run
    (DESIGN §11.1), from ``run.sender`` in ``run.job``."""
    return PacketTrain(run, run.sender, dst, TOS_DATA_UP, ISWITCH_UDP_PORT, run.job)
