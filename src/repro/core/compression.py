"""Gradient wire codecs: trading precision for communication time.

The paper transmits gradients in "raw float-point format" (fp32) and cites
bandwidth-oriented follow-ups (GradiVeQ [56]) as complementary.  This
module implements that direction end-to-end: a :class:`GradientCodec`
determines how many bytes each gradient element occupies on the wire, how
a chunk's payload is laid out byte-for-byte (docs/PROTOCOL.md §8), and the
precision loss incurred.

Every codec provides two coupled views of the same quantizer:

* :meth:`GradientCodec.roundtrip` — the *loss model* the simulator applies
  to a whole gradient vector (encode ∘ decode, vectorized, idempotent);
* :meth:`GradientCodec.encode_payload` / :meth:`~GradientCodec.decode_payload`
  — the *wire format* of one chunk's payload, used by the byte codec in
  :mod:`repro.core.protocol` for the live UDP backend.

Both views quantize onto the same value grid, so a simulated run and a
live run of the same experiment see bit-identical numerics (the sim↔live
conformance suite asserts this per codec).

``int32-bs`` follows SwitchML (Sapio et al.): switch dataplanes cannot sum
floats, so the wire carries block-scaled integer mantissas that the switch
sums in int32 accumulators.  Integer addition is associative, which makes
this codec's in-switch summation *order independent* — fp32 summation is
not (see DESIGN.md §12 and ``canonical_order`` on the aggregation engine).

===========  =====  ===  ==================================================
Codec        B/elt  Tag  Scheme
===========  =====  ===  ==================================================
``fp32``       4     0   identity (the paper's format)
``fp16``       2     1   IEEE half precision
``int8``       1     --  linear quantization, one fp32 scale per vector
``int32-bs``   2     2   block-scaled integer mantissas, int32 summation
``topk``       4     3   per-frame top-k sparsification, index+value pairs
===========  =====  ===  ==================================================

``Tag`` is the 2-bit numerics tag carried in the low bits of the data ToS
byte (``--`` = simulator-only loss model, no wire format).  ``B/elt`` is
the wire width a :class:`~repro.core.protocol.SegmentPlan` models; codecs
with a per-frame scale/count word also declare ``frame_overhead`` bytes.

Examples
--------
Quantization is idempotent and exact on its own grid:

>>> import numpy as np
>>> codec = get_codec("int32-bs")
>>> x = np.array([0.5, -0.25, 3.14159], dtype=np.float32)
>>> once = codec.roundtrip(x)
>>> np.array_equal(codec.roundtrip(once), once)
True
>>> float(np.max(np.abs(once - x))) <= 2.0 ** -(codec.exponent + 1)
True

The wire format round-trips through the same grid:

>>> payload = codec.encode_payload(x)
>>> len(payload)  # 4-byte scale word + 2 bytes per element
10
>>> np.array_equal(codec.decode_payload(payload), once)
True

Top-k keeps only the ``ceil(n/4)`` largest-magnitude elements per frame:

>>> topk = get_codec("topk")
>>> sparse = topk.roundtrip(
...     np.array([4.0, -0.1, 0.2, -9.0, 5.5], dtype=np.float32))
>>> sparse.tolist()
[0.0, 0.0, 0.0, -9.0, 5.5]
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from .protocol import ProtocolError, SEG_PAYLOAD_BYTES

__all__ = [
    "GradientCodec",
    "Float32Codec",
    "Float16Codec",
    "Int8Codec",
    "Int32BlockScaledCodec",
    "TopKCodec",
    "get_codec",
    "codec_for_tag",
    "CODECS",
    "WIRE_CODECS",
]


class GradientCodec:
    """Base: a named element width, a wire layout, and a loss model."""

    name: str = "base"
    #: Wire bytes one gradient element occupies (the SegmentPlan width).
    bytes_per_element: int = 4
    #: Extra payload bytes per frame (scale/count words), before elements.
    frame_overhead: int = 0
    #: 2-bit numerics tag in the data ToS byte, or ``None`` for codecs
    #: that are simulator-only loss models without a wire format.
    wire_tag: Optional[int] = None
    #: True when the aggregation engine may sum this codec's contributions
    #: in integer accumulators (see ``AggregationEngine``).
    integer_sum: bool = False
    #: True when in-switch summation of this codec's frames is exactly
    #: order independent (integer addition), so the live switch needs no
    #: ``canonical_order`` to stay bit-comparable with the simulator.
    order_independent: bool = False

    @property
    def elements_per_frame(self) -> int:
        """Gradient elements one real wire frame can carry."""
        return (SEG_PAYLOAD_BYTES - self.frame_overhead) // self.bytes_per_element

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        """Apply the codec's quantization loss (encode ∘ decode).

        Returns float32; must be idempotent (a fixed point of itself) and
        must equal per-frame ``decode_payload(encode_payload(...))`` so
        the simulator and the live backend see identical values.
        """
        raise NotImplementedError

    def finalize_sum(self, total: np.ndarray) -> np.ndarray:
        """Post-process a completed aggregate before it leaves the switch.

        Models the rounding the *downstream* wire format imposes on the
        result: identity for fp32/topk (results travel as raw float32
        values), fp16 rounds the sum onto the half-precision grid, and
        ``int32-bs`` renormalizes the integer sum back into the 16-bit
        downstream mantissa range.  Applying it in the simulator keeps
        sim aggregates bit-identical to what live workers decode.
        """
        return total

    def encode_payload(self, data: np.ndarray, downstream: bool = False) -> bytes:
        """Serialize one chunk's float32 data to its wire payload bytes
        (everything after the 8-byte Seg header)."""
        raise ProtocolError(f"codec {self.name!r} has no wire format")

    def decode_payload(
        self, payload: bytes, downstream: bool = False
    ) -> np.ndarray:
        """Parse one chunk's payload bytes back to a dense float32 array.

        Malformed payloads raise :class:`ProtocolError`.
        """
        raise ProtocolError(f"codec {self.name!r} has no wire format")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class Float32Codec(GradientCodec):
    """Identity: the paper's raw fp32 wire format."""

    name = "fp32"
    bytes_per_element = 4
    wire_tag = 0

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        return np.asarray(vector, dtype=np.float32)

    def encode_payload(self, data: np.ndarray, downstream: bool = False) -> bytes:
        return np.asarray(data, dtype="<f4").tobytes()

    def decode_payload(
        self, payload: bytes, downstream: bool = False
    ) -> np.ndarray:
        if len(payload) % 4:
            raise ProtocolError(
                f"fp32 payload of {len(payload)} B is not whole float32 elements"
            )
        return np.frombuffer(payload, dtype="<f4").astype(np.float32)


class Float16Codec(GradientCodec):
    """IEEE half precision: 2 bytes/element, ~3 decimal digits.

    fp16→fp32 conversion is exact, so decoded values re-encode to the
    identical bytes; only the first encode rounds.
    """

    name = "fp16"
    bytes_per_element = 2
    wire_tag = 1

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        # Values beyond ±65504 overflow to ±inf — intended, not an error.
        with np.errstate(over="ignore"):
            return np.asarray(vector, dtype=np.float16).astype(np.float32)

    def finalize_sum(self, total: np.ndarray) -> np.ndarray:
        # A sum of fp16-grid values is not itself on the fp16 grid
        # (e.g. 1.0 + 2**-11); the downstream frames round it there, so
        # the engine must model that or sim and live would diverge.
        return self.roundtrip(total)

    def encode_payload(self, data: np.ndarray, downstream: bool = False) -> bytes:
        with np.errstate(over="ignore"):
            return np.asarray(data, dtype="<f2").tobytes()

    def decode_payload(
        self, payload: bytes, downstream: bool = False
    ) -> np.ndarray:
        if len(payload) % 2:
            raise ProtocolError(
                f"fp16 payload of {len(payload)} B is not whole float16 elements"
            )
        if len(payload) > SEG_PAYLOAD_BYTES:
            raise ProtocolError(
                f"fp16 payload of {len(payload)} B exceeds one frame"
            )
        return np.frombuffer(payload, dtype="<f2").astype(np.float32)


class Int8Codec(GradientCodec):
    """Linear int8 quantization with a per-vector fp32 scale.

    ``q = round(x / scale)`` with ``scale = max|x| / 127``; zero vectors
    pass through untouched.  The scale itself costs 4 bytes per vector —
    negligible against the 4x element shrink, and the wire model's
    per-frame Seg header already dwarfs it.

    The scale is *data dependent*, so contributions from different workers
    land on different grids and cannot be summed as integers — this codec
    stays a simulator-only loss model (no wire tag); ``int32-bs`` is the
    switch-summable fixed-point format.
    """

    name = "int8"
    bytes_per_element = 1

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float32)
        peak = float(np.abs(vector).max()) if vector.size else 0.0
        if peak == 0.0:
            return vector.copy()
        scale = peak / 127.0
        quantized = np.clip(np.rint(vector / scale), -127, 127)
        return (quantized * scale).astype(np.float32)


class Int32BlockScaledCodec(GradientCodec):
    """Block-scaled integers summed in int32 accumulators (SwitchML-style).

    Every value is a mantissa on the fixed grid ``2**-exponent``:

    * **upstream** frames carry a 4-byte scale word (= ``exponent``) and
      int16 mantissas ``m = clip(round(x * 2**e), ±32767)`` — 2 B/element,
      half the fp32 wire;
    * the switch widens mantissas to **int32 accumulators** and sums them.
      Integer addition is associative, so the aggregate is independent of
      packet arrival order — no ``canonical_order`` needed;
    * a completed sum is renormalized with an arithmetic right shift of
      ``sum_shift`` bits (:meth:`finalize_sum`) so it fits int16 again,
      and **downstream** frames carry scale word ``exponent - sum_shift``
      with int16 mantissas — results travel at 2 B/element too.

    With the defaults (``exponent=12``, ``sum_shift=4``) the representable
    range is ±8.0 at 2**-12 ≈ 2.4e-4 resolution, exact for up to
    ``2**sum_shift = 16`` contributors; beyond that the downstream encode
    saturates.  Out-of-range values saturate and NaN quantizes to 0 (a
    switch ALU has no NaN).  All sums of ≤512 contributions stay below
    2**24 mantissa units, where fp32 addition of grid values is *exact* —
    so the engine's float path, its int32 path, and the live switch agree
    bit for bit (DESIGN.md §12).
    """

    name = "int32-bs"
    bytes_per_element = 2
    frame_overhead = 4  # the per-chunk scale word
    wire_tag = 2
    integer_sum = True
    order_independent = True

    def __init__(self, exponent: int = 12, sum_shift: int = 4) -> None:
        if not 1 <= exponent <= 24:
            raise ValueError(f"exponent must be in [1, 24], got {exponent}")
        if not 0 <= sum_shift < exponent:
            raise ValueError(
                f"sum_shift must be in [0, exponent), got {sum_shift}"
            )
        self.exponent = exponent
        self.sum_shift = sum_shift

    _M_MAX = 32767  # int16 saturation bound

    def _mantissa(self, vector: np.ndarray, exponent: int) -> np.ndarray:
        # One working copy, updated in place; NaN survives rint and clip.
        scaled = np.asarray(vector, dtype=np.float32).astype(np.float64)
        scaled *= float(1 << exponent)
        np.rint(scaled, out=scaled)
        np.clip(scaled, -self._M_MAX, self._M_MAX, out=scaled)
        scaled[np.isnan(scaled)] = 0.0
        return scaled.astype(np.int32)

    @staticmethod
    def _dequantize(mantissa: np.ndarray, exponent: int) -> np.ndarray:
        return mantissa.astype(np.float32) * np.float32(2.0 ** -exponent)

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        return self._dequantize(
            self._mantissa(vector, self.exponent), self.exponent
        )

    # -- aggregation hooks (see AggregationEngine) ----------------------
    def engine_ingest(self, data: np.ndarray) -> np.ndarray:
        """Contribution values → int32 mantissas (exact: data is on-grid)."""
        return self._mantissa(data, self.exponent)

    def engine_emit(self, accumulator: np.ndarray) -> np.ndarray:
        """Integer sum → renormalized float32 result (the downstream grid)."""
        shifted = np.clip(
            accumulator >> self.sum_shift, -self._M_MAX, self._M_MAX
        )
        return self._dequantize(shifted, self.exponent - self.sum_shift)

    def finalize_sum(self, total: np.ndarray) -> np.ndarray:
        # The float sum of on-grid contributions is exact (< 2**24 mantissa
        # units), so recovering the integer sum loses nothing.
        mantissa_sum = np.rint(
            np.asarray(total, dtype=np.float64) * float(1 << self.exponent)
        ).astype(np.int64)
        return self.engine_emit(mantissa_sum)

    # -- wire format (PROTOCOL.md §8.3) ---------------------------------
    def encode_payload(self, data: np.ndarray, downstream: bool = False) -> bytes:
        exponent = self.exponent - self.sum_shift if downstream else self.exponent
        mantissa = self._mantissa(data, exponent)
        return struct.pack("<i", exponent) + mantissa.astype("<i2").tobytes()

    def decode_payload(
        self, payload: bytes, downstream: bool = False
    ) -> np.ndarray:
        if len(payload) < 4:
            raise ProtocolError(
                f"int32-bs payload of {len(payload)} B lacks its scale word"
            )
        if (len(payload) - 4) % 2:
            raise ProtocolError(
                f"int32-bs payload of {len(payload)} B is not whole mantissas"
            )
        if len(payload) > SEG_PAYLOAD_BYTES:
            raise ProtocolError(
                f"int32-bs payload of {len(payload)} B exceeds one frame"
            )
        scale = struct.unpack_from("<i", payload)[0]
        expected = self.exponent - self.sum_shift if downstream else self.exponent
        if scale != expected:
            raise ProtocolError(
                f"int32-bs scale word {scale} != configured exponent {expected}"
            )
        mantissa = np.frombuffer(payload, dtype="<i2", offset=4).astype(np.int32)
        return self._dequantize(mantissa, scale)


class TopKCodec(GradientCodec):
    """Per-frame top-k sparsification with index+value pairs.

    Upstream, each frame keeps only the ``k = ceil(n/4)`` largest-magnitude
    elements of its ``n`` dense elements (ties broken toward the lower
    index; NaN counts as largest).  The payload is self-describing::

        u16 dense_n | u16 k | k × u16 index (strictly increasing) | k × f4

    When ``k == dense_n`` the index array is omitted and the values are the
    full dense frame — the form every *downstream* (result) frame uses,
    since an aggregate is the union of the workers' k-sets and therefore
    dense.  The ``bytes_per_element = 4`` plan width models that downstream
    footprint; actual upstream frames are ~2.6x smaller (6 bytes per kept
    element).  Values themselves stay exact fp32, so the only loss is the
    zeroed (1 - 1/4) tail of each frame.
    """

    name = "topk"
    bytes_per_element = 4
    frame_overhead = 4  # the per-chunk dense_n/k count words
    wire_tag = 3
    #: Kept fraction of each frame's elements.
    ratio = 0.25

    #: Dense elements per real wire frame — also the block size
    #: :meth:`roundtrip` sparsifies over, so simulated chunking (several
    #: frames per chunk) selects exactly what live per-frame encoding does.
    BLOCK = (SEG_PAYLOAD_BYTES - 4) // 4  # 365

    @staticmethod
    def _k_for(n: int) -> int:
        return -(-n // 4)  # ceil(n * ratio) with ratio = 1/4

    @staticmethod
    def _select(block: np.ndarray, k: int) -> np.ndarray:
        magnitude = np.abs(block)
        magnitude = np.where(np.isnan(magnitude), np.inf, magnitude)
        order = np.argsort(-magnitude, kind="stable")[:k]
        return np.sort(order)

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float32)
        out = np.zeros_like(vector)
        for start in range(0, vector.size, self.BLOCK):
            block = vector[start : start + self.BLOCK]
            idx = self._select(block, self._k_for(block.size))
            out[start : start + self.BLOCK][idx] = block[idx]
        return out

    # -- wire format (PROTOCOL.md §8.4) ---------------------------------
    def encode_payload(self, data: np.ndarray, downstream: bool = False) -> bytes:
        data = np.asarray(data, dtype=np.float32)
        n = data.size
        if not 1 <= n <= self.BLOCK:
            raise ProtocolError(
                f"topk frame must carry 1..{self.BLOCK} elements, got {n}"
            )
        k = n if downstream else min(n, self._k_for(n))
        if k >= n:  # dense form: index array omitted
            return struct.pack("<HH", n, n) + data.astype("<f4").tobytes()
        idx = self._select(data, k)
        return (
            struct.pack("<HH", n, k)
            + idx.astype("<u2").tobytes()
            + data[idx].astype("<f4").tobytes()
        )

    def decode_payload(
        self, payload: bytes, downstream: bool = False
    ) -> np.ndarray:
        if len(payload) < 4:
            raise ProtocolError(
                f"topk payload of {len(payload)} B lacks its count words"
            )
        n, k = struct.unpack_from("<HH", payload)
        if not 1 <= n <= self.BLOCK:
            raise ProtocolError(
                f"topk dense_n {n} outside 1..{self.BLOCK}"
            )
        if k > n:
            raise ProtocolError(f"topk k {k} exceeds dense_n {n}")
        if k == n:  # dense form
            if len(payload) != 4 + 4 * n:
                raise ProtocolError(
                    f"dense topk payload must be {4 + 4 * n} B, got {len(payload)}"
                )
            return np.frombuffer(payload, dtype="<f4", offset=4).astype(
                np.float32
            )
        if len(payload) != 4 + 6 * k:
            raise ProtocolError(
                f"sparse topk payload must be {4 + 6 * k} B, got {len(payload)}"
            )
        idx = np.frombuffer(payload, dtype="<u2", offset=4, count=k).astype(
            np.int64
        )
        if idx.size and (idx[-1] >= n or np.any(np.diff(idx) <= 0)):
            raise ProtocolError(
                "topk indices must be strictly increasing and < dense_n"
            )
        values = np.frombuffer(payload, dtype="<f4", offset=4 + 2 * k, count=k)
        out = np.zeros(n, dtype=np.float32)
        out[idx] = values
        return out


CODECS = {
    codec.name: codec
    for codec in (
        Float32Codec(),
        Float16Codec(),
        Int8Codec(),
        Int32BlockScaledCodec(),
        TopKCodec(),
    )
}

#: Codecs with a wire format, keyed by their 2-bit ToS numerics tag.
WIRE_CODECS = {
    codec.wire_tag: codec
    for codec in CODECS.values()
    if codec.wire_tag is not None
}


def get_codec(name: str) -> GradientCodec:
    """Look up a codec by name (fp32 | fp16 | int8 | int32-bs | topk)."""
    try:
        return CODECS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; choose from {sorted(CODECS)}"
        ) from None


def codec_for_tag(tag: int) -> GradientCodec:
    """Look up a wire codec by its ToS numerics tag."""
    try:
        return WIRE_CODECS[tag]
    except KeyError:
        raise ProtocolError(f"unknown numerics tag {tag}") from None
