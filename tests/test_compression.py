"""Tests for gradient wire codecs and compressed aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AggregationClient,
    Float16Codec,
    Float32Codec,
    Int8Codec,
    Int32BlockScaledCodec,
    SegmentPlan,
    TopKCodec,
    configure_aggregation,
    get_codec,
    iswitch_factory,
)
from repro.core.compression import CODECS, WIRE_CODECS, codec_for_tag
from repro.netsim import Simulator, build_star

from .oracles import where_mantissa


class TestCodecs:
    def test_lookup(self):
        assert get_codec("fp32").bytes_per_element == 4
        assert get_codec("FP16").bytes_per_element == 2
        assert get_codec("int8").bytes_per_element == 1

    def test_unknown_codec(self):
        with pytest.raises(KeyError, match="unknown codec"):
            get_codec("zfp")

    def test_fp32_is_identity(self):
        vector = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(Float32Codec().roundtrip(vector), vector)

    def test_fp16_error_bounded(self):
        vector = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
        out = Float16Codec().roundtrip(vector)
        rel = np.abs(out - vector) / np.maximum(np.abs(vector), 1e-6)
        assert rel.max() < 1e-3  # half precision: ~2^-11

    def test_int8_error_bounded_by_scale(self):
        rng = np.random.default_rng(1)
        vector = rng.standard_normal(1000).astype(np.float32)
        out = Int8Codec().roundtrip(vector)
        scale = np.abs(vector).max() / 127.0
        assert np.abs(out - vector).max() <= 0.5 * scale + 1e-7

    def test_int8_zero_vector(self):
        out = Int8Codec().roundtrip(np.zeros(10, dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_idempotent(self, seed):
        vector = (
            np.random.default_rng(seed).standard_normal(64).astype(np.float32)
        )
        for codec in CODECS.values():
            once = codec.roundtrip(vector)
            twice = codec.roundtrip(once)
            np.testing.assert_array_equal(once, twice)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, width=32),
                st.sampled_from([1e30, -1e30, 7.99988, -8.0, 0.5 / 4096, -0.0]),
                st.floats(-9.0, 9.0),
            ),
            max_size=40,
        ),
        exponent=st.integers(1, 24),
        as_float64=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_int32bs_mantissa_matches_the_expression_it_replaced(
        self, values, exponent, as_float64
    ):
        """The in-place mantissa (PR 21) gives the int32 the five-temporary
        ``np.where`` form gave: finite values, ties to even, saturation,
        NaN -> 0, +-inf and 1e30 -> +-32767; and leaves its input alone."""
        vector = np.array(values, dtype=np.float64 if as_float64 else np.float32)
        before = vector.copy()
        with np.errstate(over="ignore"):  # float64 1e300 -> float32 inf
            got = Int32BlockScaledCodec()._mantissa(vector, exponent)
            want = where_mantissa(vector, exponent)
        assert got.dtype == want.dtype == np.int32
        assert got.tobytes() == want.tobytes()
        assert vector.tobytes() == before.tobytes()

    def test_int32bs_error_bounded_by_grid(self):
        codec = Int32BlockScaledCodec()
        vector = np.random.default_rng(2).standard_normal(1000)
        vector = vector.astype(np.float32)
        out = codec.roundtrip(vector)
        assert np.abs(out - vector).max() <= 2.0 ** -(codec.exponent + 1)

    def test_int32bs_saturates_and_zeroes_nan(self):
        codec = Int32BlockScaledCodec()
        out = codec.roundtrip(
            np.array([1e9, -1e9, np.nan, np.inf, -np.inf], dtype=np.float32)
        )
        bound = np.float32(32767 * 2.0 ** -codec.exponent)
        np.testing.assert_array_equal(
            out, np.array([bound, -bound, 0.0, bound, -bound], dtype=np.float32)
        )

    def test_int32bs_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="exponent"):
            Int32BlockScaledCodec(exponent=0)
        with pytest.raises(ValueError, match="sum_shift"):
            Int32BlockScaledCodec(exponent=8, sum_shift=8)

    def test_int32bs_engine_path_matches_finalized_float_path(self):
        codec = Int32BlockScaledCodec()
        rng = np.random.default_rng(3)
        parts = [
            codec.roundtrip(rng.standard_normal(512).astype(np.float32))
            for _ in range(8)
        ]
        # Float-canonical: sum the on-grid fp32 values, then finalize.
        float_result = codec.finalize_sum(np.sum(np.stack(parts), axis=0))
        # Integer: widen to int32 accumulators, sum, emit.
        acc = codec.engine_ingest(parts[0])
        for part in parts[1:]:
            acc = acc + codec.engine_ingest(part)
        int_result = codec.engine_emit(acc)
        np.testing.assert_array_equal(float_result, int_result)

    def test_topk_keeps_largest_quarter(self):
        codec = TopKCodec()
        vector = np.arange(1, 101, dtype=np.float32)
        out = codec.roundtrip(vector)
        assert np.count_nonzero(out) == 25
        np.testing.assert_array_equal(out[75:], vector[75:])
        np.testing.assert_array_equal(out[:75], 0.0)

    def test_topk_values_are_exact(self):
        codec = TopKCodec()
        vector = np.random.default_rng(4).standard_normal(500)
        vector = vector.astype(np.float32)
        out = codec.roundtrip(vector)
        kept = out != 0
        np.testing.assert_array_equal(out[kept], vector[kept])

    def test_fp16_finalize_sum_rounds_to_grid(self):
        codec = Float16Codec()
        # 1.0 + 2**-11 is representable in fp32 but not fp16.
        off_grid = np.array([1.0 + 2.0 ** -11], dtype=np.float32)
        finalized = codec.finalize_sum(off_grid)
        np.testing.assert_array_equal(finalized, codec.roundtrip(off_grid))
        assert finalized[0] != off_grid[0]


class TestCodecRegistry:
    """The module docstring's codec table stays true to the registry."""

    def _docstring_rows(self):
        import repro.core.compression as mod

        lines = mod.__doc__.splitlines()
        rules = [
            i for i, line in enumerate(lines) if line.startswith("====")
        ]
        # The RST grid table: header rule, header, rule, rows..., rule.
        assert len(rules) >= 3, "codec table missing from module docstring"
        header = lines[rules[0] + 1].split()
        assert header[:3] == ["Codec", "B/elt", "Tag"]
        rows = {}
        for line in lines[rules[1] + 1 : rules[2]]:
            parts = line.split()
            rows[parts[0].strip("`")] = {
                "b_per_elt": parts[1], "tag": parts[2]
            }
        return rows

    def test_docstring_table_matches_registry(self):
        rows = self._docstring_rows()
        assert set(rows) == set(CODECS)
        for name, row in rows.items():
            codec = CODECS[name]
            assert int(row["b_per_elt"]) == codec.bytes_per_element, name
            if row["tag"] == "--":
                assert codec.wire_tag is None, name
            else:
                assert int(row["tag"]) == codec.wire_tag, name

    def test_wire_codecs_keyed_by_tag(self):
        assert set(WIRE_CODECS) == {0, 1, 2, 3}
        for tag, codec in WIRE_CODECS.items():
            assert codec.wire_tag == tag
            assert codec_for_tag(tag) is codec

    def test_simulator_only_codecs_refuse_the_wire(self):
        from repro.core.protocol import ProtocolError

        int8 = get_codec("int8")
        assert int8.wire_tag is None
        with pytest.raises(ProtocolError, match="no wire format"):
            int8.encode_payload(np.zeros(4, dtype=np.float32))
        with pytest.raises(ProtocolError, match="no wire format"):
            int8.decode_payload(b"\x00" * 4)

    def test_doctests_pass(self):
        import doctest

        import repro.core.compression as mod

        result = doctest.testmod(
            mod, extraglobs={"get_codec": get_codec}
        )
        assert result.attempted > 0
        assert result.failed == 0


class TestCompressedPlans:
    def test_fp16_halves_wire_bytes(self):
        full = SegmentPlan(10_000, bytes_per_element=4)
        half = SegmentPlan(10_000, bytes_per_element=2)
        assert half.wire_bytes < 0.55 * full.wire_bytes

    def test_elements_per_frame_scales(self):
        assert SegmentPlan(1000, bytes_per_element=2).elements_per_frame == 732
        assert SegmentPlan(1000, bytes_per_element=1).elements_per_frame == 1464

    def test_split_assemble_roundtrip_with_compression_width(self):
        plan = SegmentPlan(5000, bytes_per_element=2)
        vector = np.random.default_rng(0).standard_normal(5000).astype(np.float32)
        np.testing.assert_array_equal(
            plan.assemble(plan.split(vector, 0)), vector
        )

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            SegmentPlan(100, bytes_per_element=0)


class TestCompressedAggregation:
    def _run(self, codec_name):
        sim = Simulator()
        net = build_star(sim, 4, switch_factory=iswitch_factory)
        configure_aggregation(net)
        codec = get_codec(codec_name)
        plan = SegmentPlan(2000, bytes_per_element=codec.bytes_per_element)
        results = {}
        clients = [
            AggregationClient(
                w,
                "tor0",
                plan,
                codec=codec,
                on_round_complete=lambda r, v, n=w.name: results.__setitem__(n, v),
            )
            for w in net.workers
        ]
        rng = np.random.default_rng(7)
        vectors = [rng.standard_normal(2000).astype(np.float32) for _ in clients]
        for client, vector in zip(clients, vectors):
            # Send a copy: the engine adopts a first writable contribution
            # as its accumulation buffer, and the assertions below need the
            # pristine vectors.
            client.send_gradient(vector.copy(), 0)
        sim.run()
        return sim.now, results, vectors

    def test_fp16_aggregation_close_to_exact(self):
        _, results, vectors = self._run("fp16")
        expected = np.sum(vectors, axis=0)
        for got in results.values():
            np.testing.assert_allclose(got, expected, atol=5e-3)

    def test_int8_aggregation_bounded_error(self):
        _, results, vectors = self._run("int8")
        expected = np.sum(vectors, axis=0)
        scale = max(np.abs(v).max() for v in vectors) / 127.0
        for got in results.values():
            assert np.abs(got - expected).max() <= 4 * (0.5 * scale) + 1e-5

    def test_compression_shortens_aggregation(self):
        t_fp32, _, _ = self._run("fp32")
        t_fp16, _, _ = self._run("fp16")
        t_int8, _, _ = self._run("int8")
        assert t_int8 < t_fp16 < t_fp32
