"""Wire substrate: bit packing, bandwidth classes, packet timestamps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wire import bwcls
from repro.wire.bitfields import BitPacker, BitUnpacker
from repro.wire.timestamps import PacketTimestamp, TimestampAllocator


class TestBitfields:
    def test_simple_roundtrip(self):
        packer = BitPacker().put(2, 2).put(200, 8).put(0, 1).put(21, 7).put(0, 14)
        data = packer.to_bytes()
        unpacker = BitUnpacker(data)
        assert [unpacker.take(w) for w in (2, 8, 1, 7, 14)] == [2, 200, 0, 21, 0]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitPacker().put(4, 2)

    def test_partial_byte_rejected(self):
        with pytest.raises(ValueError):
            BitPacker().put(1, 3).to_bytes()

    def test_take_beyond_end(self):
        unpacker = BitUnpacker(b"\x00")
        unpacker.take(8)
        with pytest.raises(ValueError):
            unpacker.take(1)

    @given(st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=10))
    def test_roundtrip_property(self, widths):
        import random

        rng = random.Random(42)
        total = sum(widths)
        if total % 8 != 0:
            widths = widths + [8 - total % 8]
        values = [rng.randrange(1 << w) for w in widths]
        packer = BitPacker()
        for value, width in zip(values, widths):
            packer.put(value, width)
        unpacker = BitUnpacker(packer.to_bytes())
        assert [unpacker.take(w) for w in widths] == values


class TestBandwidthClasses:
    def test_examples_from_the_paper(self):
        # value = significand if e == 0 else (32+s) << (e-1)
        assert bwcls.decode(0) == 0
        assert bwcls.decode(31) == 31
        assert bwcls.decode(32) == 32  # e=1, s=0
        assert bwcls.decode(bwcls.MAX_CLASS) == 63 << 30

    def test_max_value_is_almost_2_36(self):
        assert bwcls.MAX_VALUE < 1 << 36
        assert bwcls.MAX_VALUE > 1 << 35

    def test_classes_are_monotone(self):
        values = [bwcls.decode(c) for c in range(bwcls.MAX_CLASS + 1)]
        assert values == sorted(values)
        assert len(values) == 1024

    @given(st.integers(min_value=0, max_value=bwcls.MAX_VALUE - 1))
    def test_floor_below_ceil_above(self, value):
        floor_value = bwcls.decode(bwcls.encode_floor(value))
        ceil_value = bwcls.decode(bwcls.encode_ceil(value))
        assert floor_value <= value <= ceil_value

    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_floor_is_tight(self, value):
        cls = bwcls.encode_floor(value)
        if cls < bwcls.MAX_CLASS:
            assert bwcls.decode(cls + 1) > value

    def test_exact_values_roundtrip(self):
        for cls in range(0, 1024, 17):
            value = bwcls.decode(cls)
            assert bwcls.encode_floor(value) == cls
            assert bwcls.encode_ceil(value) == cls

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bwcls.encode_floor(-1)


class TestTimestamps:
    def test_allocator_unique_within_millisecond(self):
        allocator = TimestampAllocator(1000)
        seen = set()
        for _ in range(100):
            ts = allocator.allocate(1000.0005)
            key = (ts.base, ts.millis, ts.counter)
            assert key not in seen
            seen.add(key)

    def test_counter_resets_per_millisecond(self):
        allocator = TimestampAllocator(1000)
        allocator.allocate(1000.001)
        allocator.allocate(1000.001)
        ts = allocator.allocate(1000.002)
        assert ts.counter == 0

    def test_counter_exhaustion(self):
        allocator = TimestampAllocator(1000)
        for _ in range(1 << 16):
            allocator.allocate(1000.0)
        with pytest.raises(ValueError):
            allocator.allocate(1000.0)

    def test_before_base_rejected(self):
        with pytest.raises(ValueError):
            TimestampAllocator(1000).allocate(999.0)

    def test_millis_overflow_rejected(self):
        with pytest.raises(ValueError):
            TimestampAllocator(1000).allocate(1000.0 + 66.0)

    def test_field_bounds(self):
        with pytest.raises(ValueError):
            PacketTimestamp(base=1 << 32, millis=0, counter=0)
        with pytest.raises(ValueError):
            PacketTimestamp(base=0, millis=1 << 16, counter=0)
        with pytest.raises(ValueError):
            PacketTimestamp(base=0, millis=0, counter=1 << 16)
