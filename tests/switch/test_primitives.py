"""Tests for clock, packets, registers, and hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SwitchError
from repro.switch.clock import SimClock
from repro.switch.hashing import (
    ALGORITHMS,
    compute_hash,
    crc16,
    csum16,
    fields_to_bytes,
    xor16,
)
from repro.switch.packet import Packet
from repro.switch.registers import RegisterArray


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.now == 0.0
        clock.advance(2.5)
        assert clock.now == 2.5

    def test_advance_to_never_goes_backwards(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(15.0)
        assert clock.now == 15.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_nan_advance_rejected(self):
        # A NaN clock would never reach a pending event again.
        clock = SimClock()
        clock.advance(2.0)
        with pytest.raises(ValueError):
            clock.advance(float("nan"))
        assert clock.now == 2.0


class TestPacket:
    def test_fields_and_validity(self):
        packet = Packet({"ipv4.srcAddr": 0x0A000001}, ingress_port=3)
        assert packet.get("ipv4.srcAddr") == 0x0A000001
        assert "ipv4" in packet.valid_headers
        assert packet.ingress_port == 3

    def test_unset_fields_read_zero(self):
        assert Packet().get("ghost.field") == 0

    def test_set_with_mask(self):
        packet = Packet()
        packet.set("h.f", 0x1FF, mask=0xFF)
        assert packet.get("h.f") == 0xFF

    def test_drop_and_egress(self):
        packet = Packet()
        packet.egress_spec = 7
        assert packet.egress_spec == 7
        assert not packet.dropped
        packet.mark_dropped()
        assert packet.dropped

    def test_unique_ids(self):
        assert Packet().packet_id != Packet().packet_id


class TestRegisterArray:
    def test_read_write(self):
        reg = RegisterArray("r", width=16, instance_count=4)
        reg.write(2, 0x1234)
        assert reg.read(2) == 0x1234

    def test_width_wrap(self):
        reg = RegisterArray("r", width=8, instance_count=1)
        reg.write(0, 0x1FF)
        assert reg.read(0) == 0xFF
        reg.write(0, 0xFF)
        assert reg.increment(0, 2) == 1

    def test_out_of_range(self):
        reg = RegisterArray("r", instance_count=2)
        with pytest.raises(SwitchError):
            reg.read(2)
        with pytest.raises(SwitchError):
            reg.write(-1, 0)

    def test_read_range(self):
        reg = RegisterArray("r", instance_count=8)
        for index in range(8):
            reg.write(index, index * 10)
        assert reg.read_range(2, 4) == [20, 30, 40]
        with pytest.raises(SwitchError):
            reg.read_range(4, 2)

    def test_write_run_is_masked_and_in_order(self):
        reg = RegisterArray("r", width=8, instance_count=4)
        reg.write_run([1, 3, 1], [0x1FF, 7, 0x2AB])
        # Masked to the width; a repeated index keeps the last write.
        assert reg.values == [0, 0xAB, 0, 7]
        reg.write_run([], [])
        assert reg.values == [0, 0xAB, 0, 7]

    @pytest.mark.parametrize("bad", [-1, 4, 999])
    def test_write_run_bad_index_raises_like_write(self, bad):
        reg = RegisterArray("r", instance_count=4)
        with pytest.raises(SwitchError) as single:
            reg.write(bad, 1)
        with pytest.raises(SwitchError) as run:
            reg.write_run([0, 2, bad, 3], [10, 20, 30, 40])
        assert str(run.value) == str(single.value)
        # The elements before the bad one landed, the rest did not.
        assert reg.values == [10, 0, 20, 0]

    def test_byte_size(self):
        assert RegisterArray("r", width=32, instance_count=8).byte_size == 32
        assert RegisterArray("r", width=19, instance_count=2).byte_size == 6

    def test_clear(self):
        reg = RegisterArray("r", instance_count=2)
        reg.write(0, 5)
        reg.clear()
        assert reg.read(0) == 0

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0),
    )
    def test_wrap_is_modulo_width(self, width, value):
        reg = RegisterArray("r", width=width, instance_count=1)
        reg.write(0, value)
        assert reg.read(0) == value % (1 << width)


class TestHashing:
    def test_fields_to_bytes_widths(self):
        # 16-bit 0x0102 then 8-bit 0x03
        assert fields_to_bytes([(0x0102, 16), (0x03, 8)]) == b"\x01\x02\x03"

    def test_fields_to_bytes_masks_overflow(self):
        assert fields_to_bytes([(0x1FF, 8)]) == b"\xff"

    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16(b"123456789") == 0x29B1

    def test_csum16_of_zeros(self):
        assert csum16(b"\x00\x00") == 0xFFFF

    def test_xor16(self):
        assert xor16(b"\x01\x02\x01\x02") == 0

    def test_all_algorithms_deterministic(self):
        values = [(0x0A000001, 32), (80, 16)]
        for name in ALGORITHMS:
            first = compute_hash(name, values, 16)
            assert first == compute_hash(name, values, 16)
            assert 0 <= first < (1 << 16)

    def test_different_inputs_differ(self):
        a = compute_hash("crc16", [(1, 32)], 16)
        b = compute_hash("crc16", [(2, 32)], 16)
        assert a != b

    def test_unknown_algorithm(self):
        with pytest.raises(SwitchError):
            compute_hash("ghost", [(1, 8)], 8)

    @given(st.binary(max_size=64))
    def test_crc16_range(self, data):
        assert 0 <= crc16(data) <= 0xFFFF
