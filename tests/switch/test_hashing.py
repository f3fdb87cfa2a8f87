"""Scalar hash primitives: the table-based ``crc32_lsb`` bit
reversal must pin the retired string round-trip.
"""

from __future__ import annotations

import random
import zlib

from repro.switch.hashing import crc32_lsb, reverse_bits32


def _string_reverse_bits32(value: int) -> int:
    """The retired hot-path implementation, pinned here so the
    table-based replacement can never drift from it."""
    return int(f"{value:032b}"[::-1], 2)


def _string_crc32_lsb(data: bytes) -> int:
    return _string_reverse_bits32(zlib.crc32(data[::-1]) & 0xFFFFFFFF)


class TestCrc32LsbReversal:
    """Table-based reversal == string round-trip."""

    def test_reverse_bits32_matches_string_reversal(self):
        rng = random.Random(0xC3C3)
        values = [0, 1, 0xFFFFFFFF, 0x80000000, 0xA5A5A5A5]
        values += [rng.getrandbits(32) for _ in range(512)]
        for value in values:
            assert reverse_bits32(value) == _string_reverse_bits32(value)

    def test_crc32_lsb_matches_old_implementation(self):
        rng = random.Random(0x1D0)
        for _ in range(256):
            data = bytes(
                rng.getrandbits(8) for _ in range(rng.randrange(0, 24))
            )
            assert crc32_lsb(data) == _string_crc32_lsb(data)
