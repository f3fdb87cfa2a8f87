"""Hash algorithms for ``field_list_calculation``.

The ECMP use case (Section 8.3.3) rotates the *inputs* of the hash
function at runtime via malleable fields, so the hash implementations
must be deterministic functions of the (width-aware) field bytes --
exactly how the hardware computes them.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SwitchError

try:  # numpy is optional: only the vectorized variants need it
    import numpy as np
except ImportError:  # pragma: no cover - exercised via columnar gating
    np = None  # type: ignore[assignment]

#: 256-entry bit-reversal table: _REV8[b] is ``b`` with its 8 bits
#: mirrored.  Shared by the scalar and vectorized crc32_lsb.
_REV8 = tuple(
    sum(((byte >> bit) & 1) << (7 - bit) for bit in range(8))
    for byte in range(256)
)


def reverse_bits32(value: int) -> int:
    """Mirror the 32 bits of ``value`` (table-driven, byte at a time)."""
    return (
        (_REV8[value & 0xFF] << 24)
        | (_REV8[(value >> 8) & 0xFF] << 16)
        | (_REV8[(value >> 16) & 0xFF] << 8)
        | _REV8[(value >> 24) & 0xFF]
    )


def fields_to_bytes(values: Sequence[Tuple[int, int]]) -> bytes:
    """Serialize ``(value, width_bits)`` pairs to a big-endian byte
    string, byte-padding each field like the Tofino hash units do."""
    out = bytearray()
    for value, width in values:
        nbytes = max(1, (width + 7) // 8)
        out.extend((value & ((1 << width) - 1)).to_bytes(nbytes, "big"))
    return bytes(out)


def _crc16_byte(byte: int) -> int:
    crc = byte << 8
    for _ in range(8):
        if crc & 0x8000:
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF
        else:
            crc = (crc << 1) & 0xFFFF
    return crc


#: CRC-16/CCITT-FALSE byte table, shared by the scalar function, the
#: vectorized variant and the pipeline compiler's inlined hash.
CRC16_TABLE = tuple(_crc16_byte(byte) for byte in range(256))


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE, the P4-14 default hash (byte at a time)."""
    crc = 0xFFFF
    table = CRC16_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFF00) ^ table[(crc >> 8) ^ byte]
    return crc


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def crc32_lsb(data: bytes) -> int:
    """Bit-reversed crc32 variant (a second independent hash family)."""
    return reverse_bits32(zlib.crc32(data[::-1]) & 0xFFFFFFFF)


def xor16(data: bytes) -> int:
    result = 0
    padded = data + b"\x00" if len(data) % 2 else data
    for offset in range(0, len(padded), 2):
        result ^= (padded[offset] << 8) | padded[offset + 1]
    return result


def identity(data: bytes) -> int:
    return int.from_bytes(data, "big") if data else 0


def csum16(data: bytes) -> int:
    """Ones-complement 16-bit checksum (IP style)."""
    total = 0
    padded = data + b"\x00" if len(data) % 2 else data
    for offset in range(0, len(padded), 2):
        total += (padded[offset] << 8) | padded[offset + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


ALGORITHMS: Dict[str, Callable[[bytes], int]] = {
    "crc16": crc16,
    "crc32": crc32,
    "crc32_lsb": crc32_lsb,
    "xor16": xor16,
    "identity": identity,
    "csum16": csum16,
}


def compute_hash(
    algorithm: str, values: Sequence[Tuple[int, int]], output_width: int
) -> int:
    """Hash ``(value, width)`` pairs with ``algorithm``, truncated to
    ``output_width`` bits."""
    if algorithm not in ALGORITHMS:
        raise SwitchError(f"unknown hash algorithm {algorithm!r}")
    raw = ALGORITHMS[algorithm](fields_to_bytes(values))
    return raw & ((1 << output_width) - 1)


# ----------------------------------------------------------------------
# Vectorized variants (columnar engine)
#
# A field list with a fixed width signature serializes every packet to
# the same byte layout, so a batch hashes as ``total_bytes`` table
# lookups over whole int64 columns instead of one python loop per
# packet.  CRCs use the classic 256-entry byte-at-a-time tables; the
# lane dimension is the numpy axis.


def _byte_layout(widths: Sequence[int]) -> List[Tuple[int, int]]:
    """Stream order of ``fields_to_bytes`` as (field index, shift)
    pairs: one entry per serialized byte, most significant first."""
    layout: List[Tuple[int, int]] = []
    for index, width in enumerate(widths):
        nbytes = max(1, (width + 7) // 8)
        for position in range(nbytes):
            layout.append((index, 8 * (nbytes - 1 - position)))
    return layout


def _crc32_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return np.array(table, dtype=np.int64)


def _masked_columns(columns, widths: Sequence[int]):
    return [
        column & ((1 << width) - 1)
        for column, width in zip(columns, widths)
    ]


@lru_cache(maxsize=None)
def vector_hash_fn(
    algorithm: str, widths: Tuple[int, ...]
) -> Optional[Callable[[Sequence["np.ndarray"]], "np.ndarray"]]:
    """Batch variant of ``ALGORITHMS[algorithm]`` for a field list with
    the given width signature.

    Returns a callable mapping one int64 column per field to the raw
    (untruncated) hash column, or ``None`` when the combination cannot
    be vectorized; callers fall back to the scalar path.  Cached per
    (algorithm, signature) so table setup happens once.
    """
    if np is None or algorithm not in ALGORITHMS:
        return None
    if any(width <= 0 or width > 62 for width in widths):
        return None
    layout = _byte_layout(widths)

    if algorithm == "crc16":
        table = np.array(CRC16_TABLE, dtype=np.int64)

        def fn_crc16(columns):
            cols = _masked_columns(columns, widths)
            crc = np.full(len(cols[0]), 0xFFFF, dtype=np.int64)
            for index, shift in layout:
                byte = (cols[index] >> shift) & 0xFF
                crc = ((crc << 8) & 0xFF00) ^ table[((crc >> 8) ^ byte) & 0xFF]
            return crc

        return fn_crc16

    if algorithm in ("crc32", "crc32_lsb"):
        table = _crc32_table()
        # crc32_lsb hashes the byte-reversed stream, then mirrors the
        # 32-bit result -- same definition as the scalar function.
        stream = layout[::-1] if algorithm == "crc32_lsb" else layout
        rev8 = np.array(_REV8, dtype=np.int64)

        def fn_crc32(columns):
            cols = _masked_columns(columns, widths)
            crc = np.full(len(cols[0]), 0xFFFFFFFF, dtype=np.int64)
            for index, shift in stream:
                byte = (cols[index] >> shift) & 0xFF
                crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
            crc ^= 0xFFFFFFFF
            if algorithm == "crc32_lsb":
                crc = (
                    (rev8[crc & 0xFF] << 24)
                    | (rev8[(crc >> 8) & 0xFF] << 16)
                    | (rev8[(crc >> 16) & 0xFF] << 8)
                    | rev8[(crc >> 24) & 0xFF]
                )
            return crc

        return fn_crc32

    if algorithm == "xor16":

        def fn_xor16(columns):
            cols = _masked_columns(columns, widths)
            result = np.zeros(len(cols[0]), dtype=np.int64)
            for offset in range(0, len(layout), 2):
                index, shift = layout[offset]
                word = ((cols[index] >> shift) & 0xFF) << 8
                if offset + 1 < len(layout):  # odd streams zero-pad
                    index, shift = layout[offset + 1]
                    word = word | ((cols[index] >> shift) & 0xFF)
                result ^= word
            return result

        return fn_xor16

    if algorithm == "csum16":

        def fn_csum16(columns):
            cols = _masked_columns(columns, widths)
            total = np.zeros(len(cols[0]), dtype=np.int64)
            for offset in range(0, len(layout), 2):
                index, shift = layout[offset]
                word = ((cols[index] >> shift) & 0xFF) << 8
                if offset + 1 < len(layout):
                    index, shift = layout[offset + 1]
                    word = word | ((cols[index] >> shift) & 0xFF)
                total = total + word
                total = (total & 0xFFFF) + (total >> 16)
            return (~total) & 0xFFFF

        return fn_csum16

    if algorithm == "identity":
        if len(layout) * 8 > 62:  # packed value must fit in int64
            return None

        def fn_identity(columns):
            cols = _masked_columns(columns, widths)
            acc = np.zeros(len(cols[0]), dtype=np.int64)
            for index, shift in layout:
                acc = (acc << 8) | ((cols[index] >> shift) & 0xFF)
            return acc

        return fn_identity

    return None
