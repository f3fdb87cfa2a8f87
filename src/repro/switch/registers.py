"""Stateful register arrays.

Registers are the switch's only cross-packet state and the substrate
for Mantis's measurement mechanisms: generated field-collection
registers, duplicated measurement registers, and timestamp registers
(Section 5.2) are all instances of :class:`RegisterArray`.
"""

from __future__ import annotations

from typing import List

from repro.errors import SwitchError


class RegisterArray:
    """A fixed-width register array with wrap-around arithmetic."""

    __slots__ = ("name", "width", "mask", "values")

    def __init__(self, name: str, width: int = 32, instance_count: int = 1):
        if width <= 0 or instance_count <= 0:
            raise SwitchError(
                f"register {name}: width and instance_count must be positive"
            )
        self.name = name
        self.width = width
        self.mask = (1 << width) - 1
        self.values: List[int] = [0] * instance_count

    @property
    def instance_count(self) -> int:
        return len(self.values)

    def _check_index(self, index: int) -> int:
        if not 0 <= index < len(self.values):
            raise SwitchError(
                f"register {self.name}: index {index} out of range "
                f"[0, {len(self.values)})"
            )
        return index

    def read(self, index: int) -> int:
        return self.values[self._check_index(index)]

    def write(self, index: int, value: int) -> None:
        self.values[self._check_index(index)] = value & self.mask

    def increment(self, index: int, delta: int = 1) -> int:
        """Add ``delta`` (wrapping) and return the new value."""
        index = self._check_index(index)
        self.values[index] = (self.values[index] + delta) & self.mask
        return self.values[index]

    def bulk_write(self, indices: List[int], new_values: List[int]) -> None:
        """Masked write of many ``(index, value)`` pairs at once.

        The columnar engine commits a whole batch's scatter in one
        call; indices are pre-validated by the vector range check, so
        this skips the per-write bounds test."""
        values = self.values
        mask = self.mask
        for index, value in zip(indices, new_values):
            values[index] = value & mask

    def write_run(self, indices: List[int], new_values: List[int]) -> None:
        """Bounds-checked :meth:`bulk_write` (driver bulk transactions):
        writes land in order, and a bad index raises exactly what
        :meth:`write` raises there, with the elements before it landed."""
        values = self.values
        mask = self.mask
        size = len(values)
        for index, value in zip(indices, new_values):
            if not 0 <= index < size:
                self._check_index(index)
            values[index] = value & mask

    def read_range(self, lo: int, hi: int) -> List[int]:
        """Read entries ``lo..hi`` inclusive (driver DMA-burst path)."""
        values = self.values
        if not 0 <= lo <= hi < len(values):
            self._check_index(lo)
            self._check_index(hi)
            raise SwitchError(f"register {self.name}: bad range [{lo}:{hi}]")
        return values[lo : hi + 1]

    def clear(self) -> None:
        # In place: the compiled pipeline closes over this list object,
        # so it must never be rebound.
        self.values[:] = [0] * len(self.values)

    @property
    def byte_size(self) -> int:
        """Total SRAM footprint in bytes (for resource accounting)."""
        return (self.width + 7) // 8 * len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegisterArray({self.name}, width={self.width}, "
            f"count={len(self.values)})"
        )
