"""Match-action table runtime.

Implements the lookup semantics Mantis relies on:

- exact matches via a hash index (SRAM),
- ternary/lpm/range matches via a rank-ordered TCAM view kept sorted
  on add/delete, so lookups early-exit at the first hit in priority
  order instead of scanning every entry,
- single-lpm-key tables additionally via per-prefix-length hash
  buckets (classic LPM lookup: probe prefix lengths longest-first),
- atomic single-entry add/modify/delete (the hardware guarantee that
  Section 5.1.1 builds its serialization point on).

Every index is updated inside the same add/modify/delete call that
mutates ``entries``, so the Mantis agent's shadow-flip writes observe
a consistent table at every point -- there is no deferred rebuild.

Entries are referenced by handles (integers) as with real switch SDKs,
so the Mantis agent's three-phase update engine can mirror and flip
shadow copies deterministically.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SwitchError
from repro.p4 import ast
from repro.switch.packet import Packet

# One key component, by match kind:
#   exact:   int
#   ternary: (value, mask)      -- mask 0 means wildcard
#   lpm:     (value, prefix_len)
#   range:   (lo, hi)
#   valid:   bool
KeyPart = Union[int, Tuple[int, int], bool]


@dataclass
class TableEntry:
    """One installed entry."""

    entry_id: int
    key: Tuple[KeyPart, ...]
    action_name: str
    action_args: List[int] = field(default_factory=list)
    priority: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableEntry(#{self.entry_id}, key={self.key}, "
            f"{self.action_name}{tuple(self.action_args)}, prio={self.priority})"
        )


class TableRuntime:
    """Runtime state and matching logic for one table."""

    def __init__(self, decl: ast.TableDecl, key_widths: Sequence[int]):
        self.decl = decl
        self.name = decl.name
        self.key_widths = list(key_widths)
        self.entries: Dict[int, TableEntry] = {}
        self.default_action: Optional[Tuple[str, List[int]]] = (
            (decl.default_action[0], list(decl.default_action[1]))
            if decl.default_action
            else None
        )
        self._ids = itertools.count(1)
        self._exact_only = all(
            r.match_type in (ast.MatchType.EXACT, ast.MatchType.VALID)
            for r in decl.reads
        )
        self._exact_index: Dict[Tuple[KeyPart, ...], TableEntry] = {}
        # TCAM view: entries sorted by descending (priority, lpm prefix
        # total), insertion order breaking ties.  ``_tcam_sort_keys`` is
        # the parallel bisect key list.
        self._tcam_order: List[TableEntry] = []
        self._tcam_sort_keys: List[Tuple[int, int]] = []
        # Single-lpm fast path: per-prefix-length hash buckets, usable
        # while no entry carries an explicit priority.
        self._lpm_position: Optional[int] = None
        self._lpm_width = 0
        self._lpm_indexable = False
        self._lpm_buckets: Dict[int, Dict[Tuple[KeyPart, ...], List[TableEntry]]] = {}
        self._lpm_masks: Dict[int, int] = {}
        self._lpm_lens: List[int] = []
        if not self._exact_only:
            kinds = [r.match_type for r in decl.reads]
            lpm_positions = [
                i for i, k in enumerate(kinds) if k is ast.MatchType.LPM
            ]
            bucketable = all(
                k in (ast.MatchType.EXACT, ast.MatchType.VALID, ast.MatchType.LPM)
                for k in kinds
            )
            if len(lpm_positions) == 1 and bucketable:
                self._lpm_position = lpm_positions[0]
                self._lpm_width = self.key_widths[self._lpm_position]
                self._lpm_indexable = True
        # hit/miss counters for observability and resource benches
        self.hits = 0
        self.misses = 0
        # Bumped on every entry/default mutation; the columnar engine
        # keys its packed lookup index on this to avoid rebuilding per
        # batch while staying coherent with control-plane writes.
        self.generation = 0

    # ---- entry management (atomic per call) -----------------------------

    def _check_key(self, key: Sequence[KeyPart]) -> Tuple[KeyPart, ...]:
        if len(key) != len(self.decl.reads):
            raise SwitchError(
                f"table {self.name}: key arity {len(key)} != "
                f"{len(self.decl.reads)} reads"
            )
        normalized: List[KeyPart] = []
        for part, read in zip(key, self.decl.reads):
            if read.match_type in (ast.MatchType.EXACT,):
                if not isinstance(part, int):
                    raise SwitchError(
                        f"table {self.name}: exact key part must be int, "
                        f"got {part!r}"
                    )
            elif read.match_type is ast.MatchType.VALID:
                part = bool(part)
            elif not (isinstance(part, tuple) and len(part) == 2):
                raise SwitchError(
                    f"table {self.name}: {read.match_type.value} key part "
                    f"must be a 2-tuple, got {part!r}"
                )
            normalized.append(part)
        return tuple(normalized)

    def add_entry(
        self,
        key: Sequence[KeyPart],
        action_name: str,
        action_args: Optional[Sequence[int]] = None,
        priority: int = 0,
    ) -> int:
        """Install an entry; returns its handle.  Atomic."""
        if action_name not in self.decl.action_names:
            raise SwitchError(
                f"table {self.name}: action {action_name!r} not in table's "
                f"action list {self.decl.action_names}"
            )
        normalized = self._check_key(key)
        if self.decl.size is not None and len(self.entries) >= self.decl.size:
            raise SwitchError(f"table {self.name}: full ({self.decl.size})")
        entry = TableEntry(
            next(self._ids), normalized, action_name,
            list(action_args or []), priority,
        )
        self.entries[entry.entry_id] = entry
        if self._exact_only:
            self._exact_index[normalized] = entry
        else:
            self._index_tcam_entry(entry)
        self.generation += 1
        return entry.entry_id

    def modify_entry(
        self,
        entry_id: int,
        action_name: Optional[str] = None,
        action_args: Optional[Sequence[int]] = None,
    ) -> None:
        """Change an entry's action/args in place.  Atomic."""
        entry = self._get(entry_id)
        if action_name is not None:
            if action_name not in self.decl.action_names:
                raise SwitchError(
                    f"table {self.name}: action {action_name!r} not allowed"
                )
            entry.action_name = action_name
        if action_args is not None:
            entry.action_args = list(action_args)
        self.generation += 1

    def delete_entry(self, entry_id: int) -> None:
        entry = self._get(entry_id)
        del self.entries[entry_id]
        if self._exact_only:
            if self._exact_index.get(entry.key) is entry:
                del self._exact_index[entry.key]
        else:
            self._unindex_tcam_entry(entry)
        self.generation += 1

    # ---- TCAM index maintenance -----------------------------------------

    def _static_rank(self, entry: TableEntry) -> Tuple[int, int]:
        """The rank :meth:`_entry_matches` assigns on a hit; computable
        from the entry alone since priority and prefix lengths are
        fixed at install time."""
        prefix_total = 0
        for part, read in zip(entry.key, self.decl.reads):
            if read.match_type is ast.MatchType.LPM:
                prefix_total += part[1]
        return (entry.priority, prefix_total)

    def _index_tcam_entry(self, entry: TableEntry) -> None:
        priority, prefix_total = self._static_rank(entry)
        # Descending rank; bisect_right keeps insertion order among
        # equal ranks, matching the old scan's first-installed-wins.
        sort_key = (-priority, -prefix_total)
        position = bisect_right(self._tcam_sort_keys, sort_key)
        self._tcam_sort_keys.insert(position, sort_key)
        self._tcam_order.insert(position, entry)
        if self._lpm_position is None or not self._lpm_indexable:
            return
        prefix_len = entry.key[self._lpm_position][1]
        if priority != 0 or prefix_len > self._lpm_width:
            # Explicit priorities (or malformed prefixes, which the
            # scan path reports like the old code) break the pure
            # longest-prefix order the buckets encode; fall back to the
            # sorted scan for the lifetime of the table.
            self._lpm_indexable = False
            self._lpm_buckets.clear()
            self._lpm_masks.clear()
            self._lpm_lens = []
            return
        self._lpm_bucket_add(entry)

    def _lpm_bucket_key(self, entry_key: Tuple[KeyPart, ...]) -> Tuple[KeyPart, ...]:
        position = self._lpm_position
        value, prefix_len = entry_key[position]
        mask = self._lpm_masks[prefix_len]
        return (
            entry_key[:position]
            + (value & mask,)
            + entry_key[position + 1:]
        )

    def _lpm_bucket_add(self, entry: TableEntry) -> None:
        prefix_len = entry.key[self._lpm_position][1]
        if prefix_len not in self._lpm_masks:
            self._lpm_masks[prefix_len] = (
                ((1 << prefix_len) - 1) << (self._lpm_width - prefix_len)
                if prefix_len
                else 0
            )
            insort(self._lpm_lens, -prefix_len)
            self._lpm_buckets[prefix_len] = {}
        bucket = self._lpm_buckets[prefix_len]
        bucket.setdefault(self._lpm_bucket_key(entry.key), []).append(entry)

    def _unindex_tcam_entry(self, entry: TableEntry) -> None:
        position = self._tcam_order.index(entry)
        del self._tcam_order[position]
        del self._tcam_sort_keys[position]
        if self._lpm_position is None or not self._lpm_indexable:
            return
        prefix_len = entry.key[self._lpm_position][1]
        bucket = self._lpm_buckets.get(prefix_len)
        if bucket is None:
            return
        bucket_key = self._lpm_bucket_key(entry.key)
        candidates = bucket.get(bucket_key)
        if candidates and entry in candidates:
            candidates.remove(entry)
            if not candidates:
                del bucket[bucket_key]
            if not bucket:
                del self._lpm_buckets[prefix_len]
                del self._lpm_masks[prefix_len]
                self._lpm_lens.remove(-prefix_len)

    def set_default(self, action_name: str, action_args: Sequence[int] = ()) -> None:
        if action_name not in self.decl.action_names:
            raise SwitchError(
                f"table {self.name}: default action {action_name!r} not allowed"
            )
        self.default_action = (action_name, list(action_args))
        self.generation += 1

    def find_entry(self, key: Sequence[KeyPart]) -> Optional[TableEntry]:
        """Find an installed entry with exactly this key (not a lookup)."""
        normalized = self._check_key(key)
        if self._exact_only:
            return self._exact_index.get(normalized)
        for entry in self._tcam_order:
            if entry.key == normalized:
                return entry
        return None

    def _get(self, entry_id: int) -> TableEntry:
        if entry_id not in self.entries:
            raise SwitchError(f"table {self.name}: no entry #{entry_id}")
        return self.entries[entry_id]

    # ---- lookup -----------------------------------------------------------

    def build_lookup_key(self, packet: Packet) -> Tuple[KeyPart, ...]:
        parts: List[KeyPart] = []
        for read in self.decl.reads:
            if read.match_type is ast.MatchType.VALID:
                parts.append(read.ref.header in packet.valid_headers)
            else:
                ref = read.ref
                value = packet.get(f"{ref.header}.{ref.field}")
                if read.mask is not None:
                    value &= read.mask
                parts.append(value)
        return tuple(parts)

    def lookup(self, packet: Packet) -> Optional[Tuple[str, List[int]]]:
        """Match the packet; returns ``(action, args)`` or the default.

        Returns ``None`` when the table misses and has no default.
        """
        return self.lookup_key(self.build_lookup_key(packet))

    def lookup_key(
        self, key: Tuple[KeyPart, ...]
    ) -> Optional[Tuple[str, List[int]]]:
        """Match an already-built lookup key (the compiled pipeline
        extracts keys inline in its generated code)."""
        entry = self._match(key)
        if entry is not None:
            self.hits += 1
            return entry.action_name, entry.action_args
        self.misses += 1
        return self.default_action

    def _match(self, key: Tuple[KeyPart, ...]) -> Optional[TableEntry]:
        if self._exact_only:
            return self._exact_index.get(key)
        if self._lpm_indexable:
            return self._match_lpm_buckets(key)
        # Rank-sorted scan: the first matching entry has the highest
        # (priority, prefix_total) rank, earliest-installed on ties.
        for entry in self._tcam_order:
            if self._entry_matches(entry, key):
                return entry
        return None

    def _match_lpm_buckets(
        self, key: Tuple[KeyPart, ...]
    ) -> Optional[TableEntry]:
        position = self._lpm_position
        part = key[position]
        prefix = key[:position]
        suffix = key[position + 1:]
        for neg_len in self._lpm_lens:
            mask = self._lpm_masks[-neg_len]
            candidates = self._lpm_buckets[-neg_len].get(
                prefix + (part & mask,) + suffix
            )
            if candidates:
                return candidates[0]
        return None

    def _entry_matches(
        self, entry: TableEntry, key: Tuple[KeyPart, ...]
    ) -> bool:
        """True when every key component matches the entry's pattern."""
        for part, pattern, read, width in zip(
            key, entry.key, self.decl.reads, self.key_widths
        ):
            match_type = read.match_type
            if match_type in (ast.MatchType.EXACT, ast.MatchType.VALID):
                if part != pattern:
                    return False
            elif match_type is ast.MatchType.TERNARY:
                value, mask = pattern
                if (part & mask) != (value & mask):
                    return False
            elif match_type is ast.MatchType.LPM:
                value, prefix_len = pattern
                if prefix_len:
                    mask = ((1 << prefix_len) - 1) << (width - prefix_len)
                    if (part & mask) != (value & mask):
                        return False
            elif match_type is ast.MatchType.RANGE:
                lo, hi = pattern
                if not lo <= part <= hi:
                    return False
        return True

    # ---- accounting ---------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def key_bits(self) -> int:
        """Total key width in bits (for SRAM/TCAM accounting)."""
        return sum(self.key_widths)
