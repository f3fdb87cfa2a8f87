"""Symbolic packets.

The emulator operates on pre-parsed packets: a flat mapping from
``"instance.field"`` to integer values plus a set of valid headers.
This matches how the Mantis transformations interact with packets
(field reads/writes, table matches) without modelling wire formats.

Intrinsic per-packet state (ingress port, egress spec, queue depths,
timestamps, drop flag) lives in the ``standard_metadata`` instance,
mirroring bmv2's v1model.

A burst of same-shaped packets is a :class:`TemplateBurst`: one
:class:`PacketTemplate` plus a lane count.  The columnar engine reads
it as the template's values broadcast over the lanes and builds a
lane's :class:`Packet` only when the lane recirculates, needs a scalar
phase or leaves the switch.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Set

_packet_ids = itertools.count()

# Fields of the built-in standard_metadata instance.
STANDARD_METADATA_FIELDS = {
    "ingress_port": 9,
    "egress_spec": 9,
    "egress_port": 9,
    "packet_length": 32,
    "enq_qdepth": 19,
    "deq_qdepth": 19,
    "ingress_global_timestamp": 48,
    "egress_global_timestamp": 48,
    "recirculate_flag": 1,
    "clone_flag": 1,
    "drop_flag": 1,
    "ecn_marked": 1,
}

# Template for a fresh packet's intrinsic fields; copied (not rebuilt
# key-by-key) per packet since construction sits on the simulator's
# per-packet path.
_STANDARD_METADATA_ZERO = {
    f"standard_metadata.{key}": 0 for key in STANDARD_METADATA_FIELDS
}


class Packet:
    """A symbolic packet processed by the emulated pipeline."""

    __slots__ = ("packet_id", "fields", "valid_headers", "size_bytes")

    def __init__(
        self,
        fields: Optional[Dict[str, int]] = None,
        valid_headers: Optional[Iterable[str]] = None,
        size_bytes: int = 1500,
        ingress_port: int = 0,
    ):
        self.packet_id = next(_packet_ids)
        self.fields: Dict[str, int] = dict(_STANDARD_METADATA_ZERO)
        self.valid_headers: Set[str] = set(valid_headers or ())
        self.size_bytes = size_bytes
        self.fields["standard_metadata.ingress_port"] = ingress_port
        self.fields["standard_metadata.packet_length"] = size_bytes
        if fields:
            for key, value in fields.items():
                self.fields[key] = value
                self.valid_headers.add(key.split(".", 1)[0])

    @classmethod
    def from_template(cls, template: "PacketTemplate") -> "Packet":
        """A fresh packet of a precomputed shape: one dict copy and one
        set copy, no per-key header splitting.  Senders store their
        per-packet fields (sequence numbers) after the copy."""
        packet = cls.__new__(cls)
        packet.packet_id = next(_packet_ids)
        packet.fields = dict(template.fields)
        packet.valid_headers = set(template.valid_headers)
        packet.size_bytes = template.size_bytes
        return packet

    # ---- field access ---------------------------------------------------

    def get(self, key: str) -> int:
        """Read ``"instance.field"``; unset fields read as 0 (bmv2
        semantics for uninitialized metadata)."""
        return self.fields.get(key, 0)

    def set(self, key: str, value: int, mask: Optional[int] = None) -> None:
        if mask is not None:
            value &= mask
        self.fields[key] = value

    # ---- intrinsic helpers ------------------------------------------------

    @property
    def ingress_port(self) -> int:
        return self.fields["standard_metadata.ingress_port"]

    @property
    def egress_spec(self) -> int:
        return self.fields["standard_metadata.egress_spec"]

    @egress_spec.setter
    def egress_spec(self, port: int) -> None:
        self.fields["standard_metadata.egress_spec"] = port

    @property
    def dropped(self) -> bool:
        return bool(self.fields["standard_metadata.drop_flag"])

    def mark_dropped(self) -> None:
        self.fields["standard_metadata.drop_flag"] = 1

    @property
    def recirculated(self) -> bool:
        return bool(self.fields["standard_metadata.recirculate_flag"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, in={self.ingress_port}, "
            f"out={self.egress_spec}, drop={self.dropped})"
        )


class PacketTemplate:
    """One packet shape, fully precomputed.

    Merging the standard_metadata zero map with the payload fields and
    deriving the valid-header set happens once here instead of once per
    packet, so a burst of same-shaped packets pays only
    :meth:`Packet.from_template` (dict copy) each."""

    __slots__ = ("fields", "valid_headers", "size_bytes")

    def __init__(
        self,
        fields: Optional[Dict[str, int]] = None,
        size_bytes: int = 1500,
        ingress_port: int = 0,
    ):
        prototype = Packet(
            fields, size_bytes=size_bytes, ingress_port=ingress_port
        )
        self.fields = prototype.fields
        self.valid_headers = frozenset(prototype.valid_headers)
        self.size_bytes = size_bytes


class TemplateBurst:
    """``n`` packets of one template, not built yet.

    A burst sender hands this to the switch instead of ``n`` packet
    dicts.  Indexing builds lane ``i`` on first access and returns that
    same object afterwards, so every holder of a lane -- a traffic
    manager, a delivery event, the engine's final flush -- shares one
    packet.  Iteration builds every lane; the columnar engine instead
    reads the burst as template columns and builds only the lanes that
    recirculate or leave the switch."""

    __slots__ = ("template", "n", "ingress_port", "_lanes")

    def __init__(self, template: PacketTemplate, n: int):
        self.template = template
        self.n = n
        self.ingress_port = template.fields["standard_metadata.ingress_port"]
        self._lanes: List[Optional[Packet]] = [None] * n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, lane: int) -> Packet:
        packet = self._lanes[lane]
        if packet is None:
            packet = self._lanes[lane] = Packet.from_template(self.template)
            packet.fields["standard_metadata.ingress_port"] = (
                self.ingress_port
            )
        return packet

    def __iter__(self):
        return map(self.__getitem__, range(self.n))
