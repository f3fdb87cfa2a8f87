"""Typed AST for the P4-14 subset used by Mantis.

The node set covers everything the paper's transformations (Figures 4-6)
and use cases need: header types and instances, field lists and hash
calculations, stateful registers, actions built from primitive-action
calls, match-action tables, control blocks with ``apply``/``if``, and a
simplified parser section.

Nodes are plain mutable dataclasses.  The Mantis compiler deep-copies a
:class:`Program` and rewrites nodes in place; the switch emulator
interprets the same nodes directly, so there is exactly one definition
of the language semantics in the code base.

P4R-only nodes (malleables, reactions) live in :mod:`repro.p4r.ast`;
the shared :class:`MalleableRef` reference node is defined here because
pre-transform programs embed it in ordinary P4 positions.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import P4SemanticError


class MatchType(enum.Enum):
    """Match kinds supported by table ``reads`` entries."""

    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"
    VALID = "valid"


@dataclass
class FieldRef:
    """Reference to ``instance.field`` (header or metadata)."""

    header: str
    field: str

    def __str__(self) -> str:
        return f"{self.header}.{self.field}"

    def __hash__(self) -> int:
        return hash((self.header, self.field))


@dataclass
class MalleableRef:
    """A ``${name}`` reference to a malleable value or field.

    Present only in pre-transform (P4R) programs; the Mantis compiler
    replaces every instance before emitting plain P4.
    """

    name: str

    def __str__(self) -> str:
        return "${" + self.name + "}"

    def __hash__(self) -> int:
        return hash(("${}", self.name))


@dataclass
class ValidRef:
    """``valid(header)`` test used in control-flow conditions."""

    header: str

    def __str__(self) -> str:
        return f"valid({self.header})"


@dataclass
class BinOp:
    """Binary expression in an ``if`` condition.

    ``op`` is one of ``== != < <= > >= and or + - & |``.
    Operands may be :class:`FieldRef`, :class:`ValidRef`, ``int`` or
    nested :class:`BinOp`.
    """

    op: str
    left: "Operand"
    right: "Operand"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Operand = Union[FieldRef, MalleableRef, ValidRef, BinOp, int]
# Arguments accepted by primitive-action calls.
Arg = Union[FieldRef, MalleableRef, int, str]


@dataclass
class FieldDecl:
    """One field of a header type: name plus bit width."""

    name: str
    width: int


@dataclass
class HeaderType:
    name: str
    fields: List[FieldDecl] = field(default_factory=list)

    def field_width(self, name: str) -> int:
        for f in self.fields:
            if f.name == name:
                return f.width
        raise P4SemanticError(f"header type {self.name} has no field {name}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    @property
    def total_width(self) -> int:
        return sum(f.width for f in self.fields)


@dataclass
class HeaderInstance:
    """A ``header`` or ``metadata`` instance of a header type.

    ``initializer`` maps field name to initial value; only meaningful
    for metadata (headers start invalid, metadata starts initialized).
    """

    name: str
    header_type: str
    is_metadata: bool = False
    initializer: Dict[str, int] = field(default_factory=dict)


@dataclass
class FieldList:
    name: str
    entries: List[Union[FieldRef, MalleableRef]] = field(default_factory=list)


@dataclass
class FieldListCalculation:
    """``field_list_calculation`` -- a named hash over field lists."""

    name: str
    inputs: List[str] = field(default_factory=list)
    algorithm: str = "crc16"
    output_width: int = 16


@dataclass
class RegisterDecl:
    """A stateful register array (``register { width; instance_count }``)."""

    name: str
    width: int = 32
    instance_count: int = 1


@dataclass
class CounterDecl:
    """A counter array; modelled as a packets-or-bytes register."""

    name: str
    counter_type: str = "packets"  # "packets" | "bytes" | "packets_and_bytes"
    instance_count: int = 1


@dataclass
class PrimitiveCall:
    """A call to a P4-14 primitive action, e.g. ``modify_field(a, b)``.

    ``args`` holds :data:`Arg` values; string args name registers,
    field lists, or field-list calculations depending on the primitive.
    """

    name: str
    args: List[Arg] = field(default_factory=list)

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.name}({rendered})"


@dataclass
class ActionDecl:
    """A compound action: named parameters plus primitive calls."""

    name: str
    params: List[str] = field(default_factory=list)
    body: List[PrimitiveCall] = field(default_factory=list)


@dataclass
class TableRead:
    """One entry of a table's ``reads`` block."""

    ref: Union[FieldRef, MalleableRef, ValidRef]
    match_type: MatchType = MatchType.EXACT
    mask: Optional[int] = None


@dataclass
class TableDecl:
    """A match-action table declaration.

    ``malleable`` marks P4R malleable tables before the Mantis
    transform; the compiler records the flag into the control-plane
    spec and clears it in the emitted P4.
    """

    name: str
    reads: List[TableRead] = field(default_factory=list)
    action_names: List[str] = field(default_factory=list)
    default_action: Optional[Tuple[str, List[int]]] = None
    size: Optional[int] = None
    malleable: bool = False

    def is_ternary(self) -> bool:
        """True when any read requires TCAM (ternary/lpm/range)."""
        tcam_kinds = (MatchType.TERNARY, MatchType.LPM, MatchType.RANGE)
        return any(r.match_type in tcam_kinds for r in self.reads)


@dataclass
class ApplyCall:
    """``apply(table)`` statement in a control block."""

    table: str


@dataclass
class IfBlock:
    """``if (cond) { ... } else { ... }`` in a control block."""

    cond: Operand
    then_body: List["Statement"] = field(default_factory=list)
    else_body: List["Statement"] = field(default_factory=list)


Statement = Union[ApplyCall, IfBlock]


@dataclass
class ControlDecl:
    """A named control block (``control ingress { ... }``)."""

    name: str
    body: List[Statement] = field(default_factory=list)

    def applied_tables(self) -> List[str]:
        """All table names applied anywhere in this control, in order."""
        tables: List[str] = []

        def walk(stmts: List[Statement]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ApplyCall):
                    tables.append(stmt.table)
                else:
                    walk(stmt.then_body)
                    walk(stmt.else_body)

        walk(self.body)
        return tables


@dataclass
class ParserStateDecl:
    """A simplified parser state: extracts then branches to one target.

    The emulator works on pre-parsed symbolic packets, so parser states
    are validated but not executed; they are kept so that round-tripping
    a program through the printer stays faithful.
    """

    name: str
    extracts: List[str] = field(default_factory=list)
    return_target: str = "ingress"


Declaration = Union[
    HeaderType,
    HeaderInstance,
    FieldList,
    FieldListCalculation,
    RegisterDecl,
    CounterDecl,
    ActionDecl,
    TableDecl,
    ControlDecl,
    ParserStateDecl,
]


class Program:
    """Container for a parsed P4 (or P4R) program.

    Keeps declarations in source order (for faithful printing) and
    maintains name-indexed maps for each declaration kind.  Mutating
    helpers (``add``, ``replace_action`` ...) keep both views in sync.
    """

    def __init__(self) -> None:
        self.declarations: List[Declaration] = []
        self.header_types: Dict[str, HeaderType] = {}
        self.headers: Dict[str, HeaderInstance] = {}
        self.field_lists: Dict[str, FieldList] = {}
        self.field_list_calcs: Dict[str, FieldListCalculation] = {}
        self.registers: Dict[str, RegisterDecl] = {}
        self.counters: Dict[str, CounterDecl] = {}
        self.actions: Dict[str, ActionDecl] = {}
        self.tables: Dict[str, TableDecl] = {}
        self.controls: Dict[str, ControlDecl] = {}
        self.parser_states: Dict[str, ParserStateDecl] = {}

    _INDEXES = (
        (HeaderType, "header_types"),
        (HeaderInstance, "headers"),
        (FieldList, "field_lists"),
        (FieldListCalculation, "field_list_calcs"),
        (RegisterDecl, "registers"),
        (CounterDecl, "counters"),
        (ActionDecl, "actions"),
        (TableDecl, "tables"),
        (ControlDecl, "controls"),
        (ParserStateDecl, "parser_states"),
    )

    def add(self, decl: Declaration, *, front: bool = False) -> None:
        """Add a declaration, indexing it by kind and name.

        ``front=True`` inserts at the top of the source order, which the
        compiler uses for generated metadata headers.
        """
        for kind, attr in self._INDEXES:
            if isinstance(decl, kind):
                index: Dict[str, Declaration] = getattr(self, attr)
                if decl.name in index:
                    raise P4SemanticError(
                        f"duplicate declaration of {kind.__name__} {decl.name!r}"
                    )
                index[decl.name] = decl
                break
        else:
            raise P4SemanticError(f"unknown declaration type {type(decl).__name__}")
        if front:
            self.declarations.insert(0, decl)
        else:
            self.declarations.append(decl)

    def remove(self, decl: Declaration) -> None:
        """Remove a declaration from both the order and the index."""
        for kind, attr in self._INDEXES:
            if isinstance(decl, kind):
                getattr(self, attr).pop(decl.name, None)
                break
        self.declarations.remove(decl)

    # ---- resolution helpers -------------------------------------------

    def instance_type(self, instance: str) -> HeaderType:
        if instance not in self.headers:
            raise P4SemanticError(f"unknown header/metadata instance {instance!r}")
        type_name = self.headers[instance].header_type
        if type_name not in self.header_types:
            raise P4SemanticError(
                f"instance {instance!r} has undeclared type {type_name!r}"
            )
        return self.header_types[type_name]

    def field_width(self, ref: FieldRef) -> int:
        """Bit width of a field reference, resolving through its type."""
        return self.instance_type(ref.header).field_width(ref.field)

    def has_field(self, ref: FieldRef) -> bool:
        if ref.header not in self.headers:
            return False
        return self.instance_type(ref.header).has_field(ref.field)

    def clone(self) -> "Program":
        """Deep copy, used by the compiler so source programs survive."""
        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Program: {len(self.header_types)} header_types, "
            f"{len(self.tables)} tables, {len(self.actions)} actions, "
            f"{len(self.registers)} registers>"
        )


def walk_statements(stmts: List[Statement]):
    """Yield every statement in a control body, depth first."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, IfBlock):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
