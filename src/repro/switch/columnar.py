"""Columnar (struct-of-arrays) batch engine.

:class:`ColumnarPipeline` is the third execution engine
(``MANTIS_PIPELINE=columnar``): it executes a burst of packets as a
handful of numpy array operations instead of per-packet Python.  The
model is the Packet Transactions wide-word machine -- compile the whole
match-action program against a vector of packets, so table k sweeps
every lane before table k+1 sees any:

- a :class:`ColumnarBatch` holds one ``int64`` column per
  ``"instance.field"`` key, materialized lazily from ``Packet`` dicts
  (or broadcast from a :class:`TemplateBurst`'s one template, with no
  per-packet work at all) and written back only for lanes a sweep
  actually wrote;
- exact-match lookup packs each table's key fields into one ``int64``
  and resolves entries via equality scans (few entries) or
  ``np.searchsorted`` against a sorted key index cached per
  :attr:`TableRuntime.generation`;
- action bodies lower to vectorized programs over a deliberately
  small atom set -- the one burst traffic runs: field stores become
  masked column assignments, arithmetic and bitwise primitives become
  column ops, constant-index register read-modify-write chains become
  prefix sums (each lane observes the running value the scalar engine
  would have produced), and write-only dynamic-index register stores
  become last-wins scatters;
- every program splits into a pure *prepare* phase (gathers, range
  validation -- may raise :class:`_Unvectorizable`) and a *commit*
  phase, so a lowering that proves unsound at run time downgrades the
  whole table to the generated per-table apply, lane by lane, with no
  partial effects.

Everything outside that atom set -- dynamic-index register reads,
counters, hashes, RNG, cross-register affine flows, int64 headroom --
runs through the compiled engine's generated code one lane at a time,
in lane order, so the engine is always semantically total; the
fallback counters in :attr:`ColumnarPipeline.fallback_counts` say how
often and why.

Admission (:meth:`ColumnarPipeline._plan`) is the data plane's one
footprint rule.  Sweeping table k over every lane before table k+1
sees any is sound exactly when every reachable table is exact-match
and no two of them share cross-packet state (registers, counters, the
RNG), with egress folded in as one combined footprint and
recirculation only ever alone.  A control body must be a flat list of
table applications: a control-level ``if`` rejects the program.  A
program the rule rejects runs its bursts through the generated
controls lane by lane.  A lane that recirculates is not swept again:
after its first pass it finishes through the ASIC's one scalar pass
routine (``SwitchAsic._run_passes``), counted under the ``recirc``
fallback reason.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised via HAVE_NUMPY in both states
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from repro.errors import SwitchError
from repro.p4 import ast
from repro.switch.compiled import CompiledPipeline, _FLAG_KEYS, _tables_in
from repro.switch.packet import Packet, TemplateBurst

HAVE_NUMPY = np is not None

_DROP = "standard_metadata.drop_flag"
_SPEC = "standard_metadata.egress_spec"
_RECIRC = "standard_metadata.recirculate_flag"

# Conservative bit budget: every intermediate must fit int64 with
# headroom for prefix sums over a full batch.
_MAX_BITS = 62
# A template value must lie in this range to broadcast as a column.
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
# Entry counts up to this size match via per-entry equality scans
# (cheaper than sort+searchsorted for the sparse tables Mantis installs).
_SCAN_ENTRIES = 8


def require_numpy() -> None:
    if not HAVE_NUMPY:
        raise SwitchError(
            "the columnar engine requires numpy (MANTIS_PIPELINE=columnar); "
            "install numpy>=1.22 or select the compiled/interpreter engine"
        )


def _broadcast(n: int, value: int) -> "np.ndarray":
    """A fresh column of ``n`` lanes holding ``value`` (``np.full``
    costs twice as much at burst sizes)."""
    arr = np.empty(n, np.int64)
    arr.fill(value)
    return arr


def unique_sorted(values: "np.ndarray", return_index: bool = False):
    """``np.unique(values[, return_index=True])`` for a 1-D integer
    array: the distinct values ascending (and the index of each one's
    first occurrence), from a stable sort.  ``np.unique`` would import
    ``numpy.ma`` on first use (numpy 2.x checks for masked input), a
    module no burst otherwise needs."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(len(ordered), bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if return_index:
        return ordered[first], order[first]
    return ordered[first]


class _Unvectorizable(Exception):
    """A lowering that looked sound at compile time failed a run-time
    check (index range, int64 headroom).  Raised only from *prepare*
    phases, before any state mutation, so the caller can rerun the
    whole table lane by lane through the generated apply."""


class _GiveUp(Exception):
    """Compile-time bail-out: the action body is outside the
    vectorizable subset."""


# ---------------------------------------------------------------------------
# Struct-of-arrays batch


class ColumnarBatch:
    """One burst of packets as parallel ``int64`` columns.

    Backed either by a list of :class:`Packet` objects (columns
    materialize from and flush back to their field dicts) or by a
    :class:`TemplateBurst`: every lane starts as the burst's one
    template, so a column is that template's value broadcast over the
    lanes, and lane ``i`` is built -- as ``burst[i]``, carrying every
    vector write so far -- only when a scalar phase or a delivery
    needs it."""

    __slots__ = ("n", "sizes", "packets", "burst", "cols", "written")

    def __init__(self, n: int, sizes, packets=None, burst=None):
        self.n = n
        self.sizes = sizes
        self.packets: Optional[List[Packet]] = packets
        self.burst: Optional[TemplateBurst] = burst
        self.cols: Dict[str, "np.ndarray"] = {}
        self.written: Dict[str, "np.ndarray"] = {}

    @classmethod
    def from_packets(cls, packets: List[Packet]) -> "ColumnarBatch":
        require_numpy()
        sizes = np.fromiter(
            (p.size_bytes for p in packets), np.int64, count=len(packets)
        )
        return cls(len(packets), sizes, packets=list(packets))

    @classmethod
    def from_burst(cls, burst: TemplateBurst) -> "ColumnarBatch":
        """A template burst as a template-backed batch: each column
        the sweeps touch is the template's value broadcast over the
        lanes, and the burst's ingress port is one vector store.  A
        template field beyond int64 gathers the burst as a packet
        list instead."""
        require_numpy()
        template = burst.template
        if not all(_I64_MIN <= value <= _I64_MAX
                   for value in template.fields.values()):
            return cls.from_packets(list(burst))
        batch = cls(
            burst.n, _broadcast(burst.n, template.size_bytes), burst=burst
        )
        batch.store(
            "standard_metadata.ingress_port", None, burst.ingress_port
        )
        return batch

    # ---- columns --------------------------------------------------------

    def col(self, key: str) -> "np.ndarray":
        arr = self.cols.get(key)
        if arr is None:
            if self.packets is not None:
                try:
                    arr = np.fromiter(
                        (p.fields.get(key, 0) for p in self.packets),
                        np.int64, count=self.n,
                    )
                except OverflowError:
                    raise _Unvectorizable(f"field {key} exceeds int64")
            else:
                arr = _broadcast(
                    self.n, self.burst.template.fields.get(key, 0)
                )
            self.cols[key] = arr
        return arr

    def valid_col(self, header: str) -> "np.ndarray":
        if self.packets is not None:
            return np.fromiter(
                (1 if header in p.valid_headers else 0
                 for p in self.packets),
                np.int64, count=self.n,
            )
        valid = header in self.burst.template.valid_headers
        return _broadcast(self.n, int(valid))

    def store(self, key: str, idx, values) -> None:
        """Write ``values`` into lanes ``idx`` (``None`` = all lanes)
        and remember which lanes were written, so flush-back creates
        exactly the dict keys the scalar engine would have."""
        col = self.col(key)
        mask = self.written.get(key)
        if mask is None:
            mask = self.written[key] = np.zeros(self.n, bool)
        if idx is None:
            col[:] = values
            mask[:] = True
        else:
            col[idx] = values
            mask[idx] = True

    # ---- scalar-fallback boundary ---------------------------------------

    def materialize(self, lanes) -> List[Packet]:
        """Packets for the ``lanes`` index array of a template-backed
        batch, each carrying every vector write so far; no other lane
        is built."""
        packets = list(map(self.burst.__getitem__, lanes.tolist()))
        for key, mask in self.written.items():
            vals = self.cols[key][lanes].tolist()
            for packet, hit, val in zip(packets, mask[lanes].tolist(), vals):
                if hit:
                    packet.fields[key] = val
        return packets

    def ensure_packets(self) -> List[Packet]:
        """Materialize every lane of a template-backed batch (see
        :meth:`materialize`).  After this the batch behaves like a
        packet-backed one."""
        if self.packets is None:
            self.packets = self.materialize(np.arange(self.n))
        return self.packets

    def flush(self) -> None:
        """Write vector results back into the packet dicts (written
        lanes only -- untouched lanes keep their exact dict state)."""
        if self.packets is None:
            self.ensure_packets()
            return
        packets = self.packets
        for key, mask in self.written.items():
            vals = self.cols[key].tolist()
            for lane, hit in enumerate(mask.tolist()):
                if hit:
                    packets[lane].fields[key] = vals[lane]
        self.written.clear()

    def resync(self) -> None:
        """Drop all materialized columns: after a scalar phase the
        packet dicts are authoritative and columns re-materialize
        lazily on next touch."""
        self.cols.clear()
        self.written.clear()

    def lane_flush(self, lane: int) -> None:
        fields = self.packets[lane].fields
        for key, mask in self.written.items():
            if mask[lane]:
                fields[key] = int(self.cols[key][lane])

    def lane_resync(self, lane: int) -> None:
        fields = self.packets[lane].fields
        for key, col in self.cols.items():
            col[lane] = fields.get(key, 0)


# ---------------------------------------------------------------------------
# Compile-time values for the vectorizing action compiler


class _Val:
    """An abstract value: a constant, a lane vector (``fn(ctx)`` ->
    ndarray), or an affine read of a constant register cell
    (``X[cell] + delta``, coefficient exactly 1)."""

    __slots__ = ("kind", "const", "fn", "cell", "delta", "bits")

    def __init__(self, kind, const=0, fn=None, cell=None, delta=None,
                 bits=1):
        self.kind = kind  # 'c' | 'v' | 'a'
        self.const = const
        self.fn = fn
        self.cell = cell
        self.delta = delta
        self.bits = bits


def _vc(value: int) -> _Val:
    return _Val("c", const=value, bits=max(1, value.bit_length()))


def _vv(fn, bits: int) -> _Val:
    if bits > _MAX_BITS:
        raise _GiveUp("int64 headroom")
    return _Val("v", fn=fn, bits=bits)


def _resolve(val: _Val, ctx):
    if val.kind == "c":
        return val.const
    if val.kind == "v":
        return val.fn(ctx)
    return ctx["X"][val.cell] + _resolve(val.delta, ctx)


def _vadd(a: _Val, b: _Val, sign: int = 1) -> _Val:
    """``a + sign*b`` with affine propagation: affine + concrete stays
    affine on the same cell; anything that would scale or mix cells
    bails."""
    if a.kind == "a" and b.kind == "a":
        raise _GiveUp("affine x affine")
    if b.kind == "a":
        if sign < 0:
            raise _GiveUp("negated affine")
        a, b = b, a
    if a.kind == "a":
        return _Val(
            "a", cell=a.cell, delta=_vadd(a.delta, b, sign),
            bits=min(_MAX_BITS, max(a.bits, b.bits) + 1),
        )
    bits = max(a.bits, b.bits) + 1
    if a.kind == "c" and b.kind == "c":
        return _vc(a.const + sign * b.const)

    def fn(ctx, _a=a, _b=b, _s=sign):
        return _resolve(_a, ctx) + _s * _resolve(_b, ctx)

    return _vv(fn, bits)


_NP_BIN = {
    "bit_and": ("&", lambda l, r: l & r),
    "bit_or": ("|", lambda l, r: l | r),
    "bit_xor": ("^", lambda l, r: l ^ r),
    "shift_left": ("<<", lambda l, r: l << r),
    "shift_right": (">>", lambda l, r: l >> r),
    "min": ("min", None),
    "max": ("max", None),
}


def _vbin(op: str, a: _Val, b: _Val) -> _Val:
    if op == "add":
        return _vadd(a, b, 1)
    if op == "subtract":
        return _vadd(a, b, -1)
    if a.kind == "a" or b.kind == "a":
        raise _GiveUp("affine operand in non-additive op")
    sym, py = _NP_BIN[op]
    if op == "shift_left":
        if b.kind != "c" or b.const < 0:
            raise _GiveUp("dynamic shift")
        bits = a.bits + b.const
    elif op == "shift_right":
        bits = a.bits
    else:
        # Operands may be negative (subtract chains), so bound by the
        # larger magnitude even for bit_and.
        bits = max(a.bits, b.bits) + (1 if op == "bit_xor" else 0)
    if a.kind == "c" and b.kind == "c":
        if op == "min":
            return _vc(min(a.const, b.const))
        if op == "max":
            return _vc(max(a.const, b.const))
        return _vc(py(a.const, b.const))
    if bits > _MAX_BITS:
        raise _GiveUp("int64 headroom")

    def fn(ctx, _a=a, _b=b, _op=op):
        left = _resolve(_a, ctx)
        right = _resolve(_b, ctx)
        if _op == "min":
            return np.minimum(left, right)
        if _op == "max":
            return np.maximum(left, right)
        if _op == "bit_and":
            return left & right
        if _op == "bit_or":
            return left | right
        if _op == "bit_xor":
            return left ^ right
        if _op == "shift_left":
            return left << right
        return left >> right

    return _vv(fn, bits)


def _vmask(val: _Val, mask: int) -> _Val:
    if val.kind == "a":
        raise _GiveUp("masking an affine value")
    if val.kind == "c":
        return _vc(val.const & mask)
    # The masked result is in [0, mask] regardless of the (possibly
    # negative) input, so the mask width is the bound.
    bits = mask.bit_length()

    def fn(ctx, _v=val, _m=mask):
        return _resolve(_v, ctx) & _m

    return _Val("v", fn=fn, bits=bits)


class _CellState:
    """One constant-index register slot touched by an action body."""

    __slots__ = ("register", "index", "mode", "delta", "over", "has_reads")

    def __init__(self, register, index: int):
        self.register = register
        self.index = index
        self.mode = None  # None | 'a' (v0 + delta) | 'o' (overwritten)
        self.delta: _Val = _vc(0)
        self.over: Optional[_Val] = None
        self.has_reads = False

    def read(self) -> _Val:
        if self.mode == "o":
            return self.over
        self.has_reads = True
        if self.mode is None:
            self.mode = "a"
        return _Val(
            "a", cell=(self.register.name, self.index), delta=self.delta,
            bits=min(_MAX_BITS, self.register.width + 14),
        )


# ---------------------------------------------------------------------------
# Vectorized action programs


class _VecProgram:
    """A compiled, vectorized action body.

    ``prepare(batch, idx, n)`` runs every gather, arithmetic op, and
    range check without mutating anything (raising
    :class:`_Unvectorizable` on failure) and returns a zero-argument
    commit closure that applies all effects."""

    __slots__ = ("stores", "cells", "scatters", "stateful")

    def __init__(self, stores, cells, scatters):
        self.stores = stores        # [(key, val, commit_mask)]
        self.cells = cells          # {(reg_name, idx): _CellState}
        self.scatters = scatters    # [(register, idx_val, value_val)]
        self.stateful = bool(cells or scatters)

    def prepare(self, batch: ColumnarBatch, idx, n: int):
        ctx = {"batch": batch, "idx": idx, "X": {}, "gmemo": {}}
        # Register cells: resolve deltas, derive each lane's observed
        # start value (exclusive prefix sum), and the final slot value.
        cell_commits = []
        for key, state in self.cells.items():
            register = state.register
            slot = state.index
            if state.mode == "a":
                v0 = register.values[slot]
                delta = state.delta
                if (max(register.width, delta.bits + n.bit_length()) + 1
                        > _MAX_BITS):
                    raise _Unvectorizable("prefix-sum headroom")
                if delta.kind == "c":
                    step = delta.const
                    if state.has_reads:
                        ctx["X"][key] = v0 + step * np.arange(
                            n, dtype=np.int64
                        )
                    total = step * n
                else:
                    d = _resolve(delta, ctx)
                    cs = np.cumsum(d)
                    if state.has_reads:
                        ctx["X"][key] = v0 + cs - d
                    total = int(cs[-1]) if n else 0
                final = (v0 + total) & register.mask
            elif state.mode == "o":
                value = _resolve(state.over, ctx)
                last = int(value[-1]) if isinstance(
                    value, np.ndarray
                ) else int(value)
                final = last & register.mask
            else:  # read-only cell: no commit
                continue
            cell_commits.append((register, slot, final))
        # Scatters: validate indices, resolve values, keep the last
        # write per slot (ascending lane order == scalar order).  The
        # index is a lane vector: a constant one lowers as a cell.
        scatter_commits = []
        for register, idx_val, value_val in self.scatters:
            indices = _resolve(idx_val, ctx)
            size = len(register.values)
            if ((indices < 0) | (indices >= size)).any():
                bad = int(
                    indices[(indices < 0) | (indices >= size)][0]
                )
                raise _Unvectorizable(
                    f"register {register.name}: index {bad} out of range"
                )
            values = _resolve(value_val, ctx)
            rev = indices[::-1]
            slots, first = unique_sorted(rev, return_index=True)
            last_pos = n - 1 - first
            if isinstance(values, np.ndarray):
                vals = values[last_pos]
            else:
                vals = np.full(len(slots), values, np.int64)
            scatter_commits.append(
                (register, slots.tolist(), vals.tolist())
            )
        # Field stores: compute final values now (purely), write later.
        store_commits = []
        for key, val, commit_mask in self.stores:
            value = _resolve(val, ctx)
            if commit_mask is not None:
                value = value & commit_mask
            store_commits.append((key, value))

        def commit() -> None:
            for key, value in store_commits:
                batch.store(key, idx, value)
            for register, slot, final in cell_commits:
                register.values[slot] = final
            for register, slots, vals in scatter_commits:
                register.bulk_write(slots, vals)

        return commit


class _VecActionCompiler:
    """Lower one resolved ``(action, args)`` pair to a
    :class:`_VecProgram`, or prove it non-vectorizable (``None``).

    The atom set is field stores, arithmetic and bitwise primitives,
    constant-index register read-modify-write and write-only
    dynamic-index register stores; any other primitive gives up, so
    its lanes run the compiled engine's code."""

    def __init__(self, pipeline: "ColumnarPipeline", decl: ast.ActionDecl,
                 args: Tuple[int, ...]):
        self.asic = pipeline.asic
        self.decl = decl
        self.params = dict(zip(decl.params, args))
        self.env: Dict[str, Tuple[_Val, Optional[int]]] = {}
        self.cells: Dict[Tuple[str, int], _CellState] = {}
        self.scatters: List[tuple] = []
        # How each register is used in this body; mixing kinds on one
        # register defeats the per-kind soundness arguments.
        self.reg_use: Dict[str, str] = {}

    def compile(self) -> Optional[_VecProgram]:
        if len(self.decl.params) != len(self.params):
            return None
        try:
            for call in self.decl.body:
                self._call(call)
        except _GiveUp:
            return None
        stores = [
            (key, val, mask) for key, (val, mask) in self.env.items()
        ]
        return _VecProgram(stores, self.cells, self.scatters)

    # ---- helpers --------------------------------------------------------

    def _use_register(self, name: str, kind: str):
        prior = self.reg_use.setdefault(name, kind)
        if prior != kind:
            raise _GiveUp(f"mixed register access on {name}")

    def _const(self, arg) -> Optional[int]:
        if isinstance(arg, int):
            return arg
        if isinstance(arg, str):
            if arg not in self.params:
                raise _GiveUp(f"unresolved parameter {arg}")
            return self.params[arg]
        return None

    def _value(self, arg) -> _Val:
        const = self._const(arg)
        if const is not None:
            return _vc(const)
        if isinstance(arg, ast.FieldRef):
            return self._read_field(f"{arg.header}.{arg.field}")
        raise _GiveUp(f"unsupported argument {arg!r}")

    def _read_field(self, key: str) -> _Val:
        hit = self.env.get(key)
        if hit is not None:
            return hit[0]
        mask = self.asic.field_masks.get(key)
        if mask is None:
            raise _GiveUp(f"unknown field width for {key}")
        bits = mask.bit_length()
        if bits > _MAX_BITS:
            raise _GiveUp("wide field")

        def fn(ctx, _key=key):
            memo = ctx["gmemo"]
            arr = memo.get(_key)
            if arr is None:
                col = ctx["batch"].col(_key)
                idx = ctx["idx"]
                arr = memo[_key] = col if idx is None else col[idx]
            return arr

        return _vv(fn, bits)

    def _store_field(self, arg, val: _Val) -> None:
        if not isinstance(arg, ast.FieldRef):
            raise _GiveUp("destination is not a field")
        key = f"{arg.header}.{arg.field}"
        mask = self.asic.field_masks.get(key)
        if mask is None:
            raise _GiveUp(f"unknown field width for {key}")
        if val.kind == "a":
            cell_reg = self.cells[val.cell].register
            if mask != cell_reg.mask:
                raise _GiveUp("affine store under a different mask")
            self.env[key] = (val, mask)
        else:
            self.env[key] = (_vmask(val, mask), None)

    def _cell(self, register, index: _Val) -> _CellState:
        """The state of the register slot a constant index names -- a
        literal, an action parameter, or a field this body set to a
        constant."""
        if not 0 <= index.const < len(register.values):
            raise _GiveUp("constant register index out of range")
        if register.width > 48:
            # Leave headroom for a full batch of prefix-summed deltas
            # on top of the unreduced cell value.
            raise _GiveUp("wide register cell")
        self._use_register(register.name, "cell")
        key = (register.name, index.const)
        state = self.cells.get(key)
        if state is None:
            state = self.cells[key] = _CellState(register, index.const)
        return state

    # ---- one primitive --------------------------------------------------

    def _call(self, call: ast.PrimitiveCall) -> None:
        name = call.name
        args = call.args
        if name == "no_op":
            return
        if name == "drop":
            self.env[_DROP] = (_vc(1), None)
            return
        if name in _FLAG_KEYS:
            self.env[_FLAG_KEYS[name]] = (_vc(1), None)
            return
        if name == "modify_field":
            value = self._value(args[1])
            if len(args) > 2:
                # Masked form: (dst & ~mask) | (src & mask), with
                # ~mask spelled -1 - mask so it lowers like any value.
                if not isinstance(args[0], ast.FieldRef):
                    raise _GiveUp("destination is not a field")
                mask = self._value(args[2])
                current = self._read_field(f"{args[0].header}.{args[0].field}")
                value = _vbin(
                    "bit_or",
                    _vbin("bit_and", current, _vadd(_vc(-1), mask, -1)),
                    _vbin("bit_and", value, mask),
                )
            self._store_field(args[0], value)
            return
        if name in ("add", "subtract", "bit_and", "bit_or", "bit_xor",
                    "shift_left", "shift_right", "min", "max"):
            value = _vbin(name, self._value(args[1]), self._value(args[2]))
            self._store_field(args[0], value)
            return
        if name in ("add_to_field", "subtract_from_field"):
            if not isinstance(args[0], ast.FieldRef):
                raise _GiveUp("destination is not a field")
            current = self._read_field(f"{args[0].header}.{args[0].field}")
            sign = 1 if name == "add_to_field" else -1
            self._store_field(args[0], _vadd(current, self._value(args[1]),
                                             sign))
            return
        if name == "register_read":
            register = self.asic.get_register(args[1])
            index = self._value(args[2])
            if index.kind != "c":
                raise _GiveUp("dynamic register gather")
            self._store_field(args[0], self._cell(register, index).read())
            return
        if name == "register_write":
            register = self.asic.get_register(args[0])
            value = self._value(args[2])
            index = self._value(args[1])
            if index.kind == "c":
                state = self._cell(register, index)
                if value.kind == "a":
                    if value.cell != (register.name, index.const):
                        raise _GiveUp("cross-cell affine write")
                    state.mode = "a"
                    state.delta = value.delta
                else:
                    if state.has_reads:
                        raise _GiveUp("overwrite after read")
                    state.mode = "o"
                    state.over = value
                return
            if index.kind == "a":
                raise _GiveUp("affine scatter index")
            self._use_register(register.name, "scatter")
            for existing, _i, _v in self.scatters:
                if existing is register:
                    raise _GiveUp("double scatter on one register")
            if value.kind == "a":
                cell_reg = self.cells[value.cell].register
                if register.mask & cell_reg.mask != register.mask:
                    raise _GiveUp("widening affine scatter")
            self.scatters.append((register, index, value))
            return
        # Counters, hashes, RNG and anything unrecognized keep scalar
        # semantics.
        raise _GiveUp(f"non-vectorizable primitive {name}")


# ---------------------------------------------------------------------------
# Per-table sweeps


class _TableSweep:
    """One table's columnar sweep over a batch.

    Resolves match groups vectorially, runs a vectorized program per
    group when the lowering is sound, drains non-vectorizable lanes
    through the fused runners in lane order, and downgrades the whole
    table to the generated per-table apply, lane by lane, when per-lane
    order could become observable (more than one group touching
    cross-packet state), the key does not pack, or a run-time check
    fails."""

    def __init__(self, pipeline: "ColumnarPipeline", runtime):
        self.pipeline = pipeline
        self.runtime = runtime
        self.name = runtime.decl.name
        reads = runtime.decl.reads
        self.keyless = not reads
        self.parts: List[tuple] = []
        self.packable = True
        total_bits = 0
        for read, width in zip(reads, runtime.key_widths):
            if read.match_type is ast.MatchType.VALID:
                self.parts.append(("valid", read.ref.header, width, None))
            else:
                ref = read.ref
                self.parts.append(
                    ("field", f"{ref.header}.{ref.field}", width, read.mask)
                )
            total_bits += width
        if total_bits > _MAX_BITS:
            self.packable = False
        self._index_gen = -1
        self._index = None

    # ---- entry index ----------------------------------------------------

    def _entry_index(self):
        runtime = self.runtime
        if runtime.generation != self._index_gen:
            self._index_gen = runtime.generation
            packed_entries = []
            usable = True
            for key_tuple, entry in runtime._exact_index.items():
                packed = 0
                for part, (_kind, _k, width, _m) in zip(
                    key_tuple, self.parts
                ):
                    value = int(part)
                    if not 0 <= value < (1 << width):
                        usable = False
                        break
                    packed = (packed << width) | value
                if not usable:
                    break
                packed_entries.append((packed, entry))
            if not usable:
                self._index = None
            else:
                packed_entries.sort(key=lambda pair: pair[0])
                keys = np.fromiter(
                    (pk for pk, _e in packed_entries), np.int64,
                    count=len(packed_entries),
                )
                entries = [e for _pk, e in packed_entries]
                self._index = (keys, entries)
        return self._index

    def _pack(self, batch: ColumnarBatch, idx):
        """The packed int64 key per live lane plus an out-of-range
        mask (lanes whose raw field values exceed the key width can
        never match an in-range entry -- they miss)."""
        packed = None
        oor = None
        for kind, key, width, premask in self.parts:
            if kind == "valid":
                col = batch.valid_col(key)
            else:
                col = batch.col(key)
            part = col if idx is None else col[idx]
            if premask is not None:
                part = part & premask
            bad = (part < 0) | (part >= (1 << width))
            oor = bad if oor is None else (oor | bad)
            part = part & ((1 << width) - 1)
            packed = part if packed is None else (
                (packed << width) | part
            )
        return packed, oor

    # ---- group resolution -----------------------------------------------

    def _resolve_groups(self, batch, idx, count):
        """``[(entry_or_None, lane_idx_or_None, lane_count)]`` covering
        every live lane; ``None`` entry means miss (default action),
        ``None`` idx means "all live lanes" (only when live == all)."""
        index = self._entry_index()
        if index is None:
            return None  # oversized entry keys: scalar sweep
        keys, entries = index
        if self.keyless:
            entry = self.runtime._exact_index.get(())
            return [(entry, idx, count)]
        if len(entries) == 0:
            return [(None, idx, count)]
        packed, oor = self._pack(batch, idx)
        if len(entries) <= _SCAN_ENTRIES:
            remaining = None
            groups = []
            for pk, entry in zip(keys.tolist(), entries):
                hit = packed == pk
                if oor is not None:
                    hit &= ~oor
                matched = int(hit.sum())
                if not matched:
                    continue
                groups.append((entry, hit, matched))
                remaining = ~hit if remaining is None else (
                    remaining & ~hit
                )
        else:
            positions = np.searchsorted(keys, packed)
            positions[positions >= len(entries)] = 0
            hit_mask = keys[positions] == packed
            if oor is not None:
                hit_mask &= ~oor
            groups = []
            remaining = ~hit_mask
            if hit_mask.any():
                matched_pos = positions[hit_mask]
                for pos in unique_sorted(matched_pos):
                    local = hit_mask & (positions == pos)
                    groups.append((entries[pos], local, int(local.sum())))
        miss_count = count - sum(g[2] for g in groups)
        if miss_count:
            if remaining is None:
                remaining = np.ones(count, bool)
            groups.append((None, remaining, miss_count))
        # Convert local masks to global lane indices (single full
        # group keeps idx=None for whole-column ops).
        out = []
        for entry, mask, n_lanes in groups:
            if mask is None or not isinstance(mask, np.ndarray):
                out.append((entry, mask, n_lanes))
            elif n_lanes == count and idx is None:
                out.append((entry, None, n_lanes))
            else:
                local = np.nonzero(mask)[0]
                out.append(
                    (entry,
                     local if idx is None else idx[local],
                     n_lanes)
                )
        return out

    # ---- execution ------------------------------------------------------

    def run(self, st: "_SweepState") -> None:
        batch = st.batch
        idx, count = st.live()
        if count == 0:
            return
        if not self.packable:
            self._run_scalar(st, idx, count, "unpackable")
            return
        try:
            groups = self._resolve_groups(batch, idx, count)
        except _Unvectorizable:
            groups = None
        if groups is None:
            self._run_scalar(st, idx, count, "unpackable")
            return
        pipeline = self.pipeline
        runtime = self.runtime
        plans = []
        stateful = 0
        for entry, g_idx, g_count in groups:
            if entry is None:
                default = runtime.default_action
                action, args = default if default else (None, ())
                matched = False
            else:
                action = entry.action_name
                args = entry.action_args
                matched = True
            program = pipeline.vec_program(action, tuple(args))
            if program is None:
                resources = (
                    set() if action is None
                    else pipeline._action_resources(action)
                )
                is_stateful = resources is None or bool(
                    resources - {"recirc"}
                )
            else:
                is_stateful = program.stateful
            if is_stateful:
                stateful += 1
            plans.append(
                (matched, action, args, program, g_idx, g_count)
            )
        if stateful > 1:
            # Two groups interleave on shared state: only the scalar
            # sweep preserves lane order across groups.
            self._run_scalar(st, idx, count, "shared-state-groups")
            return
        # Prepare every vectorized group before committing anything,
        # so a run-time bail-out leaves no partial effects.
        commits = []
        drains = []
        try:
            for matched, action, args, program, g_idx, g_count in plans:
                if program is None:
                    drains.append((matched, action, args, g_idx, g_count))
                    continue
                commit = program.prepare(batch, g_idx, g_count)
                commits.append((matched, g_count, commit))
        except _Unvectorizable:
            self._run_scalar(st, idx, count, "runtime-check")
            return
        hits = 0
        misses = 0
        for matched, g_count, commit in commits:
            commit()
            if matched:
                hits += g_count
            else:
                misses += g_count
        if drains:
            hits, misses = self._drain(st, drains, hits, misses)
        runtime.hits += hits
        runtime.misses += misses

    def _run_scalar(self, st: "_SweepState", idx, count,
                    reason: str) -> None:
        """Whole-table fallback: flush columns, apply the generated
        per-table function (its own hit/miss accounting) to each live
        lane in lane order, re-materialize."""
        st.mark_fallback(idx, count, f"table:{self.name}:{reason}")
        batch = st.batch
        batch.flush()
        packets = batch.ensure_packets()
        apply = self.pipeline._apply_fn(self.name)
        for lane in range(batch.n) if idx is None else idx.tolist():
            apply(packets[lane])
        batch.resync()

    def _drain(self, st: "_SweepState", drains, hits: int,
               misses: int) -> Tuple[int, int]:
        """Per-lane scalar execution for non-vectorizable groups, in
        ascending lane order (at most one such group touches
        cross-packet state, so interleaving with the already-committed
        vector groups is unobservable)."""
        batch = st.batch
        packets = batch.ensure_packets()
        fuse = self.pipeline._fuse_runner
        lanes: List[tuple] = []
        for matched, action, args, g_idx, g_count in drains:
            run = fuse(action, tuple(args))
            if g_idx is None:
                g_idx = range(batch.n)
            for lane in g_idx:
                lanes.append((int(lane), matched, run))
        lanes.sort(key=lambda item: item[0])
        st.mark_fallback(
            np.fromiter((l[0] for l in lanes), np.int64, count=len(lanes)),
            len(lanes), f"drain:{self.name}",
        )
        for lane, matched, run in lanes:
            if matched:
                hits += 1
            else:
                misses += 1
            batch.lane_flush(lane)
            packet = packets[lane]
            run(packet, packet.fields)
            batch.lane_resync(lane)
        return hits, misses


class _SweepState:
    """Per-batch bookkeeping shared by the sweeps: live-lane
    recomputation and fallback accounting."""

    __slots__ = ("batch", "fallback", "reasons")

    def __init__(self, batch: ColumnarBatch, reasons: Dict[str, int]):
        self.batch = batch
        self.fallback = np.zeros(batch.n, bool)
        self.reasons = reasons

    def live(self):
        drop = self.batch.col(_DROP)
        if not drop.any():
            return None, self.batch.n
        live = np.nonzero(drop == 0)[0]
        return live, len(live)

    def mark_fallback(self, idx, count: int, reason: str) -> None:
        if count:
            if idx is None:
                self.fallback[:] = True
            else:
                self.fallback[idx] = True
            self.reasons[reason] = self.reasons.get(reason, 0) + count


# ---------------------------------------------------------------------------
# The engine


class ColumnarPipeline(CompiledPipeline):
    """Compiled engine plus columnar burst plans.

    Inherits every scalar path (generated controls, per-table applies,
    fused runners), so a burst the admission rejects runs the generated
    controls lane by lane, and a table or lane the vectorizer cannot
    take mid-burst still executes with compiled-engine semantics."""

    def __init__(self, asic, rng=None, profile=None):
        require_numpy()
        super().__init__(asic, rng=rng, profile=profile)
        self._vec_programs: Dict[Tuple[Optional[str], tuple], object] = {}
        self.fallback_counts: Dict[str, int] = {}
        self._columnar_plans: Dict[str, Optional[List[_TableSweep]]] = {}
        if profile is None:
            controls = asic.program.controls
            egress = controls.get("egress")
            egress_tables = [] if egress is None else [
                asic.tables[name] for name in _tables_in(egress.body)
            ]
            ingress = self._plan(controls.get("ingress"), egress_tables)
            self._columnar_plans["ingress"] = ingress
            # Egress tables were only proved disjoint from ingress as
            # one combined footprint; sweeping them table-major needs
            # them disjoint from each other as well.
            self._columnar_plans["egress"] = (
                None if ingress is None else self._plan(egress)
            )

    # ---- admission: the footprint rule ---------------------------------

    def _plan(self, decl, downstream=None) -> Optional[List[_TableSweep]]:
        """Sweeps for one control block, or ``None`` when its bursts
        must run lane by lane.

        The body must be a flat list of exact-match table applications
        (a control-level ``if`` rejects the program).  Sweeping table k
        over every lane before table k+1 sees any is observably
        identical to per-packet execution iff each table footprint is
        disjoint from every other.  ``downstream`` is the list of
        tables that run per packet *after* this control's sweeps
        (ingress passes every egress table), folded in as one combined
        footprint.  An absent control is an empty plan."""
        runtimes = []
        for stmt in [] if decl is None else decl.body:
            runtime = (
                self.asic.tables.get(stmt.table)
                if isinstance(stmt, ast.ApplyCall) else None
            )
            if runtime is None or not runtime._exact_only:
                return None
            runtimes.append(runtime)
        groups = [[runtime] for runtime in runtimes]
        if downstream is not None:
            groups.append(downstream)
        shared: set = set()
        for group in groups:
            footprint: set = set()
            for runtime in group:
                resources = self._table_resources(runtime)
                if resources is None:
                    return None
                footprint |= resources
            if footprint & shared:
                return None
            shared |= footprint
        # Recirculation replays ingress out of sweep order, so it is
        # sound only when nothing else is stateful.
        if "recirc" in shared and shared != {"recirc"}:
            return None
        return [_TableSweep(self, runtime) for runtime in runtimes]

    def _action_resources(self, action_name: str) -> Optional[set]:
        """Cross-packet state an action touches.  ``None`` for unknown
        actions (unanalyzable)."""
        decl = self.asic.program.actions.get(action_name)
        if decl is None:
            return None
        resources = set()
        for call in decl.body:
            name = call.name
            if name == "register_write":
                resources.add(f"reg:{call.args[0]}")
            elif name == "register_read":
                resources.add(f"reg:{call.args[1]}")
            elif name == "count":
                resources.add(f"ctr:{call.args[0]}")
            elif name == "modify_field_rng_uniform":
                resources.add("rng")
            elif name == "recirculate":
                resources.add("recirc")
        return resources

    def _table_resources(self, runtime) -> Optional[set]:
        """Cross-packet state reachable from any action this table can
        invoke (entries and the rebindable default are both validated
        against ``decl.action_names``, so this union is sound)."""
        names = set(runtime.decl.action_names)
        default = runtime.decl.default_action
        if default:
            names.add(default[0])
        resources = set()
        for name in names:
            action_resources = self._action_resources(name)
            if action_resources is None:
                return None
            resources |= action_resources
        return resources

    def columnar_ops(
        self, control_name: str
    ) -> Optional[List[_TableSweep]]:
        """The columnar plan for one control block, or ``None`` when
        its bursts run lane by lane (profiling, or the footprint rule
        rejected the program)."""
        if self.profile is not None:
            return None
        return self._columnar_plans.get(control_name)

    def vec_program(
        self, action_name: Optional[str], args: tuple
    ) -> Optional[_VecProgram]:
        """The vectorized program for a resolved (action, args) pair;
        cached -- like the fused runners, the lowering depends only on
        the action declaration and stable ASIC containers."""
        key = (action_name, args)
        hit = self._vec_programs.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        if action_name is None:
            program: Optional[_VecProgram] = _VecProgram([], {}, [])
        else:
            decl = self.asic.program.actions.get(action_name)
            if decl is None or len(decl.params) != len(args):
                program = None
            else:
                program = _VecActionCompiler(self, decl, args).compile()
        self._vec_programs[key] = program
        return program

    def count_fallback(self, reason: str, lanes: int) -> None:
        self.fallback_counts[reason] = (
            self.fallback_counts.get(reason, 0) + lanes
        )


_MISSING = object()
