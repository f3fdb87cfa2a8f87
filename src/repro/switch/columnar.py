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
- action bodies lower to vectorized programs: field stores become
  masked column assignments, constant-index register read-modify-write
  chains become prefix sums (each lane observes the running value the
  scalar engine would have produced), dynamic-index register RMW
  becomes a *segmented* prefix sum grouped by index
  (:class:`_DynState`), write-only dynamic stores become last-wins
  scatters, counters become ``np.bincount``, and
  ``field_list_calculation`` hashes become table-driven byte-at-a-time
  CRC sweeps (:func:`repro.switch.hashing.vector_hash_fn`);
- control-level single-``if``/``else`` blocks lower to masked selects:
  the condition is evaluated vectorially over the live lanes and each
  arm's table sweeps run restricted to its lane subset
  (:class:`_CondSweep`);
- every program splits into a pure *prepare* phase (gathers, range
  validation -- may raise :class:`_Unvectorizable`) and a *commit*
  phase, so a lowering that proves unsound at run time downgrades the
  whole table to the generated per-table apply, lane by lane, with no
  partial effects.

Lanes or whole tables that hit non-vectorizable features (RNG,
cross-register affine flows, int64 headroom) run through the compiled
engine's generated code one lane at a time, in lane order, so the
engine is always semantically total; the fallback counters in
:attr:`ColumnarPipeline.fallback_counts` say how often and why.

Admission (:meth:`ColumnarPipeline._plan`) is the data plane's one
footprint rule.  Sweeping table k over every lane before table k+1
sees any is sound exactly when every reachable table is exact-match
and no two of them share cross-packet state (registers, counters, the
RNG), with egress folded in as one combined footprint and
recirculation only ever alone.  Bodies with a single level of
control-flow ``if`` pass the same rule over every reachable arm, which
is sound because each lane executes exactly one arm and the condition
is a pure function of that lane's fields.  A program the rule rejects
runs its bursts through the generated controls lane by lane.  A lane
that recirculates is not swept again: after its first pass it
finishes through the ASIC's one scalar pass routine
(``SwitchAsic._run_passes``), counted under the ``recirc`` fallback
reason.
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
from repro.switch.hashing import vector_hash_fn
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
    ndarray), an affine read of a constant register cell (``X[cell] +
    delta``, coefficient exactly 1), or an affine read of a
    dynamically indexed register slot (kind ``'g'``: ``cell`` is the
    :class:`_DynState` and the base is its per-lane observed value)."""

    __slots__ = ("kind", "const", "fn", "cell", "delta", "bits")

    def __init__(self, kind, const=0, fn=None, cell=None, delta=None,
                 bits=1):
        self.kind = kind  # 'c' | 'v' | 'a' | 'g'
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
    if val.kind == "g":
        return val.cell.observed(ctx) + _resolve(val.delta, ctx)
    return ctx["X"][val.cell] + _resolve(val.delta, ctx)


def _vadd(a: _Val, b: _Val, sign: int = 1) -> _Val:
    """``a + sign*b`` with affine propagation: affine + concrete stays
    affine on the same cell; anything that would scale or mix cells
    bails.  A *subtracted* gather (``a - g``) has no affine structure
    to preserve, so it materializes through the generic resolver --
    sound as long as the gather's observed values are reduced, which
    :meth:`_VecActionCompiler.compile` checks once the state's final
    mode is known (the ``escaped`` flag)."""
    if a.kind in ("a", "g") and b.kind in ("a", "g"):
        raise _GiveUp("affine x affine")
    if b.kind == "a":
        if sign < 0:
            raise _GiveUp("negated affine")
        a, b = b, a
    elif b.kind == "g":
        if sign < 0:
            b.cell.escaped = True
        else:
            a, b = b, a
    if a.kind in ("a", "g"):
        return _Val(
            a.kind, cell=a.cell, delta=_vadd(a.delta, b, sign),
            bits=min(_MAX_BITS, max(a.bits, b.bits) + 1),
        )
    bits = max(a.bits, b.bits) + 1
    if a.kind == "c" and b.kind == "c":
        return _vc(a.const + sign * b.const)
    fa, fb = a, b

    def fn(ctx, _a=fa, _b=fb, _s=sign):
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
    # Gathers may flow through non-additive ops via the generic
    # resolver; the compile-end ``escaped`` check rejects the program
    # if the state later turns into an (unreduced) RMW accumulator.
    if a.kind == "g":
        a.cell.escaped = True
    if b.kind == "g":
        b.cell.escaped = True
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
    if val.kind == "g":
        # Masking collapses the gather-affine structure; the
        # compile-end ``escaped`` check ensures the observed values
        # are reduced (no RMW accumulation on this state).
        val.cell.escaped = True
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


_IN_PROGRESS = object()


class _DynState:
    """One register gathered at a per-lane dynamic index, possibly
    read-modify-written or overwritten at that same index.

    The lane-dimension analogue of :class:`_CellState`: each lane must
    observe the value the scalar engine would have left after all
    *earlier lanes touching the same slot*, which is a segmented
    prefix (stable-sorted by index) instead of a whole-column one.
    Three modes: ``None`` is a pure gather (observed = snapshot),
    ``'a'`` accumulates a delta per lane (ECMP egress counting, sketch
    updates, heartbeat counters), ``'o'`` overwrites the slot with an
    independent value per lane (LinkGuardian's last-seen sequence
    tracking) -- each lane observes the previous same-slot lane's
    masked write."""

    __slots__ = ("register", "idx_val", "mode", "delta", "over",
                 "has_reads", "escaped")

    def __init__(self, register, idx_val: _Val):
        self.register = register
        self.idx_val = idx_val
        self.mode = None  # None | 'a' (slot + delta) | 'o' (overwritten)
        self.delta: _Val = _vc(0)
        self.over: Optional[_Val] = None
        self.has_reads = False
        self.escaped = False

    # ---- compile time ----------------------------------------------------

    def read(self) -> _Val:
        if self.mode == "o":
            # Reads after an overwrite see the lane's own (masked)
            # stored value, exactly like the scalar register file.
            return _vmask(self.over, self.register.mask)
        self.has_reads = True
        return _Val(
            "g", cell=self, delta=self.delta,
            bits=min(_MAX_BITS, self.register.width + 14),
        )

    def write(self, value: _Val) -> None:
        if value.kind == "g" and value.cell is self:
            if self.mode == "o":
                raise _GiveUp("rmw after overwrite")
            if self.register.width > 48:
                # Same headroom rule as constant cells: prefix sums
                # stack unreduced deltas on the raw slot value.
                raise _GiveUp("wide register cell")
            self.mode = "a"
            self.delta = value.delta
            return
        if value.kind in ("a", "g"):
            raise _GiveUp("cross-cell affine write")
        if self.mode == "a":
            raise _GiveUp("overwrite after rmw")
        self.mode = "o"
        self.over = value

    # ---- resolution (prepare phase) --------------------------------------

    def indices(self, ctx):
        memo = ctx["dmemo"]
        key = (id(self), "idx")
        hit = memo.get(key)
        if hit is None:
            indices = _resolve(self.idx_val, ctx)
            if not isinstance(indices, np.ndarray):
                indices = np.full(ctx["n"], indices, np.int64)
            size = len(self.register.values)
            if ((indices < 0) | (indices >= size)).any():
                bad = int(indices[(indices < 0) | (indices >= size)][0])
                raise _Unvectorizable(
                    f"register {self.register.name}: index {bad} "
                    "out of range"
                )
            hit = memo[key] = indices
        return hit

    def _sorted(self, ctx):
        memo = ctx["dmemo"]
        key = (id(self), "sort")
        hit = memo.get(key)
        if hit is None:
            indices = self.indices(ctx)
            n = ctx["n"]
            order = np.argsort(indices, kind="stable")
            sidx = indices[order]
            starts = np.empty(n, bool)
            starts[0] = True
            starts[1:] = sidx[1:] != sidx[:-1]
            hit = memo[key] = (order, sidx, starts)
        return hit

    def observed(self, ctx):
        """Per-lane value a scalar read would have returned, in lane
        order.  Memoized per prepare; the in-progress sentinel catches
        an overwrite value that (transitively) depends on this state's
        own observed values -- a cross-lane recurrence no closed form
        covers, so the table falls back to the scalar sweep."""
        memo = ctx["dmemo"]
        key = (id(self), "obs")
        hit = memo.get(key)
        if hit is _IN_PROGRESS:
            raise _Unvectorizable(
                f"register {self.register.name}: self-referential "
                "overwrite"
            )
        if hit is not None:
            return hit
        memo[key] = _IN_PROGRESS
        value = self._observed(ctx)
        memo[key] = value
        return value

    def _observed(self, ctx):
        register = self.register
        snap = np.array(register.values, np.int64)
        indices = self.indices(ctx)
        n = ctx["n"]
        if self.mode is None or n <= 1:
            return snap[indices]
        order, sidx, starts = self._sorted(ctx)
        if self.mode == "o":
            over = _resolve(self.over, ctx)
            if not isinstance(over, np.ndarray):
                over = np.full(n, over, np.int64)
            prev = np.empty(n, np.int64)
            prev[0] = 0
            prev[1:] = over[order][:-1]
            obs_sorted = np.where(
                starts, snap[sidx], prev & register.mask
            )
        else:  # 'a': segmented exclusive prefix of the deltas
            delta = _resolve(self.delta, ctx)
            if not isinstance(delta, np.ndarray):
                delta = np.full(n, delta, np.int64)
            sd = delta[order]
            cs = np.cumsum(sd)
            excl = cs - sd
            group_start = np.maximum.accumulate(
                np.where(starts, np.arange(n), 0)
            )
            obs_sorted = snap[sidx] + (excl - excl[group_start])
        out = np.empty(n, np.int64)
        out[order] = obs_sorted
        return out

    def commit_plan(self, ctx):
        """``(slots, values, is_add)`` for the final register update:
        per-slot delta totals for RMW states (segmented sums), the
        last lane's value per slot for overwrites."""
        n = ctx["n"]
        order, sidx, starts = self._sorted(ctx)
        ends = np.empty(n, bool)
        ends[-1] = True
        ends[:-1] = starts[1:]
        if self.mode == "o":
            over = _resolve(self.over, ctx)
            if not isinstance(over, np.ndarray):
                values = np.full(int(ends.sum()), int(over), np.int64)
            else:
                values = over[order][ends]
            return sidx[ends].tolist(), values.tolist(), False
        delta = _resolve(self.delta, ctx)
        if not isinstance(delta, np.ndarray):
            delta = np.full(n, delta, np.int64)
        sd = delta[order]
        cs = np.cumsum(sd)
        excl = cs - sd
        group_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
        totals = cs[ends] - excl[group_start[ends]]
        return sidx[ends].tolist(), totals.tolist(), True


# ---------------------------------------------------------------------------
# Vectorized action programs


class _VecProgram:
    """A compiled, vectorized action body.

    ``prepare(batch, idx, n, sizes)`` runs every gather, arithmetic
    op, and range check without mutating anything (raising
    :class:`_Unvectorizable` on failure) and returns a zero-argument
    commit closure that applies all effects."""

    __slots__ = ("stores", "cells", "scatters", "counts", "dyns",
                 "stateful")

    def __init__(self, stores, cells, scatters, counts, dyns=()):
        self.stores = stores        # [(key, val, commit_mask)]
        self.cells = cells          # {(reg_name, idx): _CellState}
        self.scatters = scatters    # [(register, idx_val, value_val)]
        self.counts = counts        # [(counter_array, idx_val|int, bytes?)]
        self.dyns = list(dyns)      # [_DynState]
        self.stateful = bool(
            cells or scatters or counts
            or any(state.mode is not None for state in self.dyns)
        )

    def prepare(self, batch: ColumnarBatch, idx, n: int, sizes):
        ctx = {
            "batch": batch, "idx": idx, "n": n, "sizes": sizes,
            "X": {}, "gmemo": {}, "dmemo": {},
        }
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
        # Dynamic-index register states: range-check every gather
        # (scalar reads validate even when the value goes unused) and
        # derive segmented per-slot commit plans for the written ones.
        dyn_commits = []
        for state in self.dyns:
            state.indices(ctx)
            if state.mode is None:
                continue
            if state.mode == "a":
                register = state.register
                if (max(register.width,
                        state.delta.bits + n.bit_length()) + 1
                        > _MAX_BITS):
                    raise _Unvectorizable("prefix-sum headroom")
            dyn_commits.append((state.register, state.commit_plan(ctx)))
        # Scatters: validate indices, resolve values, keep the last
        # write per slot (ascending lane order == scalar order).
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
            slots, first = np.unique(rev, return_index=True)
            last_pos = n - 1 - first
            if isinstance(values, np.ndarray):
                vals = values[last_pos]
            else:
                vals = np.full(len(slots), values, np.int64)
            scatter_commits.append(
                (register, slots.tolist(), vals.tolist())
            )
        # Counters: pure sums, validated up front.
        count_commits = []
        for array, idx_val, by_bytes in self.counts:
            weights = sizes if by_bytes else None
            if isinstance(idx_val, int):
                if by_bytes:
                    total = int(sizes.sum())
                else:
                    total = n
                count_commits.append((array, [idx_val], [total]))
                continue
            indices = _resolve(idx_val, ctx)
            size = len(array.values)
            if ((indices < 0) | (indices >= size)).any():
                bad = int(
                    indices[(indices < 0) | (indices >= size)][0]
                )
                raise _Unvectorizable(
                    f"register {array.name}: index {bad} out of range"
                )
            if weights is None:
                sums = np.bincount(indices, minlength=size)
            else:
                sums = np.bincount(
                    indices, weights=weights, minlength=size
                ).astype(np.int64)
            slots = np.nonzero(sums)[0]
            count_commits.append(
                (array, slots.tolist(), sums[slots].tolist())
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
            for register, (slots, vals, is_add) in dyn_commits:
                if is_add:
                    register.bulk_add(slots, vals)
                else:
                    register.bulk_write(slots, vals)
            for register, slots, vals in scatter_commits:
                register.bulk_write(slots, vals)
            for array, slots, deltas in count_commits:
                array.bulk_add(slots, deltas)

        return commit


class _VecActionCompiler:
    """Lower one resolved ``(action, args)`` pair to a
    :class:`_VecProgram`, or prove it non-vectorizable (``None``)."""

    def __init__(self, pipeline: "ColumnarPipeline", decl: ast.ActionDecl,
                 args: Tuple[int, ...]):
        self.pipeline = pipeline
        self.asic = pipeline.asic
        self.decl = decl
        self.params = dict(zip(decl.params, args))
        self.env: Dict[str, Tuple[_Val, Optional[int]]] = {}
        self.cells: Dict[Tuple[str, int], _CellState] = {}
        self.scatters: List[tuple] = []
        self.counts: List[tuple] = []
        self.dyns: Dict[str, List[_DynState]] = {}
        # Unwritten field reads, cached so two reads of one field are
        # the *same* _Val -- the identity proof behind matching a
        # dynamic register write's index to its gather's index.
        self._reads: Dict[str, _Val] = {}
        # How each register is used in this body; mixing kinds on one
        # register defeats the per-kind soundness arguments.
        self.reg_use: Dict[str, str] = {}

    def compile(self) -> Optional[_VecProgram]:
        if len(self.decl.params) != len(self.params):
            return None
        try:
            for call in self.decl.body:
                self._call(call)
            for states in self.dyns.values():
                for state in states:
                    if state.escaped and state.mode == "a":
                        # The gather's observed values leaked into a
                        # non-additive context (mask, hash, bitwise
                        # op), but RMW observed values are unreduced
                        # prefix sums -- only additive flows commute
                        # with the register's per-write masking.
                        raise _GiveUp("gather rmw escapes additive flow")
        except _GiveUp:
            return None
        stores = [
            (key, val, mask) for key, (val, mask) in self.env.items()
        ]
        dyns = [
            state for states in self.dyns.values() for state in states
        ]
        return _VecProgram(
            stores, self.cells, self.scatters, self.counts, dyns
        )

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
        cached = self._reads.get(key)
        if cached is not None:
            return cached
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

        val = self._reads[key] = _vv(fn, bits)
        return val

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
        elif val.kind == "g" and mask == val.cell.register.mask:
            # Same-width store keeps the gather-affine structure (the
            # commit mask distributes over the additive chain), so a
            # later register_write of this field still reads as RMW.
            self.env[key] = (val, mask)
        else:
            self.env[key] = (_vmask(val, mask), None)

    def _cell(self, register, index: int) -> _CellState:
        if register.width > 48:
            # Leave headroom for a full batch of prefix-summed deltas
            # on top of the unreduced cell value.
            raise _GiveUp("wide register cell")
        self._use_register(register.name, "cell")
        key = (register.name, index)
        state = self.cells.get(key)
        if state is None:
            state = self.cells[key] = _CellState(register, index)
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
            index = self._const(args[2])
            if index is not None:
                if not 0 <= index < len(register.values):
                    raise _GiveUp("constant register index out of range")
                self._store_field(args[0], self._cell(register, index).read())
                return
            if register.width > _MAX_BITS:
                raise _GiveUp("wide register gather")
            self._use_register(register.name, "dyn")
            idx_val = self._value(args[2])
            if idx_val.kind in ("a", "g"):
                raise _GiveUp("affine gather index")
            states = self.dyns.setdefault(register.name, [])
            for state in states:
                if state.idx_val is idx_val:
                    break
            else:
                state = _DynState(register, idx_val)
                states.append(state)
            self._store_field(args[0], state.read())
            return
        if name == "register_write":
            register = self.asic.get_register(args[0])
            value = self._value(args[2])
            index = self._const(args[1])
            if index is not None:
                if not 0 <= index < len(register.values):
                    raise _GiveUp("constant register index out of range")
                state = self._cell(register, index)
                if value.kind == "a":
                    if value.cell != (register.name, index):
                        raise _GiveUp("cross-cell affine write")
                    state.mode = "a"
                    state.delta = value.delta
                else:
                    if state.has_reads:
                        raise _GiveUp("overwrite after read")
                    state.mode = "o"
                    state.over = value
                return
            states = self.dyns.get(register.name)
            if states:
                # The register was gathered earlier in this body: the
                # write must hit the *same* per-lane slots to lower as
                # a segmented RMW/overwrite.
                self._use_register(register.name, "dyn")
                if len(states) > 1:
                    raise _GiveUp("write across multiple gather sites")
                idx_val = self._value(args[1])
                if idx_val is not states[0].idx_val:
                    raise _GiveUp("gather/write index mismatch")
                states[0].write(value)
                return
            self._use_register(register.name, "scatter")
            for existing, _i, _v in self.scatters:
                if existing is register:
                    raise _GiveUp("double scatter on one register")
            if value.kind == "a":
                cell_reg = self.cells[value.cell].register
                if register.mask & cell_reg.mask != register.mask:
                    raise _GiveUp("widening affine scatter")
            elif value.kind == "g":
                if (register.mask & value.cell.register.mask
                        != register.mask):
                    raise _GiveUp("widening affine scatter")
            idx_val = self._value(args[1])
            if idx_val.kind in ("a", "g"):
                raise _GiveUp("affine scatter index")
            self.scatters.append((register, idx_val, value))
            return
        if name == "count":
            counter = self.asic.get_counter(args[0])
            by_bytes = counter.counter_type == "bytes"
            index = self._const(args[1])
            if index is not None:
                if not 0 <= index < len(counter.array.values):
                    raise _GiveUp("constant counter index out of range")
                self.counts.append((counter.array, index, by_bytes))
                return
            idx_val = self._value(args[1])
            if idx_val.kind == "a":
                raise _GiveUp("affine counter index")
            self.counts.append((counter.array, idx_val, by_bytes))
            return
        if name == "modify_field_with_hash_based_offset":
            self._hash(args)
            return
        # RNG and anything unrecognized keep scalar semantics.
        raise _GiveUp(f"non-vectorizable primitive {name}")

    def _hash(self, args) -> None:
        """``modify_field_with_hash_based_offset(dst, base, calc,
        size)``: hash the calculation's field-list columns with the
        cached batch variant of the algorithm, mirroring
        :meth:`repro.switch.compiled._Emitter.hash` (same width derivation,
        same truncate-then-modulus order)."""
        program = self.asic.program
        calc = program.field_list_calcs.get(args[2])
        if calc is None:
            raise _GiveUp(f"unknown field_list_calculation {args[2]!r}")
        base = self._value(args[1])
        size = self._const(args[3])
        if size is None:
            raise _GiveUp("packet-dependent hash modulus")
        inputs: List[_Val] = []
        widths: List[int] = []
        for list_name in calc.inputs:
            field_list = program.field_lists.get(list_name)
            if field_list is None:
                raise _GiveUp(f"unknown field_list {list_name!r}")
            for ref in field_list.entries:
                if not isinstance(ref, ast.FieldRef):
                    raise _GiveUp("non-field hash input")
                field_key = f"{ref.header}.{ref.field}"
                width_mask = self.asic.field_masks.get(
                    field_key, (1 << 32) - 1
                )
                value = self._read_field(field_key)
                if value.kind == "a":
                    raise _GiveUp("affine hash input")
                if value.kind == "g":
                    value.cell.escaped = True
                inputs.append(value)
                widths.append(width_mask.bit_length())
        hash_fn = vector_hash_fn(calc.algorithm, tuple(widths))
        if hash_fn is None:
            raise _GiveUp(f"non-vectorizable hash {calc.algorithm!r}")
        out_mask = (1 << calc.output_width) - 1
        bits = (
            max(1, (size - 1).bit_length()) if size else calc.output_width
        )

        def fn(ctx, _inputs=tuple(inputs), _fn=hash_fn, _m=out_mask,
               _size=size):
            n = ctx["n"]
            columns = []
            for val in _inputs:
                column = _resolve(val, ctx)
                if not isinstance(column, np.ndarray):
                    column = np.full(n, column, np.int64)
                columns.append(column)
            hashed = _fn(columns) & _m
            return hashed % _size if _size else hashed

        self._store_field(args[0], _vadd(_vv(fn, bits), base))


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
                for pos in np.unique(matched_pos):
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

    def run(self, st: "_SweepState", sel=None) -> None:
        batch = st.batch
        idx, count = st.live(sel)
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
                commit = program.prepare(
                    batch, g_idx, g_count,
                    st.sizes if g_idx is None else st.sizes[g_idx],
                )
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


class _CondSweep:
    """A control-level ``if``/``else``: evaluate the condition over
    the live lanes once (it is a pure function of per-lane fields, so
    evaluation order relative to the arms is unobservable) and run
    each arm's sweeps restricted to its lane subset.  Running every
    then-lane before any else-lane is sound for the same reason
    table-major sweeps are: all reachable tables have pairwise
    disjoint cross-packet footprints."""

    def __init__(self, cond_fn, then_sweeps, else_sweeps):
        self.cond_fn = cond_fn
        self.then_sweeps = then_sweeps
        self.else_sweeps = else_sweeps

    def run(self, st: "_SweepState", sel=None) -> None:
        idx, count = st.live(sel)
        if count == 0:
            return
        truth = self.cond_fn(st.batch, idx)
        n = st.batch.n
        if self.then_sweeps:
            then_mask = np.zeros(n, bool)
            if idx is None:
                then_mask[:] = truth
            else:
                then_mask[idx] = truth
            if then_mask.any():
                for sweep in self.then_sweeps:
                    sweep.run(st, then_mask)
        if self.else_sweeps:
            else_mask = np.zeros(n, bool)
            if idx is None:
                else_mask[:] = ~truth
            else:
                else_mask[idx] = ~truth
            if else_mask.any():
                for sweep in self.else_sweeps:
                    sweep.run(st, else_mask)


class _SweepState:
    """Per-batch bookkeeping shared by the sweeps: live-lane
    recomputation and fallback accounting."""

    __slots__ = ("batch", "sizes", "fallback", "reasons")

    def __init__(self, batch: ColumnarBatch, reasons: Dict[str, int]):
        self.batch = batch
        self.sizes = batch.sizes
        self.fallback = np.zeros(batch.n, bool)
        self.reasons = reasons

    def live(self, sel=None):
        drop = self.batch.col(_DROP)
        if sel is None:
            if not drop.any():
                return None, self.batch.n
            live = np.nonzero(drop == 0)[0]
            return live, len(live)
        live = np.nonzero(sel & (drop == 0))[0]
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

    def _plan(self, decl, downstream=None) -> Optional[List[object]]:
        """Sweeps for one control block, or ``None`` when its bursts
        must run lane by lane.

        Sweeping table k over every lane before table k+1 sees any (and
        every then-lane before any else-lane) is observably identical
        to per-packet execution iff each table footprint is disjoint
        from every other.  ``downstream`` is the list of tables that
        run per packet *after* this control's sweeps (ingress passes
        every egress table), folded in as one combined footprint.  An
        absent control is an empty plan."""
        try:
            sweeps, runtimes = self._lower_control(
                [] if decl is None else decl.body
            )
        except _GiveUp:
            return None
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
        return sweeps

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

    def _lower_control(self, body, nested=False):
        """Lower a statement list to sweeps, collecting every
        reachable table runtime; :class:`_GiveUp` on non-exact tables,
        nested conditionals, or non-vectorizable conditions."""
        sweeps: List[object] = []
        runtimes = []
        for stmt in body:
            if isinstance(stmt, ast.ApplyCall):
                runtime = self.asic.tables.get(stmt.table)
                if runtime is None or not runtime._exact_only:
                    raise _GiveUp("non-exact table")
                runtimes.append(runtime)
                sweeps.append(_TableSweep(self, runtime))
            elif isinstance(stmt, ast.IfBlock) and not nested:
                cond_fn = self._compile_vec_cond(stmt.cond)
                if cond_fn is None:
                    raise _GiveUp("non-vectorizable condition")
                then_sweeps, then_rts = self._lower_control(
                    stmt.then_body, nested=True
                )
                else_sweeps, else_rts = self._lower_control(
                    stmt.else_body or [], nested=True
                )
                runtimes += then_rts + else_rts
                sweeps.append(
                    _CondSweep(cond_fn, then_sweeps, else_sweeps)
                )
            else:
                raise _GiveUp("unsupported control statement")
        return sweeps, runtimes

    def _compile_vec_cond(self, expr):
        """Lower a control-flow condition to ``fn(batch, idx) -> bool
        array`` with the interpreter's exact semantics (comparisons
        and connectives produce 0/1, arithmetic is unbounded -- so
        int64 headroom is tracked like the action compiler does), or
        ``None`` outside the vectorizable subset.  Malleable refs
        raise at run time in the scalar engines, so they stay scalar
        here too."""
        try:
            value, _bits = self._vec_cond_value(expr)
        except _GiveUp:
            return None

        def fn(batch, idx, _v=value):
            out = _v(batch, idx) if callable(_v) else _v
            if isinstance(out, np.ndarray):
                return out != 0
            n = batch.n if idx is None else len(idx)
            return np.full(n, bool(out))

        return fn

    def _vec_cond_value(self, expr):
        """``(fn(batch, idx) -> ndarray | int, bits)`` for one
        condition operand."""
        if isinstance(expr, int):
            return expr, max(1, expr.bit_length())
        if isinstance(expr, ast.FieldRef):
            key = f"{expr.header}.{expr.field}"
            mask = self.asic.field_masks.get(key)
            if mask is None:
                raise _GiveUp(f"unknown field width for {key}")

            def field_fn(batch, idx, _k=key):
                col = batch.col(_k)
                return col if idx is None else col[idx]

            return field_fn, mask.bit_length()
        if isinstance(expr, ast.ValidRef):

            def valid_fn(batch, idx, _h=expr.header):
                col = batch.valid_col(_h)
                return col if idx is None else col[idx]

            return valid_fn, 1
        if isinstance(expr, ast.BinOp):
            return self._vec_cond_binop(expr)
        raise _GiveUp(f"non-vectorizable condition operand {expr!r}")

    def _vec_cond_binop(self, expr):
        op = expr.op
        left, lbits = self._vec_cond_value(expr.left)
        right, rbits = self._vec_cond_value(expr.right)
        if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            bits = 1
        elif op in ("+", "-"):
            bits = max(lbits, rbits) + 1
        elif op in ("&", "|", "^"):
            bits = max(lbits, rbits) + (1 if op == "^" else 0)
        elif op == "<<":
            if not isinstance(right, int) or right < 0:
                raise _GiveUp("dynamic shift in condition")
            bits = lbits + right
        elif op == ">>":
            bits = lbits
        else:
            raise _GiveUp(f"unknown condition operator {op!r}")
        if bits > _MAX_BITS:
            raise _GiveUp("int64 headroom in condition")

        def fn(batch, idx, _l=left, _r=right, _op=op):
            lv = _l(batch, idx) if callable(_l) else _l
            rv = _r(batch, idx) if callable(_r) else _r
            if _op == "==":
                return (lv == rv).astype(np.int64)
            if _op == "!=":
                return (lv != rv).astype(np.int64)
            if _op == "<":
                return (lv < rv).astype(np.int64)
            if _op == "<=":
                return (lv <= rv).astype(np.int64)
            if _op == ">":
                return (lv > rv).astype(np.int64)
            if _op == ">=":
                return (lv >= rv).astype(np.int64)
            if _op == "&&":
                return ((lv != 0) & (rv != 0)).astype(np.int64)
            if _op == "||":
                return ((lv != 0) | (rv != 0)).astype(np.int64)
            if _op == "+":
                return lv + rv
            if _op == "-":
                return lv - rv
            if _op == "&":
                return lv & rv
            if _op == "|":
                return lv | rv
            if _op == "^":
                return lv ^ rv
            if _op == "<<":
                return lv << rv
            return lv >> rv

        return fn, bits

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
            program: Optional[_VecProgram] = _VecProgram([], {}, [], [])
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
