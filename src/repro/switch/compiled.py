"""Compile-to-source fast path for the packet pipeline.

:class:`CompiledPipeline` lowers a loaded program once, at
construction time, into **one generated Python function per control
block** (source text -> ``compile`` -> ``exec``).  Everything the
program fixes is baked into that source:

- key extraction, the exact-index probe, hit/miss accounting and the
  drop check between statements are straight-line code, not a tree of
  per-statement closures;
- ``if``/``else`` conditions are flat expressions;
- every action a table declares is inlined behind an
  ``if name == ...`` chain, reading its parameters from the matched
  entry's live ``action_args`` list;
- ``"instance.field"`` keys, field-width masks, register sizes and the
  byte layout of hash inputs are constants in the source, and
  ``crc16`` hashes run table-driven over that layout.

What is *not* baked in: table entries, default actions, and register
contents.  The generated code reads them per packet from the stable
containers (``TableRuntime._exact_index``, ``RegisterArray.values``),
so the Mantis agent's shadow-flip writes (add/modify/delete/
set_default) take effect on the very next lookup with no
recompilation or invalidation protocol.

One emitter serves every flavour: the per-packet controls, their
profiled (counter-incrementing) and stepped (generator) variants,
per-table applies, and the constant-folded ``(action, args)`` runners
the columnar engine drains single lanes through.  The emitter is total
over the interpreter's primitive set; what it cannot render (a
non-field destination, an unbound parameter, an unknown primitive)
becomes a ``raise`` at the point the interpreter would raise, never a
load-time failure or a whole-program veto.  Compiled code objects are
cached by source text, so a fleet of identical switches compiles each
function once.

A burst on this engine is no special case: ``SwitchAsic.process_batch``
runs the bound control functions lane by lane.  Only
:class:`~repro.switch.columnar.ColumnarPipeline` has a burst shape of
its own (numpy struct-of-arrays sweeps); it builds on this engine for
its scalar fallbacks -- the per-table applies for whole-table
fallbacks, the fused runners for per-lane drains, and the controls for
everything its admission rejects.

The tree-walking :class:`~repro.switch.pipeline.PipelineExecutor`
remains the reference semantics; :func:`run_differential` replays one
workload through both engines and asserts identical packet and ASIC
state, and the tests in ``tests/switch/test_compiled.py`` keep the two
in lockstep.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import SwitchError
from repro.p4 import ast
from repro.switch.hashing import CRC16_TABLE, _byte_layout, compute_hash
from repro.switch.packet import Packet

_DROP = "standard_metadata.drop_flag"

# A generated action: (action_args, packet) -> None.
StepFn = Callable[[List[int], Packet], None]
# A generated control block or table apply: (packet) -> None.
OpFn = Callable[[Packet], None]

# A rendered operand: a compile-time integer or a source expression.
Operand = Union[int, str]

# Condition operators with the interpreter's exact semantics:
# comparisons and connectives produce 0/1 (both sides always
# evaluated), arithmetic is unbounded (width masking happens at field
# writes, not inside expressions).
_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
_CONNECTIVES = {"&&": "&", "||": "|"}
_INT_OPS = ("+", "-", "&", "|", "^", "<<", ">>")

_ARITH_EXPRS: Dict[str, str] = {
    "add": "{l} + {r}",
    "subtract": "{l} - {r}",
    "bit_and": "{l} & {r}",
    "bit_or": "{l} | {r}",
    "bit_xor": "{l} ^ {r}",
    "shift_left": "{l} << {r}",
    "shift_right": "{l} >> {r}",
    "min": "min({l}, {r})",
    "max": "max({l}, {r})",
}

_FLAG_KEYS = {
    "recirculate": "standard_metadata.recirculate_flag",
    "clone_ingress_pkt_to_egress": "standard_metadata.clone_flag",
    "mark_ecn": "standard_metadata.ecn_marked",
}


class PipelineProfile:
    """Hot-loop counters for one compiled pipeline.

    The emulator runs on pre-parsed packets, so the classic
    parse/match/action phases map onto what the engine actually
    executes: control-block runs (per-pass framing), table applies
    (match), and action executions (action).  Counting costs one dict
    increment per event, so profiles are opt-in via
    ``SwitchAsic.enable_profiling``."""

    __slots__ = ("control_runs", "table_applies", "action_runs")

    def __init__(self):
        self.control_runs: Dict[str, int] = {}
        self.table_applies: Dict[str, int] = {}
        self.action_runs: Dict[str, int] = {}

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {
            "control_runs": dict(self.control_runs),
            "table_applies": dict(self.table_applies),
            "action_runs": dict(self.action_runs),
        }


def _tables_in(statements) -> Iterator[str]:
    """All table names applied anywhere in a statement list (recursing
    through conditionals)."""
    for stmt in statements:
        if isinstance(stmt, ast.ApplyCall):
            yield stmt.table
        elif isinstance(stmt, ast.IfBlock):
            yield from _tables_in(stmt.then_body)
            yield from _tables_in(stmt.else_body)


# ---- generated-source plumbing ---------------------------------------------


def _raise(message: str) -> int:
    """Raise from expression position: semantic errors the interpreter
    only reports at run time must not become load-time failures."""
    raise SwitchError(message)


def _arity_error(name: str, n_params: int, args) -> SwitchError:
    return SwitchError(
        f"action {name}: expected {n_params} args, got {len(args)}"
    )


@lru_cache(maxsize=512)
def _code_for(source: str, label: str):
    """Compiled module code for one generated function, shared by every
    pipeline that emits the same text (code objects hold no live
    state; each pipeline execs them into its own namespace)."""
    return compile(source, label, "exec")


# Names every generated function may use; per-function live objects
# (tables, register lists, the RNG) are added by _Emitter.bind.
_BASE_ENV: Dict[str, object] = {
    "__builtins__": {},
    "__name__": __name__,
    "len": len,
    "min": min,
    "max": max,
    "_raise": _raise,
    "_arity_error": _arity_error,
    "_compute_hash": compute_hash,
    "_CRC16": CRC16_TABLE,
}


def _raising(message: str) -> str:
    """Source of an expression that raises ``message`` when reached."""
    return f"_raise({message!r})"


def _lit(value: Operand) -> str:
    """Source text of an operand (negative constants parenthesized so
    they compose under any operator)."""
    if isinstance(value, int) and value < 0:
        return f"({value})"
    return str(value)


class _Emitter:
    """One generated function under construction: indented source
    lines, the live objects they reference by name, and the lowering
    of every statement, expression and primitive into those lines.

    Inside the generated code ``p`` is the packet, ``f`` its field
    dict, ``n``/``a`` the action name and live argument list the last
    apply resolved; ``_``-prefixed names are scratch temporaries."""

    def __init__(self, pipeline: "CompiledPipeline", header: str):
        self.asic = pipeline.asic
        self.rng = pipeline.rng
        self.profile = pipeline.profile
        self.run_action = pipeline._run_action
        self.lines = [header]
        self.depth = 1
        self.env: Dict[str, object] = {}
        self._names: Dict[int, str] = {}
        # Per action body: how each parameter renders, and the field
        # keys the body has stored so far (reads of those index the
        # dict directly instead of defaulting).
        self.params: Dict[str, Operand] = {}
        self.present: set = set()

    # ---- source plumbing ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    @contextmanager
    def block(self, opener: str):
        self.emit(opener)
        self.depth += 1
        mark = len(self.lines)
        yield
        if len(self.lines) == mark:
            self.emit("pass")
        self.depth -= 1

    def bind(self, obj: object) -> str:
        """A stable name for a live object.  Names are numbered in
        first-use order, so identical programs emit identical text."""
        name = self._names.get(id(obj))
        if name is None:
            name = self._names[id(obj)] = f"_o{len(self._names)}"
            self.env[name] = obj
        return name

    def count(self, counts: Dict[str, int], name: str) -> None:
        self.emit(f"{self.bind(counts)}[{name!r}] += 1")

    def function(self, label: str):
        if len(self.lines) == 1:
            self.emit("pass")
        namespace = dict(_BASE_ENV)
        namespace.update(self.env)
        exec(  # noqa: S102 - source assembled from parsed P4 only
            _code_for("\n".join(self.lines) + "\n", label), namespace
        )
        return namespace["_fn"]

    # ---- statements --------------------------------------------------------

    def statements(
        self, body: List[ast.Statement], stepped: bool = False,
        checked: bool = False,
    ) -> None:
        """Statements in order, with the drop check before each one.
        Once the flag is up nothing further runs at any nesting level,
        so a plain ``return`` is the interpreter's per-level early exit;
        ``checked`` elides the check right after a condition (which
        cannot change fields)."""
        for stmt in body:
            if not checked:
                self.emit(f"if f[{_DROP!r}]: return")
            checked = False
            if isinstance(stmt, ast.ApplyCall):
                if stepped:
                    self.emit(f"yield ('apply', {stmt.table!r})")
                self.apply(stmt.table)
            elif isinstance(stmt, ast.IfBlock):
                with self.block(f"if {self.expr(stmt.cond)}:"):
                    self.statements(stmt.then_body, stepped, True)
                if stmt.else_body:
                    with self.block("else:"):
                        self.statements(stmt.else_body, stepped, True)
            else:  # pragma: no cover - parser emits only the kinds above
                raise SwitchError(f"unknown statement {stmt!r}")

    def apply(self, table_name: str) -> None:
        """Match one table and run the resolved action inline."""
        runtime = self.asic.tables.get(table_name)
        if runtime is None:
            raise SwitchError(f"unknown table {table_name!r}")
        if self.profile is not None:
            self.count(self.profile.table_applies, table_name)
        table = self.bind(runtime)
        key = self.key(runtime.decl.reads)
        if runtime._exact_only:
            # Probe the hash index directly.  The dict object is stable
            # (TableRuntime mutates it in place, never rebinds it), so
            # entry adds/deletes stay live; hit/miss accounting and the
            # (rebindable) default action go through the runtime.
            self.emit(f"e = {self.bind(runtime._exact_index)}.get({key})")
            with self.block("if e is not None:"):
                self.emit(f"{table}.hits += 1")
                self.emit("n = e.action_name")
                self.emit("a = e.action_args")
            with self.block("else:"):
                self.emit(f"{table}.misses += 1")
                self.emit(f"r = {table}.default_action")
                self.emit("if r is None: n = None")
                self.emit("else: n, a = r")
        else:
            # lookup_key owns ternary/lpm/range matching and counts.
            self.emit(f"r = {table}.lookup_key({key})")
            self.emit("if r is None: n = None")
            self.emit("else: n, a = r")
        decl = runtime.decl
        names = list(decl.action_names)
        if decl.default_action and decl.default_action[0] not in names:
            names.append(decl.default_action[0])
        actions = self.asic.program.actions
        opener = "if"
        for name in names:
            if name in actions:
                with self.block(f"{opener} n == {name!r}:"):
                    self.action(actions[name])
                opener = "elif"
        # Anything else the control plane managed to install: the
        # generic path reports unknown actions like the interpreter.
        with self.block(f"{opener} n is not None:"):
            self.emit(f"{self.bind(self.run_action)}(n, a, p)")

    def key(self, reads: List[ast.TableRead]) -> str:
        """A table's lookup key as a tuple display."""
        parts = []
        for read in reads:
            if read.match_type is ast.MatchType.VALID:
                parts.append(f"{read.ref.header!r} in p.valid_headers")
            elif read.mask is None:
                parts.append(self.field(read.ref))
            else:
                parts.append(f"{self.field(read.ref)} & {read.mask}")
        return "(" + "".join(f"{part}, " for part in parts) + ")"

    # ---- expressions ---------------------------------------------------------

    def field(self, ref: ast.FieldRef) -> str:
        """Unset fields read as 0 (bmv2 uninitialized metadata).
        Intrinsic metadata is always set (every :class:`Packet` is
        built with it), as is whatever the current body stored."""
        key = f"{ref.header}.{ref.field}"
        if ref.header == "standard_metadata" or key in self.present:
            return f"f[{key!r}]"
        return f"f.get({key!r}, 0)"

    def expr(self, expr) -> str:
        """An ``if`` condition operand as an int-valued expression."""
        if isinstance(expr, int):
            return _lit(expr)
        if isinstance(expr, ast.FieldRef):
            return self.field(expr)
        if isinstance(expr, ast.ValidRef):
            return f"(1 if {expr.header!r} in p.valid_headers else 0)"
        if isinstance(expr, ast.BinOp):
            left = self.expr(expr.left)
            right = self.expr(expr.right)
            op = expr.op
            if op in _COMPARISONS:
                return f"(1 if {left} {op} {right} else 0)"
            if op in _CONNECTIVES:
                return (
                    f"(1 if ({left} != 0) {_CONNECTIVES[op]} "
                    f"({right} != 0) else 0)"
                )
            if op in _INT_OPS:
                return f"({left} {op} {right})"
            return _raising(f"unknown condition operator {op!r}")
        return _raising(f"cannot evaluate expression {expr!r}")

    def value(self, arg) -> Operand:
        """A primitive argument: an ``int`` when known at emit time,
        else a source expression over ``p``/``f``/``a``."""
        if isinstance(arg, int):
            return arg
        if isinstance(arg, ast.FieldRef):
            return self.field(arg)
        if isinstance(arg, str):
            if arg in self.params:
                return self.params[arg]
            return _raising(f"unresolved action parameter {arg!r}")
        return _raising(f"cannot resolve primitive argument {arg!r}")

    def dst(self, arg) -> Optional[Tuple[str, Optional[int]]]:
        """Pre-resolve a destination field to ``(key, width_mask)``.
        Anything but a field reference emits the interpreter's error
        and returns ``None``: the caller has nothing left to emit."""
        if not isinstance(arg, ast.FieldRef):
            self.emit(_raising(
                f"primitive destination must be a field, got {arg!r}"
            ))
            return None
        key = f"{arg.header}.{arg.field}"
        return key, self.asic.field_masks.get(key)

    def store(self, dst: Tuple[str, Optional[int]], value: Operand,
              within: int = -1) -> None:
        """``dst = value`` under the destination's width mask.
        ``within`` is a mask the value is known to fit already."""
        key, mask = dst
        if mask is not None and within & ~mask:
            value = (
                value & mask if isinstance(value, int)
                else f"({value}) & {mask}"
            )
        self.emit(f"f[{key!r}] = {_lit(value)}")
        self.present.add(key)

    # ---- actions -----------------------------------------------------------

    def action(
        self, decl: ast.ActionDecl, args: Optional[tuple] = None
    ) -> None:
        """One action body.  With ``args`` every parameter folds to a
        constant (the fused runners; the caller checked the arity);
        without, parameters read the live list ``a``."""
        if args is not None:
            self.params = dict(zip(decl.params, args))
        else:
            if self.profile is not None:
                self.count(self.profile.action_runs, decl.name)
            n_params = len(decl.params)
            mismatch = f"len(a) != {n_params}" if n_params else "a"
            self.emit(
                f"if {mismatch}: "
                f"raise _arity_error({decl.name!r}, {n_params}, a)"
            )
            self.params = {
                name: f"a[{position}]"
                for position, name in enumerate(decl.params)
            }
        self.present = set()
        for call in decl.body:
            self.call(call)
        self.present = set()

    def call(self, call: ast.PrimitiveCall) -> None:
        """Source lines for one primitive call, statement for statement
        what ``PipelineExecutor._run_primitive`` does."""
        name = call.name
        args = call.args
        asic = self.asic

        if name == "no_op":
            return
        if name == "drop":
            self.store((_DROP, None), 1)
            return
        if name in _FLAG_KEYS:
            self.store((_FLAG_KEYS[name], None), 1)
            return

        if name == "modify_field":
            dst = self.dst(args[0])
            if dst is None:
                return
            value = self.value(args[1])
            if len(args) > 2:
                # Masked form: only the masked bits are written.
                mask = _lit(self.value(args[2]))
                value = (
                    f"({self.field(args[0])} & ~{mask}) | "
                    f"({_lit(value)} & {mask})"
                )
            self.store(dst, value)
            return

        if name in _ARITH_EXPRS:
            dst = self.dst(args[0])
            if dst is not None:
                value = _ARITH_EXPRS[name].format(
                    l=_lit(self.value(args[1])), r=_lit(self.value(args[2]))
                )
                self.store(dst, value)
            return

        if name in ("add_to_field", "subtract_from_field"):
            dst = self.dst(args[0])
            if dst is not None:
                sign = "+" if name == "add_to_field" else "-"
                self.store(
                    dst,
                    f"{self.field(args[0])} {sign} "
                    f"{_lit(self.value(args[1]))}",
                )
            return

        if name == "register_write":
            register = asic.get_register(args[0])
            # The values list is a stable object (RegisterArray only
            # mutates it in place), so indexing it directly skips the
            # read/write method dispatch on every packet.
            values = self.bind(register.values)
            size = len(register.values)
            index = self.value(args[1])
            value = _lit(self.value(args[2]))
            if isinstance(index, int) and 0 <= index < size:
                self.emit(f"{values}[{index}] = {value} & {register.mask}")
                return
            self.emit(f"_i = {index}")
            self.emit(f"_v = {value}")
            self.emit(
                f"if 0 <= _i < {size}: {values}[_i] = _v & {register.mask}"
            )
            # Out of range: the method raises the range error.
            self.emit(f"else: {self.bind(register)}.write(_i, _v)")
            return

        if name == "register_read":
            dst = self.dst(args[0])
            if dst is None:
                return
            register = asic.get_register(args[1])
            values = self.bind(register.values)
            size = len(register.values)
            index = self.value(args[2])
            if isinstance(index, int) and 0 <= index < size:
                value = f"{values}[{index}]"
            else:
                self.emit(f"_i = {index}")
                value = (
                    f"{values}[_i] if 0 <= _i < {size} "
                    f"else {self.bind(register)}.read(_i)"
                )
            self.store(dst, value, within=register.mask)
            return

        if name == "count":
            counter = asic.get_counter(args[0])
            array = counter.array
            values = self.bind(array.values)
            size = len(array.values)
            amount = "p.size_bytes" if counter.counter_type == "bytes" else "1"
            index = self.value(args[1])
            if isinstance(index, int) and 0 <= index < size:
                self.emit(
                    f"{values}[{index}] = "
                    f"({values}[{index}] + {amount}) & {array.mask}"
                )
                return
            self.emit(f"_i = {index}")
            self.emit(
                f"if 0 <= _i < {size}: {values}[_i] = "
                f"({values}[_i] + {amount}) & {array.mask}"
            )
            self.emit(f"else: {self.bind(array)}.increment(_i, {amount})")
            return

        if name == "modify_field_with_hash_based_offset":
            self.hash(call)
            return

        if name == "modify_field_rng_uniform":
            dst = self.dst(args[0])
            if dst is not None:
                self.store(
                    dst,
                    f"{self.bind(self.rng)}.randint("
                    f"{self.value(args[1])}, {self.value(args[2])})",
                )
            return

        self.emit(_raising(f"unsupported primitive action {name!r}"))

    def hash(self, call: ast.PrimitiveCall) -> None:
        """``dst = base + hash(field list) % size``.  The field list's
        widths fix the serialized byte layout, so ``crc16`` (the P4-14
        default) unrolls into one table step per byte; other
        algorithms call :func:`compute_hash` on the same inputs."""
        program = self.asic.program
        dst = self.dst(call.args[0])
        if dst is None:
            return
        base = self.value(call.args[1])
        size = self.value(call.args[3])
        calc = program.field_list_calcs.get(call.args[2])
        if calc is None:
            self.emit(_raising(
                f"unknown field_list_calculation {call.args[2]!r}"
            ))
            return
        inputs: List[Tuple[str, int]] = []  # (source expression, bits)
        for list_name in calc.inputs:
            for ref in program.field_lists[list_name].entries:
                if not isinstance(ref, ast.FieldRef):
                    self.emit(_raising(
                        f"cannot hash non-field reference {ref!r}"
                    ))
                    return
                width_mask = self.asic.field_masks.get(
                    f"{ref.header}.{ref.field}", (1 << 32) - 1
                )
                inputs.append((self.field(ref), width_mask.bit_length()))
        out_mask = (1 << calc.output_width) - 1
        if calc.algorithm == "crc16" and inputs:
            for position, (source, _bits) in enumerate(inputs):
                self.emit(f"_v{position} = {source}")
            first = True
            for position, shift in _byte_layout([b for _s, b in inputs]):
                # The top byte of a field keeps only its declared bits.
                keep = min(0xFF, (1 << (inputs[position][1] - shift)) - 1)
                byte = f"((_v{position} >> {shift}) & {keep})"
                if first:  # one step from the 0xFFFF preset, folded
                    self.emit(f"_c = 0xFF00 ^ _CRC16[0xFF ^ {byte}]")
                    first = False
                else:
                    self.emit(
                        f"_c = ((_c << 8) & 0xFF00) ^ "
                        f"_CRC16[(_c >> 8) ^ {byte}]"
                    )
            hashed = "_c" if out_mask & 0xFFFF == 0xFFFF else f"(_c & {out_mask})"
        else:
            pairs = "".join(f"({source}, {bits}), " for source, bits in inputs)
            hashed = (
                f"_compute_hash({calc.algorithm!r}, [{pairs}], "
                f"{calc.output_width})"
            )
        if isinstance(size, int):
            offset = f"{hashed} % {_lit(size)}" if size else hashed
        else:
            self.emit(f"_h = {hashed}")
            self.emit(f"_m = {size}")
            offset = "(_h % _m if _m else _h)"
        if base != 0:
            offset = f"{_lit(base)} + {offset}"
        self.store(dst, offset)


class CompiledPipeline:
    """The compiled execution engine for one ASIC's program.

    API-compatible with :class:`~repro.switch.pipeline.PipelineExecutor`
    (``run_control`` / ``bound_control`` / ``iter_control`` /
    ``apply_table`` / ``run_action``), so
    :class:`~repro.switch.asic.SwitchAsic` can select either engine
    behind one attribute.
    """

    def __init__(
        self,
        asic,
        rng: Optional[random.Random] = None,
        profile: Optional[PipelineProfile] = None,
    ):
        self.asic = asic
        self.rng = rng if rng is not None else random.Random(0)
        self.profile = profile
        program = asic.program
        if profile is not None:
            profile.control_runs.update(dict.fromkeys(program.controls, 0))
            profile.table_applies.update(dict.fromkeys(asic.tables, 0))
            profile.action_runs.update(dict.fromkeys(program.actions, 0))
        # One bound-method object, so generated code that falls back to
        # it binds a single name.
        self._run_action = self.run_action
        # Per-action and per-table functions are generated on first
        # use: the controls inline what they need, so only the columnar
        # fallbacks, non-exact lookups and the public API ask for them.
        self._actions: Dict[str, StepFn] = {}
        self._applies: Dict[str, OpFn] = {}
        self._stepped: Dict[str, Callable] = {}
        self._controls: Dict[str, OpFn] = {
            name: self._build_control(name, decl.body)
            for name, decl in program.controls.items()
        }
        # Fused (action, args) specializations.  Keyed by resolved
        # action name + concrete argument tuple; safe to keep across
        # bursts because the generated code depends only on the action
        # declaration and stable asic containers (register/counter
        # value lists), never on table entries.
        self._fused_runners: Dict[Tuple[Optional[str], tuple], Callable] = {}

    # ---- control blocks ---------------------------------------------------

    def run_control(self, control_name: str, packet: Packet) -> None:
        """Run a control block to completion on one packet."""
        run = self._controls.get(control_name)
        if run is not None:
            run(packet)

    def bound_control(self, control_name: str) -> Optional[OpFn]:
        """The generated function for one control block, or ``None`` if
        the program does not define it.  The ASIC binds these once per
        executor, so the per-packet path is one call per control."""
        return self._controls.get(control_name)

    def iter_control(
        self, control_name: str, packet: Packet
    ) -> Iterator[Tuple[str, str]]:
        """Stepped execution with the interpreter's contract: yields
        ``("apply", table)`` *before* each table application so callers
        can interleave control-plane operations mid-pipeline."""
        stepped = self._stepped.get(control_name)
        if stepped is None:
            decl = self.asic.program.controls.get(control_name)
            if decl is None:
                return
            stepped = self._stepped[control_name] = self._build_control(
                control_name, decl.body, stepped=True
            )
        yield from stepped(packet)

    def apply_table(self, table_name: str, packet: Packet) -> None:
        self._apply_fn(table_name)(packet)

    def run_action(
        self, action_name: str, action_args: List[int], packet: Packet
    ) -> None:
        action = self._actions.get(action_name)
        if action is None:
            decl = self.asic.program.actions.get(action_name)
            if decl is None:
                raise SwitchError(f"unknown action {action_name!r}")
            out = _Emitter(self, "def _fn(a, p):")
            out.emit("f = p.fields")
            out.action(decl)
            action = self._actions[action_name] = out.function(
                f"<p4 action {action_name}>"
            )
        action(action_args, packet)

    def _apply_fn(self, table_name: str) -> OpFn:
        """One table's apply as a standalone function (the controls
        inline theirs; ``apply_table`` and the columnar engine's
        whole-table fallback call this)."""
        apply = self._applies.get(table_name)
        if apply is None:
            out = _Emitter(self, "def _fn(p):")
            out.emit("f = p.fields")
            out.apply(table_name)
            apply = self._applies[table_name] = out.function(
                f"<p4 apply {table_name}>"
            )
        return apply

    def _build_control(
        self, name: str, statements: List[ast.Statement],
        stepped: bool = False,
    ):
        """Generate one control block: ``fn(packet)``, or with
        ``stepped`` a generator function yielding before each apply."""
        out = _Emitter(self, "def _fn(p):")
        out.emit("f = p.fields")
        if self.profile is not None:
            out.count(self.profile.control_runs, name)
        out.statements(statements, stepped)
        if stepped:
            # Unreachable, but makes a control without applies a
            # generator function too.
            out.emit("return")
            out.emit("yield")
        return out.function(f"<p4 control {name}>")

    # ---- action fusion ----------------------------------------------------
    #
    # Once a columnar sweep has resolved a lane group to one
    # (action, args) pair, every action parameter is a known integer,
    # so the emitter renders the body with constants folded into the
    # source.  This is the reproduction's version of the paper's
    # precomputation argument (SS6): resolve once, then run
    # straight-line code.

    def _fuse_runner(self, action_name: Optional[str], args: tuple):
        """The per-packet runner ``fn(packet, fields)`` for one
        resolved action (``None``: run nothing).  Unknown actions and
        arity mismatches raise here, before the runner exists."""
        key = (action_name, args)
        fn = self._fused_runners.get(key)
        if fn is None:
            out = _Emitter(self, "def _fn(p, f):")
            if action_name is not None:
                decl = self.asic.program.actions.get(action_name)
                if decl is None:
                    raise SwitchError(f"unknown action {action_name!r}")
                if len(decl.params) != len(args):
                    raise _arity_error(action_name, len(decl.params), args)
                out.action(decl, args)
            fn = self._fused_runners[key] = out.function(
                f"<p4 fused {action_name}>"
            )
        return fn


# ---- differential testing hook --------------------------------------------


def asic_state_snapshot(asic) -> Dict[str, object]:
    """All cross-packet ASIC state, in a comparable form."""
    return {
        "registers": {
            name: list(reg.values) for name, reg in asic.registers.items()
        },
        "counters": {
            name: list(counter.array.values)
            for name, counter in asic.counters.items()
        },
        "tables": {
            name: {
                "hits": table.hits,
                "misses": table.misses,
                "default": table.default_action,
                "entries": {
                    entry_id: (
                        entry.key,
                        entry.action_name,
                        tuple(entry.action_args),
                        entry.priority,
                    )
                    for entry_id, entry in table.entries.items()
                },
            }
            for name, table in asic.tables.items()
        },
        "ports": [
            (port.tx_packets, port.tx_bytes) for port in asic.ports
        ],
        "packets_processed": asic.packets_processed,
        "packets_dropped": asic.packets_dropped,
        "pipeline_passes": asic.pipeline_passes,
    }


def packet_snapshot(packet: Packet) -> Dict[str, object]:
    """A packet's observable outcome, in a comparable form."""
    return {
        "fields": dict(packet.fields),
        "valid_headers": frozenset(packet.valid_headers),
        "dropped": packet.dropped,
    }


def run_differential(
    build: Callable[[str], "object"],
    drive: Callable[[object], object],
) -> object:
    """Replay one workload through both execution engines and assert
    identical behaviour.

    ``build(execution_mode)`` must return a fresh
    :class:`~repro.switch.asic.SwitchAsic` (or any object exposing the
    same registers/counters/tables/ports surface) configured for the
    given mode; ``drive(asic)`` runs the workload and returns the
    per-packet observables to compare (a list of
    :func:`packet_snapshot` results, say).  Raises
    :class:`~repro.errors.SwitchError` naming the first divergence;
    returns the compiled run's observables on agreement.
    """
    reference = build("interpreter")
    observed_ref = drive(reference)
    compiled = build("compiled")
    observed_fast = drive(compiled)
    if observed_ref != observed_fast:
        raise SwitchError(
            "differential mismatch in workload observables:\n"
            f"  interpreter: {observed_ref!r}\n"
            f"  compiled:    {observed_fast!r}"
        )
    state_ref = asic_state_snapshot(reference)
    state_fast = asic_state_snapshot(compiled)
    for section in state_ref:
        if state_ref[section] != state_fast[section]:
            raise SwitchError(
                f"differential mismatch in ASIC state ({section}):\n"
                f"  interpreter: {state_ref[section]!r}\n"
                f"  compiled:    {state_fast[section]!r}"
            )
    return observed_fast
