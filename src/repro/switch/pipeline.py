"""Interpreter for P4 actions and control blocks.

Executes the same AST the parser produced -- there is no separate IR,
so the emulator's semantics are exactly the language's semantics.  The
Mantis compiler output (generated init tables, measurement actions,
specialized actions) runs through this interpreter unchanged.

This tree-walker is the *reference* implementation: it favours a
direct correspondence with the AST over speed.  The production packet
path is :class:`repro.switch.compiled.CompiledPipeline`, which lowers
the same AST into one generated function per control block at load
time and must stay behaviourally identical to this class (enforced by
the differential tests in ``tests/switch/test_compiled.py``).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SwitchError
from repro.p4 import ast
from repro.switch.hashing import compute_hash
from repro.switch.packet import Packet


class PipelineExecutor:
    """Executes control blocks and actions against packets.

    The executor holds references to its owner ASIC's tables, registers
    and counters; it has no state of its own besides an RNG used by
    ``modify_field_rng_uniform``.  Pass ``rng`` to share one stream
    with another executor (the ASIC shares its RNG between this
    interpreter and the compiled fast path so the two stay in lockstep).
    """

    def __init__(self, asic, seed: int = 0, rng: Optional[random.Random] = None):
        self.asic = asic
        self.rng = rng if rng is not None else random.Random(seed)

    # ---- control blocks ---------------------------------------------------

    def run_control(self, control_name: str, packet: Packet) -> None:
        """Run a control block to completion on one packet."""
        for _ in self.iter_control(control_name, packet):
            pass

    def bound_control(self, control_name: str):
        """``packet -> None`` for one control block, or ``None`` if the
        program does not define it (the ASIC binds both controls once
        per executor)."""
        if control_name not in self.asic.program.controls:
            return None
        return lambda packet: self.run_control(control_name, packet)

    def iter_control(
        self, control_name: str, packet: Packet
    ) -> Iterator[Tuple[str, str]]:
        """Stepped execution: yields ``("apply", table)`` *before* each
        table application so callers can interleave control-plane
        operations mid-pipeline (used by isolation experiments)."""
        program = self.asic.program
        if control_name not in program.controls:
            return
        yield from self._iter_statements(
            program.controls[control_name].body, packet
        )

    def _iter_statements(
        self, statements: List[ast.Statement], packet: Packet
    ) -> Iterator[Tuple[str, str]]:
        for stmt in statements:
            if packet.dropped:
                return
            if isinstance(stmt, ast.ApplyCall):
                yield ("apply", stmt.table)
                self.apply_table(stmt.table, packet)
            elif isinstance(stmt, ast.IfBlock):
                if self._eval_cond(stmt.cond, packet):
                    yield from self._iter_statements(stmt.then_body, packet)
                else:
                    yield from self._iter_statements(stmt.else_body, packet)
            else:  # pragma: no cover - parser emits only the kinds above
                raise SwitchError(f"unknown statement {stmt!r}")

    def apply_table(self, table_name: str, packet: Packet) -> None:
        table = self.asic.tables[table_name]
        result = table.lookup(packet)
        if result is None:
            return
        action_name, action_args = result
        self.run_action(action_name, action_args, packet)

    def _eval_cond(self, cond: ast.Operand, packet: Packet) -> bool:
        return bool(self._eval_expr(cond, packet))

    def _eval_expr(self, expr, packet: Packet) -> int:
        if isinstance(expr, int):
            return expr
        if isinstance(expr, ast.FieldRef):
            return packet.get(f"{expr.header}.{expr.field}")
        if isinstance(expr, ast.ValidRef):
            return 1 if expr.header in packet.valid_headers else 0
        if isinstance(expr, ast.BinOp):
            left = self._eval_expr(expr.left, packet)
            right = self._eval_expr(expr.right, packet)
            op = expr.op
            if op == "==":
                return 1 if left == right else 0
            if op == "!=":
                return 1 if left != right else 0
            if op == "<":
                return 1 if left < right else 0
            if op == "<=":
                return 1 if left <= right else 0
            if op == ">":
                return 1 if left > right else 0
            if op == ">=":
                return 1 if left >= right else 0
            if op == "&&":
                return 1 if left and right else 0
            if op == "||":
                return 1 if left or right else 0
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "<<":
                return left << right
            if op == ">>":
                return left >> right
            raise SwitchError(f"unknown condition operator {op!r}")
        if isinstance(expr, ast.MalleableRef):
            raise SwitchError(
                f"malleable reference {expr} reached the data plane; "
                "the program was not compiled by the Mantis compiler"
            )
        raise SwitchError(f"cannot evaluate expression {expr!r}")

    # ---- actions ------------------------------------------------------------

    def run_action(
        self, action_name: str, action_args: List[int], packet: Packet
    ) -> None:
        program = self.asic.program
        if action_name not in program.actions:
            raise SwitchError(f"unknown action {action_name!r}")
        action = program.actions[action_name]
        if len(action_args) != len(action.params):
            raise SwitchError(
                f"action {action_name}: expected {len(action.params)} args, "
                f"got {len(action_args)}"
            )
        params = dict(zip(action.params, action_args))
        for call in action.body:
            self._run_primitive(call, params, packet)

    def _resolve(self, arg, params: Dict[str, int], packet: Packet) -> int:
        """Resolve a primitive argument to an integer value."""
        if isinstance(arg, int):
            return arg
        if isinstance(arg, ast.FieldRef):
            return packet.get(f"{arg.header}.{arg.field}")
        if isinstance(arg, str):
            if arg in params:
                return params[arg]
            raise SwitchError(f"unresolved action parameter {arg!r}")
        if isinstance(arg, ast.MalleableRef):
            raise SwitchError(
                f"malleable reference {arg} reached the data plane; "
                "compile the program with the Mantis compiler first"
            )
        raise SwitchError(f"cannot resolve primitive argument {arg!r}")

    def _dst_ref(self, arg) -> ast.FieldRef:
        if not isinstance(arg, ast.FieldRef):
            raise SwitchError(
                f"primitive destination must be a field, got {arg!r}"
            )
        return arg

    def _write_field(self, ref: ast.FieldRef, value: int, packet: Packet) -> None:
        key = f"{ref.header}.{ref.field}"
        packet.set(key, value, self.asic.field_masks.get(key))

    def _run_primitive(
        self, call: ast.PrimitiveCall, params: Dict[str, int], packet: Packet
    ) -> None:
        name = call.name
        args = call.args
        if name == "no_op":
            return
        if name == "drop":
            packet.mark_dropped()
            return
        if name == "modify_field":
            value = self._resolve(args[1], params, packet)
            dst = self._dst_ref(args[0])
            if len(args) > 2:
                # P4-14 masked form: only the masked bits are written.
                mask = self._resolve(args[2], params, packet)
                current = packet.get(f"{dst.header}.{dst.field}")
                value = (current & ~mask) | (value & mask)
            self._write_field(dst, value, packet)
            return
        if name in ("add", "subtract", "bit_and", "bit_or", "bit_xor",
                    "shift_left", "shift_right", "min", "max"):
            left = self._resolve(args[1], params, packet)
            right = self._resolve(args[2], params, packet)
            value = {
                "add": lambda: left + right,
                "subtract": lambda: left - right,
                "bit_and": lambda: left & right,
                "bit_or": lambda: left | right,
                "bit_xor": lambda: left ^ right,
                "shift_left": lambda: left << right,
                "shift_right": lambda: left >> right,
                "min": lambda: min(left, right),
                "max": lambda: max(left, right),
            }[name]()
            self._write_field(self._dst_ref(args[0]), value, packet)
            return
        if name == "add_to_field":
            dst = self._dst_ref(args[0])
            key = f"{dst.header}.{dst.field}"
            value = packet.get(key) + self._resolve(args[1], params, packet)
            # Width-mask explicitly: read-modify-write must wrap at the
            # declared field width or counters grow without bound.
            packet.set(key, value, self.asic.field_masks.get(key))
            return
        if name == "subtract_from_field":
            dst = self._dst_ref(args[0])
            key = f"{dst.header}.{dst.field}"
            value = packet.get(key) - self._resolve(args[1], params, packet)
            packet.set(key, value, self.asic.field_masks.get(key))
            return
        if name == "register_write":
            register = self.asic.get_register(args[0])
            index = self._resolve(args[1], params, packet)
            value = self._resolve(args[2], params, packet)
            register.write(index, value)
            return
        if name == "register_read":
            dst = self._dst_ref(args[0])
            register = self.asic.get_register(args[1])
            index = self._resolve(args[2], params, packet)
            self._write_field(dst, register.read(index), packet)
            return
        if name == "count":
            counter = self.asic.get_counter(args[0])
            index = self._resolve(args[1], params, packet)
            delta = packet.size_bytes if counter.counter_type == "bytes" else 1
            counter.array.increment(index, delta)
            return
        if name == "modify_field_with_hash_based_offset":
            self._run_hash(call, params, packet)
            return
        if name == "modify_field_rng_uniform":
            dst = self._dst_ref(args[0])
            lo = self._resolve(args[1], params, packet)
            hi = self._resolve(args[2], params, packet)
            self._write_field(dst, self.rng.randint(lo, hi), packet)
            return
        if name == "recirculate":
            packet.fields["standard_metadata.recirculate_flag"] = 1
            return
        if name == "clone_ingress_pkt_to_egress":
            packet.fields["standard_metadata.clone_flag"] = 1
            return
        if name == "mark_ecn":
            packet.fields["standard_metadata.ecn_marked"] = 1
            return
        raise SwitchError(f"unsupported primitive action {name!r}")

    def _run_hash(
        self, call: ast.PrimitiveCall, params: Dict[str, int], packet: Packet
    ) -> None:
        dst = self._dst_ref(call.args[0])
        base = self._resolve(call.args[1], params, packet)
        calc_name = call.args[2]
        size = self._resolve(call.args[3], params, packet)
        program = self.asic.program
        if calc_name not in program.field_list_calcs:
            raise SwitchError(f"unknown field_list_calculation {calc_name!r}")
        calc = program.field_list_calcs[calc_name]
        values = []
        for list_name in calc.inputs:
            for ref in program.field_lists[list_name].entries:
                key = f"{ref.header}.{ref.field}"
                width_mask = self.asic.field_masks.get(key, (1 << 32) - 1)
                values.append(
                    (packet.get(key), width_mask.bit_length())
                )
        hashed = compute_hash(calc.algorithm, values, calc.output_width)
        self._write_field(dst, base + (hashed % size if size else hashed), packet)
