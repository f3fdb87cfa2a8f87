"""Static semantic validation for P4/P4R programs.

The validator runs after parsing and again after every compiler pass,
catching dangling references before they turn into confusing runtime
failures inside the switch emulator.
"""

from __future__ import annotations

from repro.errors import P4SemanticError
from repro.p4 import ast

# Primitives whose first string argument names a register.
_REGISTER_PRIMITIVES = {"register_read": 1, "register_write": 0}
# Primitives whose arguments include a field-list-calculation name.
_HASH_PRIMITIVES = {"modify_field_with_hash_based_offset": 2}


def validate_program(program: ast.Program, allow_malleables: bool = False) -> None:
    """Raise :class:`P4SemanticError` on the first violated rule.

    ``allow_malleables=True`` permits ``${...}`` references (used when
    validating P4R programs before the Mantis transform); plain P4
    output of the compiler must validate with the default ``False``.
    """
    _check_instances(program)
    _check_field_lists(program, allow_malleables)
    _check_actions(program, allow_malleables)
    _check_tables(program, allow_malleables)
    _check_controls(program, allow_malleables)


def _check_ref(program: ast.Program, ref, allow_malleables: bool, where: str) -> None:
    if isinstance(ref, ast.MalleableRef):
        if not allow_malleables:
            raise P4SemanticError(
                f"{where}: malleable reference {ref} in plain P4 program"
            )
        return
    if isinstance(ref, ast.ValidRef):
        if ref.header not in program.headers:
            raise P4SemanticError(f"{where}: valid() of unknown header {ref.header!r}")
        return
    if isinstance(ref, ast.FieldRef):
        if not program.has_field(ref):
            raise P4SemanticError(f"{where}: unknown field reference {ref}")
        return


def _check_instances(program: ast.Program) -> None:
    for instance in program.headers.values():
        if instance.header_type not in program.header_types:
            raise P4SemanticError(
                f"instance {instance.name!r} uses undeclared header type "
                f"{instance.header_type!r}"
            )
        header_type = program.header_types[instance.header_type]
        for field_name in instance.initializer:
            if not header_type.has_field(field_name):
                raise P4SemanticError(
                    f"instance {instance.name!r} initializes unknown field "
                    f"{field_name!r}"
                )


def _check_field_lists(program: ast.Program, allow_malleables: bool) -> None:
    for field_list in program.field_lists.values():
        for ref in field_list.entries:
            _check_ref(program, ref, allow_malleables, f"field_list {field_list.name}")
    for calc in program.field_list_calcs.values():
        for input_name in calc.inputs:
            if input_name not in program.field_lists:
                raise P4SemanticError(
                    f"field_list_calculation {calc.name!r} inputs unknown "
                    f"field_list {input_name!r}"
                )


def _check_actions(program: ast.Program, allow_malleables: bool) -> None:
    for action in program.actions.values():
        where = f"action {action.name}"
        for call in action.body:
            for position, arg in enumerate(call.args):
                if isinstance(arg, (ast.FieldRef, ast.MalleableRef)):
                    _check_ref(program, arg, allow_malleables, where)
            register_pos = _REGISTER_PRIMITIVES.get(call.name)
            if register_pos is not None:
                _check_named_arg(
                    program.registers, call, register_pos, "register", where
                )
            hash_pos = _HASH_PRIMITIVES.get(call.name)
            if hash_pos is not None:
                _check_named_arg(
                    program.field_list_calcs, call, hash_pos,
                    "field_list_calculation", where,
                )
            if call.name == "count":
                _check_named_arg(program.counters, call, 0, "counter", where)


def _check_named_arg(index, call, position, kind, where) -> None:
    if position >= len(call.args):
        raise P4SemanticError(f"{where}: {call.name} missing {kind} argument")
    name = call.args[position]
    if not isinstance(name, str) or name not in index:
        raise P4SemanticError(
            f"{where}: {call.name} references unknown {kind} {name!r}"
        )


def _check_tables(program: ast.Program, allow_malleables: bool) -> None:
    for table in program.tables.values():
        where = f"table {table.name}"
        for read in table.reads:
            _check_ref(program, read.ref, allow_malleables, where)
        if not table.action_names:
            raise P4SemanticError(f"{where}: no actions declared")
        for action_name in table.action_names:
            if action_name not in program.actions:
                raise P4SemanticError(
                    f"{where}: unknown action {action_name!r}"
                )
        if table.default_action is not None:
            name, args = table.default_action
            if name not in program.actions:
                raise P4SemanticError(
                    f"{where}: unknown default action {name!r}"
                )
            expected = len(program.actions[name].params)
            if len(args) != expected:
                raise P4SemanticError(
                    f"{where}: default action {name!r} expects {expected} "
                    f"args, got {len(args)}"
                )


def _check_controls(program: ast.Program, allow_malleables: bool = False) -> None:
    for control in program.controls.values():
        for stmt in ast.walk_statements(control.body):
            if isinstance(stmt, ast.ApplyCall):
                if stmt.table not in program.tables:
                    raise P4SemanticError(
                        f"control {control.name}: apply of unknown table "
                        f"{stmt.table!r}"
                    )
            elif isinstance(stmt, ast.IfBlock):
                _check_condition(
                    program, stmt.cond, allow_malleables,
                    f"control {control.name}",
                )


def _check_condition(program, expr, allow_malleables, where) -> None:
    if isinstance(expr, ast.BinOp):
        _check_condition(program, expr.left, allow_malleables, where)
        _check_condition(program, expr.right, allow_malleables, where)
    elif isinstance(expr, (ast.FieldRef, ast.MalleableRef, ast.ValidRef)):
        _check_ref(program, expr, allow_malleables, where)

