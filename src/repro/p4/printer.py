"""Emit P4-14 source text from a :class:`~repro.p4.ast.Program`.

This is how the Mantis compiler produces its first artifact: a valid,
malleable P4 program.  The printer is the inverse of the parser, and
``parse(print(parse(src)))`` is tested to be a fixed point.
"""

from __future__ import annotations

from typing import List

from repro.p4 import ast


def _render_read(read: ast.TableRead) -> str:
    if read.match_type is ast.MatchType.VALID:
        return f"        valid({read.ref.header}) : exact;"
    mask = f" mask {read.mask:#x}" if read.mask is not None else ""
    return f"        {read.ref}{mask} : {read.match_type.value};"


def _render_statements(stmts: List[ast.Statement], indent: int) -> List[str]:
    pad = " " * indent
    lines: List[str] = []
    for stmt in stmts:
        if isinstance(stmt, ast.ApplyCall):
            lines.append(f"{pad}apply({stmt.table});")
        else:
            lines.append(f"{pad}if ({stmt.cond}) {{")
            lines.extend(_render_statements(stmt.then_body, indent + 4))
            if stmt.else_body:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render_statements(stmt.else_body, indent + 4))
            lines.append(f"{pad}}}")
    return lines


def print_program(program: ast.Program) -> str:
    """Render the full program as P4-14 source."""
    chunks: List[str] = []
    for decl in program.declarations:
        chunks.append(_print_declaration(decl))
    return "\n\n".join(chunks) + "\n"


def _print_declaration(decl) -> str:
    if isinstance(decl, ast.HeaderType):
        fields = "\n".join(
            f"        {f.name} : {f.width};" for f in decl.fields
        )
        return (
            f"header_type {decl.name} {{\n    fields {{\n{fields}\n    }}\n}}"
        )
    if isinstance(decl, ast.HeaderInstance):
        keyword = "metadata" if decl.is_metadata else "header"
        if decl.initializer:
            init = " ".join(
                f"{k} : {v};" for k, v in decl.initializer.items()
            )
            return f"{keyword} {decl.header_type} {decl.name} {{ {init} }};"
        return f"{keyword} {decl.header_type} {decl.name};"
    if isinstance(decl, ast.FieldList):
        entries = "\n".join(f"    {ref};" for ref in decl.entries)
        return f"field_list {decl.name} {{\n{entries}\n}}"
    if isinstance(decl, ast.FieldListCalculation):
        inputs = "\n".join(f"        {name};" for name in decl.inputs)
        return (
            f"field_list_calculation {decl.name} {{\n"
            f"    input {{\n{inputs}\n    }}\n"
            f"    algorithm : {decl.algorithm};\n"
            f"    output_width : {decl.output_width};\n}}"
        )
    if isinstance(decl, ast.RegisterDecl):
        return (
            f"register {decl.name} {{\n    width : {decl.width};\n"
            f"    instance_count : {decl.instance_count};\n}}"
        )
    if isinstance(decl, ast.CounterDecl):
        return (
            f"counter {decl.name} {{\n    type : {decl.counter_type};\n"
            f"    instance_count : {decl.instance_count};\n}}"
        )
    if isinstance(decl, ast.ActionDecl):
        params = ", ".join(decl.params)
        body = "\n".join(f"    {call};" for call in decl.body)
        body_block = f"\n{body}\n" if body else "\n"
        return f"action {decl.name}({params}) {{{body_block}}}"
    if isinstance(decl, ast.TableDecl):
        return _print_table(decl)
    if isinstance(decl, ast.ControlDecl):
        body = "\n".join(_render_statements(decl.body, 4))
        return f"control {decl.name} {{\n{body}\n}}"
    if isinstance(decl, ast.ParserStateDecl):
        extracts = "\n".join(f"    extract({h});" for h in decl.extracts)
        block = f"{extracts}\n" if extracts else ""
        return (
            f"parser {decl.name} {{\n{block}    return {decl.return_target};\n}}"
        )
    raise TypeError(f"cannot print declaration {type(decl).__name__}")


def _print_table(table: ast.TableDecl) -> str:
    lines = []
    if table.malleable:
        lines.append(f"malleable table {table.name} {{")
    else:
        lines.append(f"table {table.name} {{")
    if table.reads:
        lines.append("    reads {")
        lines.extend(_render_read(read) for read in table.reads)
        lines.append("    }")
    lines.append("    actions {")
    lines.extend(f"        {name};" for name in table.action_names)
    lines.append("    }")
    if table.default_action is not None:
        name, args = table.default_action
        rendered_args = ", ".join(str(a) for a in args)
        lines.append(f"    default_action : {name}({rendered_args});")
    if table.size is not None:
        lines.append(f"    size : {table.size};")
    lines.append("}")
    return "\n".join(lines)
