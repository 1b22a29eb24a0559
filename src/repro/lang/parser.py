"""Parser for xlog programs.

A program is a sequence of lines::

    name = op(arg, ...)     # assignment
    output name             # marks the program's result stream
    # comments and blank lines are skipped

Supported ops and their signatures are documented on the AST classes.
Predicate arguments (``filter``, ``ask(where=...)``) are SQL predicates,
parsed by :func:`repro.storage.rdbms.sql.parse_predicate`: comparisons,
LIKE, IN, IS [NOT] NULL, ``and`` / ``or`` / ``not``, parentheses, string
literals in either quote, ``none`` / ``null``.
"""

from __future__ import annotations

import re
from typing import Any

from repro.lang.ast import (
    AskOp,
    DedupOp,
    DocFilterOp,
    DocsOp,
    ExtractOp,
    FilterOp,
    FuseOp,
    JoinOp,
    LimitOp,
    Op,
    ResolveOp,
    SelectOp,
    UnionOp,
)
from repro.storage.rdbms.sql import SqlError, parse_predicate


class ParseError(Exception):
    """Raised on malformed programs."""


def parse_expression(text: str) -> Any:
    """Parse a predicate: a SQL predicate (:func:`parse_predicate`)."""
    try:
        return parse_predicate(text)
    except SqlError as exc:
        raise ParseError(str(exc)) from exc


_ASSIGN_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*([A-Za-z_]+)\s*\((.*)\)\s*$")
_OUTPUT_RE = re.compile(r"^\s*output\s+([A-Za-z_][A-Za-z_0-9]*)\s*$")


def _split_args(body: str) -> list[str]:
    """Split op arguments on commas at depth 0, respecting quotes."""
    args: list[str] = []
    depth = 0
    quote: str | None = None
    current: list[str] = []
    for ch in body:
        if quote is not None:
            current.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    last = "".join(current).strip()
    if last:
        args.append(last)
    return args


def _string_arg(arg: str, context: str) -> str:
    if len(arg) >= 2 and arg[0] in "\"'" and arg[-1] == arg[0]:
        return arg[1:-1]
    raise ParseError(f"{context}: expected a quoted string, got {arg!r}")


def _int_arg(arg: str, context: str) -> int:
    try:
        return int(arg)
    except ValueError as exc:
        raise ParseError(f"{context}: expected an integer, got {arg!r}") from exc


_OPERATOR_KEYWORDS = {"join": ("on",), "ask": ("where", "redundancy")}


def _kwargs_of(op_name: str,
               args: list[str]) -> tuple[list[str], dict[str, str]]:
    """Split an operator's own ``name = value`` keywords from the rest; any
    other ``name = ...`` argument is positional (a predicate)."""
    positional: list[str] = []
    keyword: dict[str, str] = {}
    for arg in args:
        match = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)$", arg)
        if match and match.group(1) in _OPERATOR_KEYWORDS.get(op_name, ()):
            keyword[match.group(1)] = match.group(2).strip()
        else:
            positional.append(arg)
    return positional, keyword


def parse_program(source: str) -> tuple[list[Op], str]:
    """Parse a full program.

    Returns:
        (operators in source order, name of the output stream).

    Raises:
        ParseError: malformed program, duplicate names, missing output.
    """
    ops: list[Op] = []
    names: set[str] = set()
    output: str | None = None
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        out_match = _OUTPUT_RE.match(line)
        if out_match:
            if output is not None:
                raise ParseError(f"line {line_no}: multiple output statements")
            output = out_match.group(1)
            continue
        assign = _ASSIGN_RE.match(line)
        if not assign:
            raise ParseError(f"line {line_no}: cannot parse {line!r}")
        name, op_name, body = assign.group(1), assign.group(2).lower(), assign.group(3)
        if name in names:
            raise ParseError(f"line {line_no}: duplicate variable {name!r}")
        names.add(name)
        args = _split_args(body)
        ops.append(_build_op(name, op_name, args, line_no))
    if output is None:
        raise ParseError("program has no output statement")
    if output not in names:
        raise ParseError(f"output references unknown variable {output!r}")
    return ops, output


def _build_op(name: str, op_name: str, args: list[str], line_no: int) -> Op:
    ctx = f"line {line_no}"
    positional, kwargs = _kwargs_of(op_name, args)
    if op_name == "docs":
        if positional or kwargs:
            raise ParseError(f"{ctx}: docs() takes no arguments")
        return DocsOp(name=name)
    if op_name == "extract":
        if len(positional) != 2:
            raise ParseError(f"{ctx}: extract(input, \"extractor\")")
        return ExtractOp(name=name, inputs=[positional[0]],
                         extractor=_string_arg(positional[1], ctx))
    if op_name == "filter":
        if len(positional) < 2:
            raise ParseError(f"{ctx}: filter(input, predicate)")
        predicate = parse_expression(", ".join(positional[1:]))
        return FilterOp(name=name, inputs=[positional[0]], predicate=predicate)
    if op_name == "docfilter":
        if len(positional) < 2:
            raise ParseError(f"{ctx}: docfilter(input, \"kw\", ...)")
        groups = [[_string_arg(a, ctx)] for a in positional[1:]]
        return DocFilterOp(name=name, inputs=[positional[0]], keyword_groups=groups)
    if op_name == "select":
        if len(positional) < 2:
            raise ParseError(f"{ctx}: select(input, field, ...)")
        return SelectOp(name=name, inputs=[positional[0]], fields=positional[1:])
    if op_name == "join":
        if len(positional) != 2 or "on" not in kwargs:
            raise ParseError(f"{ctx}: join(a, b, on=field)")
        return JoinOp(name=name, inputs=positional, on=kwargs["on"])
    if op_name == "union":
        if len(positional) != 2:
            raise ParseError(f"{ctx}: union(a, b)")
        return UnionOp(name=name, inputs=positional)
    if op_name == "fuse":
        if len(positional) != 2:
            raise ParseError(f"{ctx}: fuse(input, \"strategy\")")
        return FuseOp(name=name, inputs=[positional[0]],
                      strategy=_string_arg(positional[1], ctx))
    if op_name == "resolve":
        if len(positional) != 2:
            raise ParseError(f"{ctx}: resolve(input, \"resolver\")")
        return ResolveOp(name=name, inputs=[positional[0]],
                         resolver=_string_arg(positional[1], ctx))
    if op_name == "ask":
        if len(positional) != 2:
            raise ParseError(f"{ctx}: ask(input, \"mode\", where=..., redundancy=n)")
        where = parse_expression(kwargs["where"]) if "where" in kwargs else None
        redundancy = _int_arg(kwargs["redundancy"], ctx) if "redundancy" in kwargs else 3
        mode = _string_arg(positional[1], ctx)
        if mode not in ("validate", "verify"):
            raise ParseError(f"{ctx}: ask mode must be validate|verify")
        return AskOp(name=name, inputs=[positional[0]], mode=mode,
                     where=where, redundancy=redundancy)
    if op_name == "limit":
        if len(positional) != 2:
            raise ParseError(f"{ctx}: limit(input, n)")
        return LimitOp(name=name, inputs=[positional[0]],
                       n=_int_arg(positional[1], ctx))
    if op_name == "dedup":
        if len(positional) < 1:
            raise ParseError(f"{ctx}: dedup(input, key, ...)")
        return DedupOp(name=name, inputs=[positional[0]],
                       keys=positional[1:])
    raise ParseError(f"{ctx}: unknown operator {op_name!r}")
