"""A SQL subset over the mini engine.

Supported statements (enough for the paper's exploitation scenarios — the
"sophisticated user poses a SQL query" path of the DGE model):

* ``CREATE TABLE t (col TYPE [PRIMARY KEY] [NOT NULL], ...)``
* ``INSERT INTO t (c1, c2) VALUES (v1, v2), (v3, v4)``
* ``SELECT <exprs> FROM t [JOIN u ON t.a = u.b] [WHERE <pred>]
  [GROUP BY c1, c2] [HAVING <pred over group keys and aggregate aliases>]
  [ORDER BY c [ASC|DESC]] [LIMIT n]``
  with aggregates COUNT(*), COUNT(c), SUM(c), AVG(c), MIN(c), MAX(c)
* ``UPDATE t SET c = v [, ...] [WHERE <pred>]``
* ``DELETE FROM t [WHERE <pred>]``
* ``EXPLAIN <select>`` — returns the chosen physical plan as rows
* ``EXPLAIN ANALYZE <select>`` — executes the plan with per-operator
  instrumentation and returns the plan annotated with actuals (rows,
  loops, wall time, zone-map pruning) plus an execution summary line

Predicates: comparisons (=, !=, <>, <, <=, >, >=), AND/OR/NOT, ``LIKE`` with
``%``/``_`` wildcards, ``IS [NOT] NULL``, ``IN (v1, v2, ...)``, parentheses.
String literals take either quote, a doubled quote escaping itself
(``'it''s'``, ``"a ""b"" c"``); ``NULL`` and ``NONE`` are the null
literal.  :func:`parse_predicate` parses a bare predicate.

The lexer has two stages.  :func:`split_literals` finds every string and
number literal in one regex pass and gives the text's *shape* (each
literal as a typed slot, ``?s`` / ``?i`` / ``?f``) and the literals'
values; :func:`_lex` then tokenizes the shape, each slot taking its
literal.  A served SELECT of a known shape stops after the first stage
(:mod:`repro.storage.rdbms.qcache`): :func:`bind_literals` puts its
literals into the statement the shape was parsed to.

Execution goes through the cost-based planner in
:mod:`repro.storage.rdbms.planner` by default (index lookups, range
scans, pushed-down join predicates, statistics-driven join choice); pass
``use_planner=False`` to get the original naive interpreter, which the
differential tests treat as the semantics oracle.  All statements run
inside a transaction.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Iterator

from repro.errors import (CancellationToken, QueryDeadlockError, QueryError,
                          QueryLockTimeoutError)
from repro.storage.rdbms.engine import Database, Transaction
from repro.storage.rdbms.lockmgr import DeadlockError, LockTimeoutError
from repro.storage.rdbms.table import gather_rids
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.tracing import get_tracer


class SqlError(Exception):
    """Raised on parse or execution errors."""


# --------------------------------------------------------------------- lexer

#: Stage 1: a text's literals and the ``text`` runs between them (a word
#: swallows its digits, a sign not before a digit is no number).  A ``?``
#: (it would read as a slot) or a quote that opens no string is ``bad``.
_LITERAL_RE = re.compile(
    r"""
      (?P<text>(?:[A-Za-z_][A-Za-z_0-9]*|[^'"?+\-\dA-Za-z_]+|[+-](?!\d))+)
    | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
    | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: Stage 2: a shape's words, two-character ops and slots, then any other
#: non-space character (a one-character op, or no token at all).
_SHAPE_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|<=|>=|!=|<>|\?[sif]|\S")

_SLOTS = {str: "?s", int: "?i", float: "?f"}
_SLOT_KINDS = {"?s": "string", "?i": "number", "?f": "number"}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_KEYWORDS = frozenset(
    {
        "select", "from", "where", "group", "by", "order", "limit", "and", "or",
        "not", "like", "is", "null", "in", "insert", "into", "values", "update",
        "set", "delete", "create", "table", "primary", "key", "asc", "desc",
        "join", "on", "count", "sum", "avg", "min", "max", "true", "false",
        "distinct", "as", "having", "explain", "analyze", "alter", "compact",
        "none",
    }
)


@dataclass
class _Token:
    kind: str  # 'string' | 'number' | 'op' | 'word' | 'keyword' | 'eof'
    value: Any
    text: str


_EOF = _Token("eof", None, "")
#: tokens by text, shared (nothing mutates a token): the ops, and the
#: keywords in lower and in upper case
_FIXED = {op: _Token("op", op, op) for op in
          ("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", "*", ".")}
_FIXED.update({text: _Token("keyword", word, text) for word in _KEYWORDS
               for text in (word, word.upper())})


def split_literals(sql: str) -> tuple[str, tuple[Any, ...], list[str]]:
    """The lexer's first stage: ``(shape, literals, texts)`` — the text
    with each string or number literal replaced by its typed slot, and
    the literals' values and texts in text order.  Texts of one shape lex
    to the same tokens but for the literals.  A ``bad`` character stays
    in the shape behind a ``?``, as no slot (and so no shape of a text
    that lexes) has it: :func:`_lex` raises there."""
    parts: list[str] = []
    values: list[Any] = []
    texts: list[str] = []
    for text, string, number, bad in _LITERAL_RE.findall(sql):
        if text or bad:
            parts.append(text or "?" + bad)
            continue
        if string:
            value: Any = string[1:-1].replace(string[0] * 2, string[0])
        else:
            value = float(number) if "." in number or "e" in number.lower() \
                else int(number)
        parts.append(_SLOTS[type(value)])
        values.append(value)
        texts.append(string or number)
    return "".join(parts), tuple(values), texts


def _lex(sql: str, split: tuple[str, tuple[Any, ...], list[str]] | None = None,
         ) -> list[_Token]:
    """``sql``'s tokens: stage 1, or its result ``split`` when the caller
    has it, then stage 2, one pass over the shape in which each slot takes
    the next literal.

    Raises:
        SqlError: the text cannot lex.
    """
    shape, literals, texts = split_literals(sql) if split is None else split
    tokens: list[_Token] = []
    slot = 0
    for text in _SHAPE_TOKEN_RE.findall(shape):
        token = _FIXED.get(text)
        if token is None:
            if text in _SLOT_KINDS:
                token = _Token(_SLOT_KINDS[text], literals[slot], texts[slot])
                slot += 1
            elif text[0] not in _WORD_START:
                at = next(m.start() for m in _SHAPE_TOKEN_RE.finditer(shape)
                          if m.group() == text)
                at += sum(map(len, texts[:slot])) - 2 * slot
                raise SqlError(f"cannot tokenize SQL at: {sql[at:at + 20]!r}")
            elif text.lower() in _KEYWORDS:
                token = _Token("keyword", text.lower(), text)
            else:
                token = _Token("word", text, text)
        tokens.append(token)
    tokens.append(_EOF)
    return tokens


# ----------------------------------------------------------------------- AST


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) column reference."""

    table: str | None
    name: str

    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A constant value in a predicate or VALUES list."""

    value: Any


@dataclass(frozen=True)
class Comparison:
    """A binary comparison between two operands."""

    op: str
    left: Any
    right: Any


@dataclass(frozen=True)
class LikePredicate:
    """A LIKE pattern test against a column."""

    column: ColumnRef
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class NullPredicate:
    """An IS [NOT] NULL test against a column."""

    column: ColumnRef
    negated: bool


@dataclass(frozen=True)
class InPredicate:
    """A column IN (v1, v2, ...) membership test."""

    column: ColumnRef
    values: tuple[Any, ...]
    negated: bool = False


@dataclass(frozen=True)
class BoolOp:
    """AND / OR / NOT over sub-predicates."""

    op: str  # 'and' | 'or' | 'not'
    operands: tuple[Any, ...]


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call: COUNT/SUM/AVG/MIN/MAX over a column or *."""

    func: str  # count | sum | avg | min | max
    column: ColumnRef | None  # None means COUNT(*)
    alias: str | None = None

    def key(self) -> str:
        if self.alias:
            return self.alias
        inner = self.column.key() if self.column else "*"
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list: a column or an aggregate."""

    expr: ColumnRef | Aggregate
    alias: str | None = None

    def key(self) -> str:
        if self.alias:
            return self.alias
        return self.expr.key()


@dataclass
class SelectStatement:
    """A parsed SELECT with all optional clauses."""

    items: list[SelectItem]
    star: bool
    table: str
    join_table: str | None = None
    join_left: ColumnRef | None = None
    join_right: ColumnRef | None = None
    where: Any = None
    group_by: list[ColumnRef] = field(default_factory=list)
    having: Any = None
    order_by: ColumnRef | None = None
    order_desc: bool = False
    limit: int | None = None


@dataclass
class InsertStatement:
    """A parsed multi-row INSERT."""

    table: str
    columns: list[str]
    rows: list[list[Any]]


@dataclass
class UpdateStatement:
    """A parsed UPDATE with assignments and predicate."""

    table: str
    assignments: dict[str, Any]
    where: Any = None


@dataclass
class DeleteStatement:
    """A parsed DELETE with an optional predicate."""

    table: str
    where: Any = None


@dataclass
class CreateTableStatement:
    """A parsed CREATE TABLE carrying the schema."""

    schema: TableSchema


@dataclass
class ExplainStatement:
    """An EXPLAIN wrapping a SELECT: plan, don't execute — unless
    ``analyze`` is set, in which case the plan runs instrumented and the
    rendered tree carries per-operator actuals."""

    select: SelectStatement
    analyze: bool = False


@dataclass
class CompactStatement:
    """A parsed ``ALTER TABLE <t> COMPACT``: freeze the committed tail
    into columnar segments (runs in its own transaction, like DDL)."""

    table: str


# -------------------------------------------------------------------- parser

_TYPE_MAP = {
    "int": ColumnType.INT,
    "integer": ColumnType.INT,
    "float": ColumnType.FLOAT,
    "real": ColumnType.FLOAT,
    "double": ColumnType.FLOAT,
    "text": ColumnType.TEXT,
    "varchar": ColumnType.TEXT,
    "string": ColumnType.TEXT,
    "bool": ColumnType.BOOL,
    "boolean": ColumnType.BOOL,
}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.value != word:
            raise SqlError(f"expected {word.upper()}, got {token.text!r}")

    def _expect_op(self, op: str) -> None:
        token = self._next()
        if token.kind != "op" or token.value != op:
            raise SqlError(f"expected {op!r}, got {token.text!r}")

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.value in words

    def _at_op(self, op: str) -> bool:
        token = self._peek()
        return token.kind == "op" and token.value == op

    def _comma_list(self, parse) -> list:
        """One or more of ``parse``'s items, separated by commas."""
        items = [parse()]
        while self._at_op(","):
            self._next()
            items.append(parse())
        return items

    def _expect_end(self) -> None:
        if self._peek().kind != "eof":
            raise SqlError(f"trailing input: {self._peek().text!r}")

    def _identifier(self) -> str:
        token = self._next()
        if token.kind not in ("word", "keyword"):
            raise SqlError(f"expected identifier, got {token.text!r}")
        return token.text if token.kind == "word" else token.value

    # -- entry point

    def parse(self):
        token = self._peek()
        if token.kind != "keyword":
            raise SqlError(f"unexpected start of statement: {token.text!r}")
        if token.value == "select":
            return self._parse_select()
        if token.value == "insert":
            return self._parse_insert()
        if token.value == "update":
            return self._parse_update()
        if token.value == "delete":
            return self._parse_delete()
        if token.value == "create":
            return self._parse_create()
        if token.value == "alter":
            return self._parse_alter()
        if token.value == "explain":
            return self._parse_explain()
        raise SqlError(f"unsupported statement {token.text!r}")

    # -- statements

    def _parse_explain(self) -> ExplainStatement:
        self._expect_keyword("explain")
        analyze = False
        if self._at_keyword("analyze"):
            self._next()
            analyze = True
        if not self._at_keyword("select"):
            raise SqlError("EXPLAIN supports SELECT statements only")
        return ExplainStatement(self._parse_select(), analyze=analyze)

    def _parse_alter(self) -> CompactStatement:
        self._expect_keyword("alter")
        self._expect_keyword("table")
        table = self._identifier()
        self._expect_keyword("compact")
        self._expect_end()
        return CompactStatement(table)

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        star = self._at_op("*")
        if star:
            self._next()
        items = [] if star else self._comma_list(self._parse_select_item)
        self._expect_keyword("from")
        table = self._identifier()
        stmt = SelectStatement(items=items, star=star, table=table)
        if self._at_keyword("join"):
            self._next()
            stmt.join_table = self._identifier()
            self._expect_keyword("on")
            stmt.join_left = self._parse_column_ref()
            self._expect_op("=")
            stmt.join_right = self._parse_column_ref()
        if self._at_keyword("where"):
            self._next()
            stmt.where = self._parse_or()
        if self._at_keyword("group"):
            self._next()
            self._expect_keyword("by")
            stmt.group_by = self._comma_list(self._parse_column_ref)
        if self._at_keyword("having"):
            self._next()
            stmt.having = self._parse_or()
        if self._at_keyword("order"):
            self._next()
            self._expect_keyword("by")
            stmt.order_by = self._parse_column_ref()
            if self._at_keyword("asc", "desc"):
                stmt.order_desc = self._next().value == "desc"
        if self._at_keyword("limit"):
            self._next()
            token = self._next()
            if token.kind != "number" or not isinstance(token.value, int):
                raise SqlError("LIMIT expects an integer")
            stmt.limit = token.value
        self._expect_end()
        return stmt

    def _parse_select_item(self) -> SelectItem:
        if self._at_keyword("count", "sum", "avg", "min", "max"):
            func = self._next().value
            self._expect_op("(")
            column: ColumnRef | None = None
            if self._at_op("*"):
                self._next()
                if func != "count":
                    raise SqlError(f"{func.upper()}(*) is not valid")
            else:
                column = self._parse_column_ref()
            self._expect_op(")")
            alias = self._parse_alias()
            return SelectItem(Aggregate(func, column, alias), alias)
        ref = self._parse_column_ref()
        alias = self._parse_alias()
        return SelectItem(ref, alias)

    def _parse_alias(self) -> str | None:
        if self._at_keyword("as"):
            self._next()
            return self._identifier()
        return None

    def _parse_column_ref(self) -> ColumnRef:
        first = self._identifier()
        if self._at_op("."):
            self._next()
            second = self._identifier()
            return ColumnRef(first, second)
        return ColumnRef(None, first)

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._identifier()
        self._expect_op("(")
        columns = self._comma_list(self._identifier)
        self._expect_op(")")
        self._expect_keyword("values")

        def row() -> list[Literal]:
            self._expect_op("(")
            values = self._comma_list(self._parse_literal)
            self._expect_op(")")
            if len(values) != len(columns):
                raise SqlError("VALUES arity does not match column list")
            return values

        return InsertStatement(table, columns, self._comma_list(row))

    def _parse_update(self) -> UpdateStatement:
        self._expect_keyword("update")
        table = self._identifier()
        self._expect_keyword("set")

        def assignment() -> tuple[str, Literal]:
            column = self._identifier()
            self._expect_op("=")
            return column, self._parse_literal()

        assignments = dict(self._comma_list(assignment))
        where = None
        if self._at_keyword("where"):
            self._next()
            where = self._parse_or()
        return UpdateStatement(table, assignments, where)

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._identifier()
        where = None
        if self._at_keyword("where"):
            self._next()
            where = self._parse_or()
        return DeleteStatement(table, where)

    def _parse_create(self) -> CreateTableStatement:
        self._expect_keyword("create")
        self._expect_keyword("table")
        name = self._identifier()
        self._expect_op("(")
        primary_key: str | None = None

        def column() -> Column:
            nonlocal primary_key
            col_name = self._identifier()
            type_word = self._identifier().lower()
            if type_word not in _TYPE_MAP:
                raise SqlError(f"unknown type {type_word!r}")
            nullable = True
            while self._at_keyword("primary", "not"):
                if self._next().value == "primary":
                    self._expect_keyword("key")
                    primary_key = col_name
                else:
                    self._expect_keyword("null")
                nullable = False
            return Column(col_name, _TYPE_MAP[type_word], nullable)

        columns = self._comma_list(column)
        self._expect_op(")")
        return CreateTableStatement(
            TableSchema(name, tuple(columns), primary_key))

    # -- predicates

    def _parse_or(self):
        node = self._parse_and()
        operands = [node]
        while self._at_keyword("or"):
            self._next()
            operands.append(self._parse_and())
        return operands[0] if len(operands) == 1 else BoolOp("or", tuple(operands))

    def _parse_and(self):
        node = self._parse_not()
        operands = [node]
        while self._at_keyword("and"):
            self._next()
            operands.append(self._parse_not())
        return operands[0] if len(operands) == 1 else BoolOp("and", tuple(operands))

    def _parse_not(self):
        if self._at_keyword("not"):
            self._next()
            return BoolOp("not", (self._parse_not(),))
        return self._parse_predicate()

    def _parse_predicate(self):
        if self._at_op("("):
            self._next()
            node = self._parse_or()
            self._expect_op(")")
            return node
        left = self._parse_operand()
        token = self._peek()
        if token.kind == "keyword" and token.value == "is":
            self._next()
            negated = False
            if self._at_keyword("not"):
                self._next()
                negated = True
            self._expect_keyword("null")
            if not isinstance(left, ColumnRef):
                raise SqlError("IS NULL requires a column")
            return NullPredicate(left, negated)
        if token.kind == "keyword" and token.value in ("like", "in", "not"):
            negated = False
            if token.value == "not":
                self._next()
                negated = True
                token = self._peek()
            if token.kind == "keyword" and token.value == "like":
                self._next()
                pattern_token = self._next()
                if pattern_token.kind != "string":
                    raise SqlError("LIKE expects a string pattern")
                if not isinstance(left, ColumnRef):
                    raise SqlError("LIKE requires a column")
                return LikePredicate(left, pattern_token.value, negated)
            if token.kind == "keyword" and token.value == "in":
                self._next()
                self._expect_op("(")
                values = self._comma_list(self._parse_literal)
                self._expect_op(")")
                if not isinstance(left, ColumnRef):
                    raise SqlError("IN requires a column")
                return InPredicate(left, tuple(v.value for v in values), negated)
            raise SqlError(f"unexpected NOT before {token.text!r}")
        op_token = self._next()
        if op_token.kind != "op" or op_token.value not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise SqlError(f"expected comparison operator, got {op_token.text!r}")
        right = self._parse_operand()
        op = "!=" if op_token.value == "<>" else op_token.value
        return Comparison(op, left, right)

    def _parse_operand(self):
        token = self._peek()
        if token.kind in ("string", "number"):
            return self._parse_literal()
        if token.kind == "keyword" and token.value in ("true", "false", "null",
                                                       "none"):
            return self._parse_literal()
        return self._parse_column_ref()

    def _parse_literal(self) -> Literal:
        token = self._next()
        if token.kind in ("string", "number"):
            return Literal(token.value)
        if token.kind == "keyword" and token.value == "true":
            return Literal(True)
        if token.kind == "keyword" and token.value == "false":
            return Literal(False)
        if token.kind == "keyword" and token.value in ("null", "none"):
            return Literal(None)
        raise SqlError(f"expected literal, got {token.text!r}")


def parse_predicate(text: str):
    """Parse a bare predicate — the body of a WHERE clause — into its
    ``Comparison`` / ``BoolOp`` / ... nodes (xlog's filter and ask
    predicates are these).

    Raises:
        SqlError: on syntax errors, including trailing tokens.
    """
    parser = _Parser(_lex(text))
    node = parser._parse_or()
    if parser._peek().kind != "eof":
        raise SqlError(f"unexpected {parser._peek().text!r} after predicate")
    return node


def parse_sql(sql: str | list[_Token]):
    """Parse one SQL statement (its text or its tokens) into its AST node.

    Raises:
        SqlError: on syntax errors.
    """
    return _Parser(_lex(sql) if isinstance(sql, str) else sql).parse()


def normalize_sql(sql: str | list[_Token]) -> str:
    """Canonical text for a statement (text or tokens): whitespace
    collapsed, keywords uppercased, literals re-rendered.  Two statements
    that tokenize the same normalize the same — the slow-query log's
    text.

    Raises:
        SqlError: on lexing errors.
    """
    return _render_tokens(_lex(sql) if isinstance(sql, str) else sql, False)


def _render_tokens(tokens: list[_Token], slots: bool) -> str:
    """The tokens' canonical text; ``slots`` renders each string or
    number literal as its typed slot (``?s`` / ``?i`` / ``?f``)."""
    parts: list[str] = []
    for token in tokens:
        if token.kind == "eof":
            break
        if token.kind == "keyword":
            parts.append(token.value.upper())
        elif slots and token.kind in ("string", "number"):
            parts.append(_SLOTS[type(token.value)])
        elif token.kind == "string":
            parts.append("'" + str(token.value).replace("'", "''") + "'")
        elif token.kind == "number":
            # repr(1e400) is ``inf``, which reads as an identifier
            parts.append(repr(token.value) if math.isfinite(token.value)
                         else token.text)
        else:
            parts.append(token.text)
    return " ".join(parts)


# ------------------------------------------------------------------ binding


def _is_slot(value: Any) -> bool:
    """A literal spelled as a string or number token; TRUE, FALSE and
    NULL are keywords, part of the shape."""
    return value is not None and value is not True and value is not False


def _rebind(node: Any, values: Iterator[Any]) -> Any:
    """``node`` with each slot literal replaced by the next of
    ``values``, in text order."""
    if isinstance(node, Comparison):
        return Comparison(node.op, _rebind(node.left, values),
                          _rebind(node.right, values))
    if isinstance(node, Literal):
        return Literal(next(values)) if _is_slot(node.value) else node
    if isinstance(node, BoolOp):
        return BoolOp(node.op,
                      tuple([_rebind(n, values) for n in node.operands]))
    if isinstance(node, LikePredicate):
        return LikePredicate(node.column, next(values), node.negated)
    if isinstance(node, InPredicate):
        return InPredicate(node.column, tuple([
            next(values) if _is_slot(v) else v for v in node.values]),
            node.negated)
    return node


def bind_literals(stmt: SelectStatement,
                  literals: Iterable[Any]) -> SelectStatement:
    """A new statement: ``stmt`` with its slot literals, in text order,
    replaced by ``literals``.  A parsed SELECT keeps each of its literals
    in WHERE, HAVING or LIMIT, in text order, so the literals split from
    any text of ``stmt``'s shape bind to that text's parse.  Only the
    WHERE and HAVING trees are new; the literal-free parts are shared,
    and nothing mutates them."""
    values = iter(literals)
    where = _rebind(stmt.where, values)
    having = _rebind(stmt.having, values)
    return SelectStatement(
        stmt.items, stmt.star, stmt.table, stmt.join_table, stmt.join_left,
        stmt.join_right, where, stmt.group_by, having, stmt.order_by,
        stmt.order_desc, None if stmt.limit is None else next(values))


# ----------------------------------------------------------------- evaluator


def _resolve(row: dict[str, Any], ref: ColumnRef) -> Any:
    if ref.table is not None:
        qualified = f"{ref.table}.{ref.name}"
        if qualified in row:
            return row[qualified]
    if ref.name in row:
        return row[ref.name]
    matches = [k for k in row if k.endswith("." + ref.name)]
    if len(matches) == 1:
        return row[matches[0]]
    raise SqlError(f"unknown column {ref.key()!r}")


@functools.lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE)


_COMPARE_FN = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def eval_predicate(node: Any, row: dict[str, Any]) -> bool:
    """Evaluate a parsed predicate against a row dict (SQL three-valued
    logic simplified: comparisons with NULL are false)."""
    if isinstance(node, Comparison):
        left, right = node.left, node.right
        left = left.value if isinstance(left, Literal) else _resolve(row, left)
        right = right.value if isinstance(right, Literal) \
            else _resolve(row, right)
        if left is None or right is None:
            return False
        try:
            return _COMPARE_FN[node.op](left, right)
        except TypeError as exc:
            raise SqlError(f"type error comparing {left!r} {node.op} {right!r}") from exc
    if node is None:
        return True
    if isinstance(node, BoolOp):
        if node.op == "and":
            return all(eval_predicate(n, row) for n in node.operands)
        if node.op == "or":
            return any(eval_predicate(n, row) for n in node.operands)
        return not eval_predicate(node.operands[0], row)
    if isinstance(node, LikePredicate):
        value = _resolve(row, node.column)
        if not isinstance(value, str):
            return node.negated
        matched = bool(_like_to_regex(node.pattern).match(value))
        return matched != node.negated
    if isinstance(node, NullPredicate):
        is_null = _resolve(row, node.column) is None
        return is_null != node.negated
    if isinstance(node, InPredicate):
        value = _resolve(row, node.column)
        return (value in node.values) != node.negated
    raise SqlError(f"cannot evaluate predicate node {node!r}")


def _feedback_keys(where: Any) -> list[tuple[str, str]]:
    """(column, predicate shape) pairs for cardinality feedback.

    Flattens the top-level AND; OR/NOT subtrees and column-to-column
    comparisons get no per-column attribution (re-analyzing one column's
    histogram could not fix them anyway)."""
    keys: list[tuple[str, str]] = []
    stack = [where]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, BoolOp):
            if node.op == "and":
                stack.extend(node.operands)
            continue
        if isinstance(node, Comparison):
            if isinstance(node.left, ColumnRef) and isinstance(node.right, Literal):
                ref = node.left
            elif isinstance(node.right, ColumnRef) and isinstance(node.left, Literal):
                ref = node.right
            else:
                continue
            shape = "eq" if node.op == "=" else (
                "neq" if node.op == "!=" else "range")
            keys.append((ref.name, shape))
        elif isinstance(node, LikePredicate):
            keys.append((node.column.name, "like"))
        elif isinstance(node, NullPredicate):
            keys.append((node.column.name, "null"))
        elif isinstance(node, InPredicate):
            keys.append((node.column.name, "in"))
    return keys


def _equality_lookup(node: Any) -> tuple[str, Any] | None:
    """If the predicate is a top-level ``col = literal`` (possibly inside an
    AND), return (column, value) for index-assisted execution."""
    if isinstance(node, Comparison) and node.op == "=":
        if isinstance(node.left, ColumnRef) and isinstance(node.right, Literal):
            return node.left.name, node.right.value
        if isinstance(node.right, ColumnRef) and isinstance(node.left, Literal):
            return node.right.name, node.left.value
    if isinstance(node, BoolOp) and node.op == "and":
        for operand in node.operands:
            found = _equality_lookup(operand)
            if found is not None:
                return found
    return None


def order_key(stmt: SelectStatement) -> str:
    """The key ORDER BY reads off a *projected* row: the select item the
    ORDER BY column names (by output key or by column), else the column
    as written — which a projection that dropped it answers with NULL."""
    assert stmt.order_by is not None
    wanted = stmt.order_by.key()
    for item in stmt.items:
        if item.key() == wanted or (
            isinstance(item.expr, ColumnRef) and item.expr.name == stmt.order_by.name
        ):
            return item.key()
    return wanted


class _Executor:
    """Runs statements inside one transaction through the cost-based
    planner (:mod:`repro.storage.rdbms.planner`)."""

    def __init__(self, db: Database, txn: Transaction,
                 prepared: Any = None) -> None:
        self._db = db
        self._txn = txn
        #: the SELECT's :class:`~repro.storage.rdbms.planner.PreparedSelect`
        #: when its shape was prepared already: planning only binds
        self._prepared = prepared

    def execute(self, stmt) -> list[dict[str, Any]]:
        """Run one SELECT, INSERT, UPDATE or DELETE.  A write finds all
        its rows first and then applies them in one
        :meth:`~repro.storage.rdbms.engine.Transaction.write_many`, so a
        statement that fails leaves none of its writes behind."""
        if isinstance(stmt, SelectStatement):
            return self._select(stmt)
        if isinstance(stmt, InsertStatement):
            self._txn.write_many(stmt.table, [
                ("insert", {c: v.value for c, v in zip(stmt.columns, row)})
                for row in stmt.rows])
            return [{"inserted": len(stmt.rows)}]
        if isinstance(stmt, UpdateStatement):
            changes = {c: v.value for c, v in stmt.assignments.items()}
            rids = self._matching_rids(stmt.table, stmt.where)
            self._txn.write_many(
                stmt.table, [("update", rid, changes) for rid in rids])
            return [{"updated": len(rids)}]
        if isinstance(stmt, DeleteStatement):
            rids = self._matching_rids(stmt.table, stmt.where)
            self._txn.write_many(stmt.table, [("delete", rid) for rid in rids])
            return [{"deleted": len(rids)}]
        raise SqlError(f"cannot execute {stmt!r}")

    # -- row production

    def _matching_rids(self, table: str, where) -> list[int]:
        """Rids of the rows of ``table`` a DML statement's WHERE selects:
        those of the planned ``SELECT * FROM table WHERE <where>`` — its
        access path, residual filter and scan kernel, and its predicate
        feedback — read off the source's units, so no row is decoded to
        decide whether it matches.  The list is complete before the
        first row is written."""
        from repro.storage.rdbms import planner as _planner

        stmt = SelectStatement(items=[], star=True, table=table, where=where)
        plan = _planner.Planner(self._db).plan_select(stmt)
        rids = gather_rids(plan.source.units(self._txn))
        self._record_feedback(stmt, plan, len(rids))
        return rids

    def _select(self, stmt: SelectStatement,
                plan: Any = None) -> list[dict[str, Any]]:
        from repro.storage.rdbms import planner as _planner

        tracer = get_tracer()
        if plan is None:
            with tracer.span("rdbms.plan"):
                planner = _planner.Planner(self._db)
                plan = planner.plan_select(stmt) if self._prepared is None \
                    else planner.bind(self._prepared, stmt)
        with tracer.span("rdbms.exec") as span:
            result = plan.execute(self._txn)
            span.set_attribute("rows", len(result))
        if plan.root is not plan.source:  # the aggregate stage
            source_count = plan.root.source_rows
        else:
            source_count = len(result) if stmt.limit is None else None
        self._record_feedback(stmt, plan, source_count)
        return result

    def _record_feedback(self, stmt: SelectStatement, plan,
                         source_count: int | None) -> None:
        """Feed estimated-vs-actual source cardinality to the statistics
        manager.  Single-table plans compare the source root's estimate
        against the rows it actually produced (exact from the operator
        profile under ANALYZE, otherwise derived from the result when no
        LIMIT truncated it); join plans contribute per-access-path
        observations only when profiled."""
        if stmt.join_table is not None:
            if plan.output_profile is not None:
                self._record_operator_feedback(plan.source)
            return
        src = plan.source
        prof = src.profile
        if prof is not None and prof.loops:
            if (stmt.limit is not None and stmt.order_by is None) \
                    or src.stops_early:
                return  # a bare LIMIT or a top-k walk: truncated actuals
            source_count = prof.rows
        if source_count is None or stmt.where is None:
            return
        keys = _feedback_keys(stmt.where)
        if keys:
            self._db.statistics().record_predicate_feedback(
                stmt.table, keys, src.est_rows, source_count)

    def _record_operator_feedback(self, node) -> None:
        """Per-access-path feedback for profiled join subtrees."""
        prof = node.profile
        if prof is not None and prof.loops:
            keys = node.feedback_keys()
            if keys:
                self._db.statistics().record_predicate_feedback(
                    node.table, keys, node.est_rows, prof.rows)
        for child in node.children():
            self._record_operator_feedback(child)


class _Interpreter(_Executor):
    """The reference interpreter (``use_planner=False``): the semantics
    oracle the planner is tested against."""

    def _matching_rids(self, table: str, where) -> list[int]:
        return [row["__rid__"] for row in self._matching_rows(table, where)]

    def _matching_rows(self, table: str, where) -> list[dict[str, Any]]:
        """Reference interpreter: rows of ``table`` satisfying ``where``
        (each with ``__rid__``), via one top-level indexed equality or a
        full scan."""
        lookup = _equality_lookup(where) if where is not None else None
        if lookup is not None and self._db._find_index(table, lookup[0]) is not None:
            candidates = self._txn.lookup(table, lookup[0], lookup[1])
        else:
            candidates = self._txn.scan(table)
        rows = []
        for r in candidates:
            row = dict(r.values)
            row["__rid__"] = r.rid
            if eval_predicate(where, row):
                rows.append(row)
        return rows

    def _select(self, stmt: SelectStatement) -> list[dict[str, Any]]:
        has_aggregates = any(isinstance(i.expr, Aggregate) for i in stmt.items)
        aggregate_stage = bool(stmt.group_by) or has_aggregates
        if not aggregate_stage and stmt.having is not None:
            raise SqlError("HAVING requires GROUP BY or aggregates")
        rows = self._source_rows(stmt)
        rows = [r for r in rows if eval_predicate(stmt.where, r)]
        if aggregate_stage:
            result = self._aggregate(stmt, rows)
            if stmt.having is not None:
                result = [r for r in result if eval_predicate(stmt.having, r)]
        elif stmt.star:
            result = [
                {k: v for k, v in r.items() if k != "__rid__"} for r in rows
            ]
        else:
            result = [
                {item.key(): _resolve(r, item.expr) for item in stmt.items}
                for r in rows
            ]
        return self._order_and_limit(stmt, result)

    def _order_and_limit(self, stmt: SelectStatement,
                         result: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
        """Apply ORDER BY and LIMIT to ``result`` (list or row iterator).

        ``ORDER BY … LIMIT k`` runs as a heap top-k — ``heapq.nsmallest``
        / ``nlargest`` are documented equivalent to full-sort-then-slice
        (and stable), so the output rows are identical but the sort never
        materializes more than k rows beyond the heap.  A bare LIMIT
        stops consuming the row iterator after k rows."""
        if stmt.order_by is not None:
            key_name = order_key(stmt)

            def sort_key(r: dict[str, Any]) -> tuple:
                return (r.get(key_name) is None, r.get(key_name))

            if stmt.limit is not None and stmt.limit >= 0:
                pick = heapq.nlargest if stmt.order_desc else heapq.nsmallest
                return pick(stmt.limit, result, key=sort_key)
            result = list(result)
            result.sort(key=sort_key, reverse=stmt.order_desc)
        if stmt.limit is not None:
            if stmt.limit >= 0:
                return list(itertools.islice(result, stmt.limit))
            return list(result)[: stmt.limit]
        return result if isinstance(result, list) else list(result)

    def _source_rows(self, stmt: SelectStatement) -> list[dict[str, Any]]:
        if stmt.join_table is None:
            return self._matching_rows(stmt.table, None)
        left_rows = self._txn.scan(stmt.table)
        right_rows = self._txn.scan(stmt.join_table)
        assert stmt.join_left is not None and stmt.join_right is not None
        left_col, right_col = self._join_columns(stmt)
        # hash join on the right side
        buckets: dict[Any, list] = {}
        for rr in right_rows:
            buckets.setdefault(rr.values.get(right_col), []).append(rr)
        joined: list[dict[str, Any]] = []
        for lr in left_rows:
            key = lr.values.get(left_col)
            if key is None:
                continue
            for rr in buckets.get(key, ()):
                row: dict[str, Any] = {}
                for k, v in lr.values.items():
                    row[f"{stmt.table}.{k}"] = v
                    row.setdefault(k, v)
                for k, v in rr.values.items():
                    row[f"{stmt.join_table}.{k}"] = v
                    row.setdefault(k, v)
                row["__rid__"] = lr.rid
                joined.append(row)
        return joined

    def _join_columns(self, stmt: SelectStatement) -> tuple[str, str]:
        assert stmt.join_left is not None and stmt.join_right is not None
        left, right = stmt.join_left, stmt.join_right
        if left.table == stmt.join_table or right.table == stmt.table:
            left, right = right, left
        return left.name, right.name

    def _aggregate(self, stmt: SelectStatement, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        groups: dict[tuple, list[dict[str, Any]]] = {}
        for row in rows:
            key = tuple(_resolve(row, g) for g in stmt.group_by)
            groups.setdefault(key, []).append(row)
        if not stmt.group_by and not groups:
            groups[()] = []
        out: list[dict[str, Any]] = []
        for key, members in sorted(
            groups.items(), key=lambda kv: tuple((v is None, v) for v in kv[0])
        ):
            result: dict[str, Any] = {}
            for g, value in zip(stmt.group_by, key):
                result[g.key()] = value
            for item in stmt.items:
                if isinstance(item.expr, Aggregate):
                    result[item.key()] = self._agg_value(item.expr, members)
                elif stmt.group_by and any(
                    g.name == item.expr.name for g in stmt.group_by
                ):
                    pass  # already emitted as a group key
                else:
                    raise SqlError(
                        f"column {item.key()!r} must appear in GROUP BY"
                    )
            out.append(result)
        return out

    @staticmethod
    def _agg_value(agg: Aggregate, members: list[dict[str, Any]]) -> Any:
        if agg.func == "count":
            if agg.column is None:
                return len(members)
            return sum(1 for m in members if _resolve(m, agg.column) is not None)
        values = [
            v for m in members
            if (v := _resolve(m, agg.column)) is not None  # type: ignore[arg-type]
        ]
        if not values:
            return None
        if agg.func == "sum":
            return sum(values)
        if agg.func == "avg":
            return sum(values) / len(values)
        if agg.func == "min":
            return min(values)
        if agg.func == "max":
            return max(values)
        raise SqlError(f"unknown aggregate {agg.func!r}")


def _explain_rows(db: Database, stmt: ExplainStatement) -> list[dict[str, Any]]:
    from repro.storage.rdbms import planner as _planner

    lines = _planner.Planner(db).explain(stmt.select)
    return [{"plan": line} for line in lines]


def _analyze_rows(db: Database, stmt: ExplainStatement,
                  txn: Transaction) -> list[dict[str, Any]]:
    """EXPLAIN ANALYZE: run the planned SELECT instrumented, render the
    plan annotated with per-operator actuals plus a summary line."""
    from repro.storage.rdbms import planner as _planner
    from repro.telemetry import metrics as _metrics

    select = stmt.select
    tracer = get_tracer()
    with tracer.span("rdbms.plan"):
        plan = _planner.Planner(db).plan_select(select)
    plan.enable_profiling()
    executor = _Executor(db, txn)
    t0 = perf_counter()
    rows = executor._select(select, plan=plan)
    total = perf_counter() - t0
    _metrics.get_registry().inc("planner.explain_analyze")
    lines = plan.render()
    lines.append(f"Execution: {len(rows)} rows in {total * 1000.0:.2f} ms")
    return [{"plan": line} for line in lines]


def _run_snapshot_read(db: Database, guard: CancellationToken | None,
                       runner) -> list[dict[str, Any]]:
    """Run a read-only statement against a fresh commit-point snapshot."""
    snap = db.begin_snapshot(guard=guard)
    try:
        return runner(snap)
    finally:
        snap.commit()


def require_tables(db: Database, tables: Iterable[str | None],
                   txn: Any = None) -> None:
    """Raise :class:`SqlError` for the first of ``tables`` (None skipped)
    that the statement's reader does not hold: ``txn`` (a snapshot holds
    the tables of its commit point), else ``db`` as it is now."""
    for name in tables:
        if name is not None and not (name in db._tables if txn is None
                                     else txn.has_table(name)):
            raise SqlError(f"unknown table {name!r}")


def execute_statement(db: Database, stmt, txn: Transaction | None = None,
                      use_planner: bool = True,
                      guard: CancellationToken | None = None,
                      prepared: Any = None) -> list[dict[str, Any]]:
    """Execute one already-parsed statement (see :func:`execute_sql`);
    a SELECT whose shape is ``prepared`` is planned by binding it."""
    if guard is not None:
        guard.check()
    if isinstance(stmt, CreateTableStatement):
        db.create_table(stmt.schema)
        return [{"created": stmt.schema.name}]
    named = stmt.select if isinstance(stmt, ExplainStatement) else stmt
    require_tables(db, (named.table, getattr(named, "join_table", None)),
                   txn)
    if isinstance(stmt, CompactStatement):
        summary = db.compact(stmt.table)
        return [{
            "compacted": stmt.table,
            "segments_created": summary["segments_created"],
            "rows_frozen": summary["rows_frozen"],
        }]
    if isinstance(stmt, ExplainStatement):
        if not stmt.analyze:
            return _explain_rows(db, stmt)
        if txn is not None:
            return _analyze_rows(db, stmt, txn)
        return _run_snapshot_read(
            db, guard, lambda snap: _analyze_rows(db, stmt, snap))
    executor = _Executor if use_planner else _Interpreter
    if txn is not None:
        return executor(db, txn, prepared).execute(stmt)
    if isinstance(stmt, SelectStatement):
        # Auto-transaction SELECTs run lock-free on a committed snapshot:
        # they cannot block behind writers, deadlock, or enter the
        # waits-for graph (DESIGN.md §15).
        return _run_snapshot_read(
            db, guard, lambda snap: executor(db, snap, prepared).execute(stmt))
    return db.run(lambda t: executor(db, t).execute(stmt), guard=guard)


def execute_sql(db: Database, sql: str, txn: Transaction | None = None,
                use_planner: bool = True,
                guard: CancellationToken | None = None,
                ) -> list[dict[str, Any]]:
    """Parse and execute one SQL statement.

    If ``txn`` is None, SELECTs run lock-free on a commit-point snapshot
    and writes run in their own transaction (with deadlock/lock-timeout
    retry).  Returns result rows as a list of dicts; DML returns a
    one-row summary (e.g. ``[{"updated": 3}]``), ``EXPLAIN <select>`` one
    ``{"plan": line}`` row per plan-tree line.

    ``use_planner=False`` bypasses the cost-based planner and runs the
    naive interpreter — the reference semantics the planner is tested
    against.  ``guard`` is an optional cooperative-cancellation token
    (query deadline / shutdown) checked throughout execution.

    Raises:
        SqlError: on parse or execution errors.
        QueryDeadlockError: retries exhausted on a persistent deadlock.
        QueryLockTimeoutError: retries exhausted on lock-wait timeouts.
        QueryTimeoutError: the guard's deadline passed mid-execution.
    """
    with query_errors(sql):
        return execute_statement(db, parse_sql(sql), txn, use_planner, guard)


@contextmanager
def query_errors(sql: str) -> Iterator[None]:
    """Name ``sql`` in the query errors raised inside, and raise the lock
    manager's deadlock / lock-wait timeout as :class:`QueryDeadlockError`
    / :class:`QueryLockTimeoutError`: what every entry point raises."""
    try:
        yield
    except QueryError as exc:
        if exc.sql is None:
            exc.sql = sql
        raise
    except DeadlockError as exc:
        raise QueryDeadlockError(str(exc), sql=sql) from exc
    except LockTimeoutError as exc:
        raise QueryLockTimeoutError(str(exc), sql=sql) from exc
