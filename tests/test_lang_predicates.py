"""xlog predicates are SQL predicates.

``filter(...)`` and ``ask(where=...)`` parse with the SQL predicate parser
and evaluate through ``sql.eval_predicate``, under xlog's tuple semantics.
The hypothesis differential keeps the expression parser and evaluator xlog
used to carry as its oracle: on the grammar both accept they must agree on
every truth value and every rendering, and ``LogicalPlan.render()`` — which
a program's identity hashes — is pinned for every program in the repo.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docmodel.document import Document
from repro.extraction.base import Extractor
from repro.extraction.infobox import InfoboxExtractor
from repro.lang import (LogicalPlan, OperatorRegistry, Optimizer, ParseError,
                        parse_program, run_program)
from repro.lang.ast import AskOp, FilterOp, JoinOp, eval_expr, render_expr
from repro.lang.parser import parse_expression
from repro.storage.rdbms.sql import Literal, parse_predicate


# ------------------------------------------------- oracle: the old evaluator


@dataclass(frozen=True)
class FieldRef:
    name: str


@dataclass(frozen=True)
class Const:
    value: Any


@dataclass(frozen=True)
class Compare:
    op: str
    left: Any
    right: Any


@dataclass(frozen=True)
class Logic:
    op: str
    operands: tuple[Any, ...]


_EXPR_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
      | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<op><=|>=|!=|=|<|>|\(|\))
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )""",
    re.VERBOSE,
)


class _ExprParser:
    """The recursive-descent predicate parser xlog had of its own."""

    def __init__(self, text: str) -> None:
        self._tokens = self._lex(text)
        self._pos = 0

    @staticmethod
    def _lex(text: str) -> list[tuple[str, Any]]:
        tokens: list[tuple[str, Any]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            match = _EXPR_TOKEN_RE.match(text, pos)
            if match is None or match.end() == pos:
                raise ValueError(f"cannot tokenize at {text[pos:pos+15]!r}")
            pos = match.end()
            if match.group("string") is not None:
                tokens.append(("const", match.group("string")[1:-1]))
            elif match.group("number") is not None:
                raw = match.group("number")
                is_float = "." in raw or "e" in raw.lower()
                tokens.append(("const", float(raw) if is_float else int(raw)))
            elif match.group("op") is not None:
                tokens.append(("op", match.group("op")))
            else:
                word = match.group("word")
                lowered = word.lower()
                if lowered in ("and", "or", "not"):
                    tokens.append(("logic", lowered))
                elif lowered == "true":
                    tokens.append(("const", True))
                elif lowered == "false":
                    tokens.append(("const", False))
                elif lowered in ("none", "null"):
                    tokens.append(("const", None))
                else:
                    tokens.append(("field", word))
        tokens.append(("eof", None))
        return tokens

    def parse(self) -> Any:
        node = self._parse_or()
        if self._tokens[self._pos][0] != "eof":
            raise ValueError("trailing tokens")
        return node

    def _parse_or(self) -> Any:
        operands = [self._parse_and()]
        while self._at("logic", "or"):
            self._pos += 1
            operands.append(self._parse_and())
        return operands[0] if len(operands) == 1 else Logic("or", tuple(operands))

    def _parse_and(self) -> Any:
        operands = [self._parse_not()]
        while self._at("logic", "and"):
            self._pos += 1
            operands.append(self._parse_not())
        return operands[0] if len(operands) == 1 else Logic("and", tuple(operands))

    def _parse_not(self) -> Any:
        if self._at("logic", "not"):
            self._pos += 1
            return Logic("not", (self._parse_not(),))
        return self._parse_comparison()

    def _parse_comparison(self) -> Any:
        left = self._parse_atom()
        kind, value = self._tokens[self._pos]
        if kind == "op" and value in ("=", "!=", "<", "<=", ">", ">="):
            self._pos += 1
            return Compare(value, left, self._parse_atom())
        return left

    def _parse_atom(self) -> Any:
        kind, value = self._tokens[self._pos]
        if kind == "op" and value == "(":
            self._pos += 1
            node = self._parse_or()
            if self._tokens[self._pos] != ("op", ")"):
                raise ValueError("expected ')'")
            self._pos += 1
            return node
        if kind == "const":
            self._pos += 1
            return Const(value)
        if kind == "field":
            self._pos += 1
            return FieldRef(value)
        raise ValueError(f"unexpected token {value!r}")

    def _at(self, kind: str, value: Any) -> bool:
        return self._tokens[self._pos] == (kind, value)


def oracle_eval(node: Any, row: dict[str, Any]) -> Any:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, FieldRef):
        return row.get(node.name)
    if isinstance(node, Compare):
        left = oracle_eval(node.left, row)
        right = oracle_eval(node.right, row)
        if left is None or right is None:
            return False
        try:
            return {"=": lambda: left == right, "!=": lambda: left != right,
                    "<": lambda: left < right, "<=": lambda: left <= right,
                    ">": lambda: left > right, ">=": lambda: left >= right,
                    }[node.op]()
        except TypeError:
            return False
    if node.op == "and":
        return all(oracle_eval(o, row) for o in node.operands)
    if node.op == "or":
        return any(oracle_eval(o, row) for o in node.operands)
    return not oracle_eval(node.operands[0], row)


def oracle_render(node: Any) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, FieldRef):
        return node.name
    if isinstance(node, Compare):
        return f"{oracle_render(node.left)} {node.op} {oracle_render(node.right)}"
    if node.op == "not":
        return f"not ({oracle_render(node.operands[0])})"
    return "(" + f" {node.op} ".join(map(oracle_render, node.operands)) + ")"


# ------------------------------------------------------------- differential

FIELDS = ("a", "b", "value", "n", "on", "where")
_text = st.text(alphabet="ab Z9%_.", max_size=6)
_literal = st.one_of(
    st.integers(-50, 50).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    _text.map(lambda s: f"'{s}'"),
    (_text | st.just("it's")).map(lambda s: f'"{s}"'),
    st.sampled_from(["true", "TRUE", "false", "False", "none", "None",
                     "null"]),
)
_operand = st.sampled_from(FIELDS) | _literal
_comparison = st.builds(
    lambda left, op, right: f"{left} {op} {right}",
    _operand, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _operand)


def _compound(inner):
    return st.one_of(
        st.builds(lambda a, kw, b: f"{a} {kw} {b}", inner,
                  st.sampled_from(["and", "AND", "or", "Or"]), inner),
        inner.map(lambda p: f"not {p}"),
        inner.map(lambda p: f"({p})"),
    )


predicates = st.recursive(_comparison, _compound, max_leaves=6)
_cell = st.one_of(st.none(), st.booleans(), st.integers(-50, 50),
                  st.floats(-1e3, 1e3, allow_nan=False), _text)
tuples = st.dictionaries(st.sampled_from(FIELDS), _cell)


@settings(max_examples=400, deadline=None)
@given(text=predicates, rows=st.lists(tuples, min_size=5, max_size=5))
def test_sql_predicates_agree_with_the_old_evaluator(text, rows):
    old = _ExprParser(text).parse()
    new = parse_expression(text)
    assert render_expr(new) == oracle_render(old)
    for row in rows:
        assert eval_expr(new, row) == bool(oracle_eval(old, row)), (text, row)


# ------------------------------------------------------ new to xlog, and edges

ROWS = [
    {"attribute": "sep_temp", "value": 70, "unit": "F"},
    {"attribute": "population", "value": 233209, "unit": None},
    {"attribute": "jul_temp", "value": "warm"},
    {"value": 3},
]


def _kept(text: str) -> list[int]:
    predicate = parse_expression(text)
    return [i for i, row in enumerate(ROWS) if eval_expr(predicate, row)]


def test_like_filters_tuples():
    assert _kept("attribute LIKE '%_temp'") == [0, 2]
    assert _kept("attribute not like '%_temp'") == [1, 3]


def test_in_filters_tuples():
    assert _kept("attribute in ('population', \"jul_temp\")") == [1, 2]
    assert _kept("value in (70, 3)") == [0, 3]


def test_is_null_filters_tuples():
    # a field the tuple lacks reads NULL
    assert _kept("unit is null") == [1, 2, 3]
    assert _kept("unit is not null and value > 1") == [0]


def test_like_in_and_is_null_run_in_a_program():
    docs = [Document("d1", "{{Infobox city | name = Madison | sep_temp = 71 "
                           "| jul_temp = 80 | population = 233209 }}")]
    registry = OperatorRegistry()
    registry.register_extractor("infobox", InfoboxExtractor())
    source = ('a = docs()\nb = extract(a, "infobox")\n'
              "c = filter(b, attribute like '%_temp' and unit is null "
              "and value not in (80))\noutput c")
    plan = LogicalPlan.from_ops(*parse_program(source))
    assert plan.render().splitlines()[2] == (
        "c = filter(b, (attribute like '%_temp' and unit is null "
        "and value not in (80)))")
    rows = run_program(source, docs, registry).rows
    assert [(r["attribute"], r["value"]) for r in rows] == [("sep_temp", 71)]


def test_comparisons_with_null_or_incomparable_values_are_false_under_not():
    assert eval_expr(parse_expression("not value < 'a'"), {"value": 1})
    assert eval_expr(parse_expression("not value < 5"), {})
    assert not eval_expr(parse_expression("value < 'a'"), {"value": 1})


def test_a_bare_field_or_literal_is_not_a_predicate():
    for text in ("flag", "true", "not flag", "flag and x = 1"):
        with pytest.raises(ParseError):
            parse_expression(text)
    assert eval_expr(parse_expression("flag = true"), {"flag": True})


def test_single_quoted_strings_escape_by_doubling():
    predicate = parse_expression("name = 'it''s'")
    assert eval_expr(predicate, {"name": "it's"})
    assert render_expr(predicate) == 'name = "it\'s"'
    with pytest.raises(ParseError):
        parse_expression(r"name = 'a\'b'")


def test_double_quoted_strings_and_none_are_sql_literals():
    assert parse_predicate('x = "a ""b"" c"').right == Literal('a "b" c')
    assert parse_predicate("x = none").right == Literal(None)
    assert parse_predicate("x = NULL").right == Literal(None)


# -------------------------------------------------- per-operator keywords


def test_fields_named_like_keywords_are_predicates():
    source = ('a = docs()\nb = extract(a, "e")\n'
              "c = filter(b, n = 5)\nd = filter(c, on = 1)\n"
              "e = filter(d, where = 'x')\n"
              'f = ask(e, "validate", where = n > 1, redundancy = 2)\n'
              "g = join(f, b, on = entity)\noutput g")
    ops, _ = parse_program(source)
    filters = [op for op in ops if isinstance(op, FilterOp)]
    assert [render_expr(op.predicate) for op in filters] == \
        ["n = 5", "on = 1", "where = 'x'"]
    ask = next(op for op in ops if isinstance(op, AskOp))
    assert render_expr(ask.where) == "n > 1" and ask.redundancy == 2
    assert next(op for op in ops if isinstance(op, JoinOp)).on == "entity"


def test_limit_takes_no_keyword():
    with pytest.raises(ParseError, match="integer"):
        parse_program('a = docs()\nb = extract(a, "e")\nc = limit(b, n = 3)\n'
                      "output c")


# --------------------------------------------------------- program identity

PLANS = json.loads(
    (Path(__file__).parent / "data" / "xlog_plans.json").read_text())


class _Keyworded(Extractor):
    """Prefilters on its own name, so every extract gets a docfilter."""

    def __init__(self, name: str) -> None:
        self.name = name

    def extract(self, doc):
        return []

    def prefilter_terms(self):
        return [[self.name]]


@pytest.mark.parametrize("label", sorted(PLANS))
def test_plan_render_is_pinned(label):
    """Every xlog program in examples/, benchmarks/ and the lang tests
    renders — unoptimized and optimized — as it did before predicates
    were SQL predicates; ``program_facts`` hashes this text."""
    pinned = PLANS[label]
    plan = LogicalPlan.from_ops(*parse_program("\n".join(pinned["source"])))
    registry = OperatorRegistry()
    for name in sorted({op.extractor for op in plan.extract_ops()}):
        registry.register_extractor(name, _Keyworded(name))
    assert plan.render().split("\n") == pinned["plan"]
    optimized = Optimizer(registry).optimize(plan)
    assert optimized.render().split("\n") == pinned["optimized"]
