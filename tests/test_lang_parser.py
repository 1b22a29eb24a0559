"""Tests for the xlog parser and expression language."""

import pytest

from repro.lang.ast import (
    AskOp,
    DocsOp,
    ExtractOp,
    FilterOp,
    FuseOp,
    JoinOp,
    LimitOp,
    ResolveOp,
    SelectOp,
    UnionOp,
    eval_expr,
    expr_fields,
    render_expr,
)
from repro.lang.parser import ParseError, parse_expression, parse_program
from repro.storage.rdbms.sql import BoolOp, Comparison

PROGRAM = """
# extract temperatures, curate them, publish
pages  = docs()
temps  = extract(pages, "temp_rules")
good   = filter(temps, confidence >= 0.6 and value < 130)
canon  = resolve(good, "er")
fused  = fuse(canon, "weighted_vote")
asked  = ask(fused, "verify", where = confidence < 0.8, redundancy = 5)
final  = select(asked, entity, attribute, value)
output final
"""


def test_parse_program_shapes():
    ops, output = parse_program(PROGRAM)
    assert output == "final"
    types = [type(op).__name__ for op in ops]
    assert types == ["DocsOp", "ExtractOp", "FilterOp", "ResolveOp",
                     "FuseOp", "AskOp", "SelectOp"]


def test_parse_extract_and_filter_details():
    ops, _ = parse_program(PROGRAM)
    extract = next(o for o in ops if isinstance(o, ExtractOp))
    assert extract.extractor == "temp_rules"
    filter_op = next(o for o in ops if isinstance(o, FilterOp))
    assert isinstance(filter_op.predicate, BoolOp)
    assert expr_fields(filter_op.predicate) == {"confidence", "value"}


def test_parse_ask_kwargs():
    ops, _ = parse_program(PROGRAM)
    ask = next(o for o in ops if isinstance(o, AskOp))
    assert ask.mode == "verify"
    assert ask.redundancy == 5
    assert ask.where is not None


def test_parse_join_union_limit():
    source = (
        'a = docs()\nx = extract(a, "e1")\ny = extract(a, "e2")\n'
        "j = join(x, y, on = entity)\nu = union(x, y)\nl = limit(u, 10)\n"
        "output j"
    )
    ops, _ = parse_program(source)
    join = next(o for o in ops if isinstance(o, JoinOp))
    assert join.on == "entity" and join.inputs == ["x", "y"]
    union = next(o for o in ops if isinstance(o, UnionOp))
    assert union.inputs == ["x", "y"]
    limit = next(o for o in ops if isinstance(o, LimitOp))
    assert limit.n == 10


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("x = docs()\n")  # no output
    with pytest.raises(ParseError):
        parse_program("output nowhere")
    with pytest.raises(ParseError):
        parse_program("x = docs()\nx = docs()\noutput x")  # duplicate var
    with pytest.raises(ParseError):
        parse_program("x = bogus()\noutput x")
    with pytest.raises(ParseError):
        parse_program('x = extract(a)\noutput x')  # missing extractor arg
    with pytest.raises(ParseError):
        parse_program('x = docs()\ny = ask(x, "badmode")\noutput y')
    with pytest.raises(ParseError):
        parse_program("x = docs()\noutput x\noutput x")


def test_comments_and_blank_lines_ignored():
    ops, output = parse_program("# hi\n\nx = docs()  # trailing\noutput x")
    assert output == "x" and isinstance(ops[0], DocsOp)


def test_expression_comparisons():
    expr = parse_expression("confidence >= 0.5")
    assert isinstance(expr, Comparison)
    assert eval_expr(expr, {"confidence": 0.7}) is True
    assert eval_expr(expr, {"confidence": 0.3}) is False
    assert eval_expr(expr, {}) is False  # missing field is never a match


def test_expression_logic_and_parens():
    expr = parse_expression("(a = 1 or b = 2) and not c = 3")
    assert eval_expr(expr, {"a": 1, "c": 0}) is True
    assert eval_expr(expr, {"a": 1, "c": 3}) is False
    assert eval_expr(expr, {"a": 0, "b": 0, "c": 0}) is False


def test_expression_strings_and_booleans():
    expr = parse_expression('attribute = "sep_temp"')
    assert eval_expr(expr, {"attribute": "sep_temp"}) is True
    expr2 = parse_expression("flag = true")
    assert eval_expr(expr2, {"flag": True}) is True
    expr3 = parse_expression("x = none")
    # comparisons with None are False by design
    assert eval_expr(expr3, {"x": None}) is False


def test_expression_type_mismatch_is_false():
    expr = parse_expression("value < 10")
    assert eval_expr(expr, {"value": "a string"}) is False


def test_expression_parse_errors():
    with pytest.raises(ParseError):
        parse_expression("a = ")
    with pytest.raises(ParseError):
        parse_expression("(a = 1")
    with pytest.raises(ParseError):
        parse_expression("a = 1 extra garbage =")


def test_render_expr_roundtrips_semantics():
    source = "confidence >= 0.5 and (value < 130 or value > 200)"
    expr = parse_expression(source)
    rendered = render_expr(expr)
    again = parse_expression(rendered)
    for row in ({"confidence": 0.6, "value": 100},
                {"confidence": 0.6, "value": 150},
                {"confidence": 0.6, "value": 250},
                {"confidence": 0.4, "value": 100}):
        assert eval_expr(expr, row) == eval_expr(again, row)
