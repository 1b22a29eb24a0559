"""The SQL lexer (``sql.split_literals`` then ``sql._lex``): its two
stages give the tokens and the errors of the one-pass lexer they replaced
(``tests/sql_lex_oracle.py``), and it is the one SQL tokenizer in
``src/``."""

import ast
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms import sql as sqlmod
from tests.sql_lex_oracle import oracle_lex

#: pieces of SQL texts: quotes (doubled too), signs, digits, exponents,
#: dots, slot marks, words, keywords, ops, whitespace, and characters no
#: token takes (``;``, ``#``, a non-ASCII letter, digit and space)
_PIECES = ["'", '"', "''", '""', "+", "-", "0", "1", "7", "42", "e", "E",
           ".", "?", "?s", "?i", "?f", ";", " ", "  ", "\t", "\n", "a", "x1",
           "_", "select", "SELECT", "From", "inf", "=", "<", ">", "!", "<>",
           "!=", "(", ")", ",", "*", "#", "é", "٣", "\u00a0"]

_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.text(alphabet="'\"+-019eE.?;, \tax=<>!()*#", max_size=30),
)

_EXAMPLES = [
    "SELECT * FROM t WHERE a = 'it''s' AND b = \"a \"\"b\"\" c\"",
    "a1+1", "1e5x", "1.e5", "1.5.3", "1e-", "+.5", "x - 1", "1-1",
    "a < -1.5E+3 LIMIT -2", "WHERE a < 1e400", "'abc", "'ab''", "SELECT ?",
    "SELECT # ?", "SELECT ? #", "x = ?s", "'a'b", "٣ a٣",
    "x = 'y'", "", "   ", "select\tFROM\nSeLeCt",
]


def _outcome(lex, text):
    try:
        return [(t.kind, type(t.value), t.value, t.text) for t in lex(text)]
    except sqlmod.SqlError as exc:
        return str(exc)


def _agree(text):
    want = _outcome(oracle_lex, text)
    assert _outcome(sqlmod._lex, text) == want, text
    try:
        shape, literals, texts = sqlmod.split_literals(text)
    except sqlmod.SqlError as exc:  # stage 1 raises what the lexer raises
        assert str(exc) == want, text
        return
    assert _outcome(lambda t: sqlmod._lex(t, (shape, literals, texts)),
                    text) == want, text
    if isinstance(want, list):
        assert [(type(v), v) for v in literals] == [
            (kind, value) for name, kind, value, _ in want
            if name in ("string", "number")], text


@pytest.mark.parametrize("text", _EXAMPLES)
def test_the_lexer_tokenizes_as_the_one_pass_lexer(text):
    _agree(text)


@given(_TEXTS)
@settings(max_examples=1000, deadline=None)
def test_any_text_lexes_as_in_the_one_pass_lexer(text):
    _agree(text)


# ------------------------------------------------------------- structure

_SRC = pathlib.Path(sqlmod.__file__).parents[3]
_RE_CALLS = {"compile", "match", "fullmatch", "search", "findall",
             "finditer", "sub", "subn", "split"}
_STRING_LITERALS = ["'it''s'", '"a ""b"" c"']
_NUMBER_LITERALS = ["-12.5e+3", "42"]


def _is_re(node):
    return isinstance(node, ast.Name) and node.id == "re"


def _patterns(path):
    """Every regex ``path`` writes out as a literal, with its flags."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and _is_re(node.func.value) and node.func.attr in _RE_CALLS \
                and node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            flags = 0
            for arg in node.args[1:] + [k.value for k in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Attribute) and _is_re(sub.value):
                        flags |= getattr(re, sub.attr)
            yield re.compile(node.args[0].value, flags)


def _matching(paths, literals):
    return [p for path in paths for p in _patterns(path)
            if any(p.fullmatch(text) for text in literals)]


def test_one_pattern_in_the_engine_matches_a_sql_literal():
    found = _matching(sorted((_SRC / "repro/storage/rdbms").glob("*.py")),
                      _STRING_LITERALS + _NUMBER_LITERALS)
    assert found == [sqlmod._LITERAL_RE]


def test_no_other_pattern_in_src_matches_a_sql_string():
    assert _matching(sorted(_SRC.rglob("*.py")), _STRING_LITERALS) == [
        sqlmod._LITERAL_RE]


def test_only_the_lexer_reads_the_lexer_patterns():
    users = set()
    for path in _SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                users |= {(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, (ast.Name, ast.Attribute))
                          and getattr(node, "id", getattr(node, "attr", None))
                          in ("_LITERAL_RE", "_SHAPE_TOKEN_RE")}
    assert users == {("sql.py", "split_literals"), ("sql.py", "_lex")}
