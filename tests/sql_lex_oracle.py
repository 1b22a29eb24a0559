"""The one-pass SQL lexer that ``repro.storage.rdbms.sql._lex`` was
before it had two stages, kept verbatim as the reference the two-stage
lexer is tested against (``tests/test_sql_lexer.py``)."""

import re

from repro.storage.rdbms.sql import SqlError, _Token

_SQL_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
      | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\.)
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )
    """,
    re.VERBOSE,
)

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


def oracle_lex(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        if sql[pos].isspace():
            pos += 1
            continue
        match = _SQL_TOKEN_RE.match(sql, pos)
        if match is None or match.end() == pos:
            raise SqlError(f"cannot tokenize SQL at: {sql[pos:pos+20]!r}")
        pos = match.end()
        if match.group("string") is not None:
            raw = match.group("string")
            quote = raw[0]
            tokens.append(_Token("string", raw[1:-1].replace(quote * 2, quote),
                                 raw))
        elif match.group("number") is not None:
            raw = match.group("number")
            is_float = "." in raw or "e" in raw.lower()
            value = float(raw) if is_float else int(raw)
            tokens.append(_Token("number", value, raw))
        elif match.group("op") is not None:
            tokens.append(_Token("op", match.group("op"), match.group("op")))
        else:
            word = match.group("word")
            kind = "keyword" if word.lower() in _KEYWORDS else "word"
            tokens.append(_Token(kind, word.lower() if kind == "keyword" else word, word))
    tokens.append(_Token("eof", None, ""))
    return tokens
