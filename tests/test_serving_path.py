"""The serving path never reaches the reference interpreter.

``use_planner=False`` picks the naive interpreter in one place,
``execute_statement``; every statement the system serves plans.  The
interpreter's methods are patched to raise, then one statement of each
shape the system serves runs through ``system.query`` and through an
exploration session, over a heap-only and a compacted ``facts`` table.
Two structural tests hold each SQL write to one ``write_many`` and keep
DML's former access planner (``plan_access``) out of ``src/``.
"""

import ast
import inspect
import pathlib
import textwrap

import pytest

from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.storage.rdbms import planner, sql

_REFERENCE = ("_select", "_matching_rids", "_matching_rows", "_source_rows",
              "_aggregate", "_agg_value", "_order_and_limit",
              "_join_columns")

_SHAPES = [
    # the serve mix's four query classes (benchmarks/e2e/workloads.py)
    "SELECT fact_id, attribute, value_num FROM facts WHERE entity = 'c3'",
    "SELECT entity, attribute, value_num FROM facts WHERE fact_id = 7",
    "SELECT entity, value_num FROM facts WHERE attribute = 'a1' "
    "AND value_num > 10 ORDER BY value_num DESC LIMIT 10",
    "SELECT attribute, COUNT(*) AS n, AVG(value_num) AS a FROM facts "
    "WHERE confidence > 0.5 GROUP BY attribute",
    # a join aggregate
    "SELECT region, COUNT(*) AS n, MAX(value_num) AS hi FROM facts "
    "JOIN regions ON facts.entity = regions.entity GROUP BY region",
    "EXPLAIN SELECT attribute, COUNT(*) AS n FROM facts GROUP BY attribute",
    "EXPLAIN ANALYZE SELECT entity, SUM(value_num) AS s FROM facts "
    "WHERE attribute = 'a2' GROUP BY entity",
    "INSERT INTO facts (fact_id, entity, attribute, value_num) VALUES "
    "(100, 'c9', 'a1', 1.5), (101, 'c9', 'a2', 2.5)",
    "UPDATE facts SET confidence = 0.9 WHERE attribute = 'a1'",
    "UPDATE facts SET confidence = 0.1 WHERE attribute = 'a0' "
    "OR value_num > 50",
    "UPDATE facts SET doc_id = 'd0'",
    "DELETE FROM facts WHERE attribute = 'a2'",
    "DELETE FROM regions",
]


def _unreachable(name):
    def boom(*_args, **_kwargs):
        raise AssertionError(f"the serving path reached {name}")
    return boom


@pytest.mark.parametrize("compacted", [False, True])
@pytest.mark.parametrize("front", ["query", "session"])
def test_served_statements_never_reach_the_interpreter(monkeypatch, front,
                                                       compacted):
    system = StructureManagementSystem()
    try:
        system.db.run(lambda t: t.insert_many(FACTS_TABLE, [
            {"fact_id": i, "entity": f"c{i % 7}", "attribute": f"a{i % 3}",
             "value_num": float(i), "confidence": i % 10 / 10}
            for i in range(60)]))
        system.query("CREATE TABLE regions (entity TEXT PRIMARY KEY, "
                     "region TEXT)")
        system.query("INSERT INTO regions (entity, region) VALUES "
                     "('c0', 'north'), ('c1', 'south'), ('c3', 'north')")
        if compacted:
            system.compact()
        run = system.session("guard").structured if front == "session" \
            else system.query
        for name in _REFERENCE:
            monkeypatch.setattr(sql._Interpreter, name, _unreachable(name))
        for statement in _SHAPES:
            assert run(statement), statement
    finally:
        system.close()


def test_the_planner_never_references_the_executor():
    source = inspect.getsource(planner)
    assert "_Executor" not in source and "_Interpreter" not in source


def test_each_dml_statement_is_one_write_many():
    tree = ast.parse(textwrap.dedent(inspect.getsource(sql._Executor.execute)))
    writes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Call) \
                and getattr(node.test.func, "id", None) == "isinstance":
            kind = node.test.args[1].id
            calls = [call.func.attr for stmt in node.body
                     for call in ast.walk(stmt)
                     if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Attribute)]
            writes[kind] = [name for name in calls if name in (
                "write_many", "insert", "insert_many", "update", "delete")]
    assert {kind: writes.get(kind) for kind in (
        "InsertStatement", "UpdateStatement", "DeleteStatement")} == {
        "InsertStatement": ["write_many"],
        "UpdateStatement": ["write_many"],
        "DeleteStatement": ["write_many"]}


def test_no_source_module_names_plan_access():
    package = pathlib.Path(sql.__file__).parents[2]  # src/repro
    assert [str(path.relative_to(package)) for path in package.rglob("*.py")
            if "plan_access" in path.read_text()] == []
