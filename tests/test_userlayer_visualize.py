"""Tests for the text-visualization exploitation mode."""

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.snapshots import SnapshotStore
from repro.userlayer.search import KeywordSearchEngine
from repro.userlayer.session import ExplorationSession
from repro.userlayer.translate import QueryTranslator
from repro.userlayer.visualize import bar_chart, histogram, sparkline, table


def test_bar_chart_renders_labels_and_values():
    rows = [{"city": "Madison", "n": 10}, {"city": "Austin", "n": 20}]
    chart = bar_chart(rows, "city", "n")
    lines = chart.splitlines()
    assert len(lines) == 2
    assert "Madison" in lines[0] and "10" in lines[0]
    # Austin's bar is twice Madison's
    assert lines[1].count("█") == 2 * lines[0].count("█")


def test_bar_chart_validates_input():
    with pytest.raises(ValueError):
        bar_chart([], "a", "b")
    with pytest.raises(ValueError):
        bar_chart([{"a": "x", "b": "not a number"}], "a", "b")


def test_bar_chart_handles_negative_values():
    chart = bar_chart([{"k": "loss", "v": -5}, {"k": "gain", "v": 5}],
                      "k", "v")
    assert "-5" in chart and "5" in chart


def test_sparkline_shape():
    line = sparkline([1, 2, 3, 4, 5, 4, 3, 2, 1])
    assert len(line) == 9
    assert line[0] == "▁"
    assert max(line) == line[4]  # peak mid-series


def test_sparkline_constant_series():
    line = sparkline([5, 5, 5])
    assert len(line) == 3
    assert len(set(line)) == 1


def test_sparkline_validates():
    with pytest.raises(ValueError):
        sparkline([])
    with pytest.raises(ValueError):
        sparkline(["x"])


def test_histogram_bins_and_counts():
    values = [1] * 10 + [9] * 5
    text = histogram(values, bins=4)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("10")
    assert lines[-1].endswith("5")


def test_histogram_validates():
    with pytest.raises(ValueError):
        histogram([])
    with pytest.raises(ValueError):
        histogram([1.0], bins=0)


def test_table_rendering_and_truncation():
    rows = [{"a": i, "b": f"row{i}"} for i in range(30)]
    text = table(rows, limit=5)
    assert "a" in text.splitlines()[0]
    assert "... 25 more rows" in text
    assert table([]) == "(no rows)"


def test_session_visualize_mode():
    db = Database()
    execute_sql(db, "CREATE TABLE facts (entity TEXT, value_num FLOAT)")
    execute_sql(db, "INSERT INTO facts (entity, value_num) VALUES "
                    "('Madison', 45.0), ('Austin', 68.0), ('Portland', 54.0)")
    session = ExplorationSession(
        search=KeywordSearchEngine(SnapshotStore(None)),
        translator=QueryTranslator(table="facts", entity_column="entity"),
        query=lambda sql, deadline_seconds=None: execute_sql(db, sql),
    )
    chart = session.visualize(
        "SELECT entity, AVG(value_num) AS t FROM facts GROUP BY entity",
        "entity", "t",
    )
    assert "Madison" in chart and "Austin" in chart
    assert session.history[-1].mode == "visualize"
    # visualization participates in iterative refinement
    refined = session.refine("value_num > 50")
    assert {r["entity"] for r in refined} == {"Austin", "Portland"}
