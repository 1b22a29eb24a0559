"""Tests for heap tables."""

import pytest

from repro.storage.rdbms.table import HeapTable
from repro.storage.rdbms.types import Column, ColumnType, SchemaError, TableSchema


def _table(pk="id"):
    return HeapTable(
        TableSchema(
            "t",
            (Column("id", ColumnType.INT, nullable=False),
             Column("name", ColumnType.TEXT)),
            primary_key=pk,
        )
    )


def test_insert_and_get():
    table = _table()
    row = table.insert({"id": 1, "name": "a"})
    assert table.get(row.rid).values == {"id": 1, "name": "a"}
    assert len(table) == 1


def test_insert_duplicate_pk_rejected():
    table = _table()
    table.insert({"id": 1, "name": "a"})
    with pytest.raises(SchemaError):
        table.insert({"id": 1, "name": "b"})


def test_insert_null_pk_rejected():
    # (an INT key left NULL takes the next key instead: see below)
    table = HeapTable(
        TableSchema("t", (Column("id", ColumnType.TEXT),), primary_key="id")
    )
    with pytest.raises(SchemaError):
        table.insert({"id": None})


def test_an_int_key_left_out_or_null_takes_the_next_key():
    table = _table()
    assert table.insert({"name": "a"}).values == {"id": 0, "name": "a"}
    assert table.insert({"id": None, "name": "b"}).values["id"] == 1
    table.insert({"id": 10, "name": "c"})
    assert table.insert({"name": "d"}).values["id"] == 11


def test_the_next_key_never_moves_back():
    table = _table()
    rows = [table.insert({"name": str(i)}) for i in range(3)]
    table.delete(rows[-1].rid)                      # the largest key gone
    assert table.insert({"name": "x"}).values["id"] == 3
    table.update(rows[0].rid, {"id": 40})           # an update moves it up
    table.update(rows[0].rid, {"id": 0})            # and never back
    assert table.insert({"name": "y"}).values["id"] == 41
    table.load([(100, {"id": 60, "name": "z"})])    # as a replay would
    assert table.insert({"name": "w"}).values["id"] == 61


def test_the_next_key_rides_the_image_and_an_older_image_continues_after_its_largest():
    table = _table()
    for i in range(6):
        table.insert({"name": str(i)})
    table.compact(target_rows=2)
    table.insert({"id": 20, "name": "tail"})
    table.delete(table.get_by_pk(20).rid)
    table.delete(table.get_by_pk(5).rid)            # frozen, now dead
    image = table.image()
    assert image["next_key"] == 21
    reloaded = _table()
    reloaded.load_image(image)
    assert reloaded.insert({"name": "n"}).values["id"] == 21
    del image["next_key"]                           # the layout before it
    older = _table()
    older.load_image(image)
    assert older.insert({"name": "n"}).values["id"] == 6


def test_a_text_key_is_never_assigned():
    table = HeapTable(TableSchema(
        "t", (Column("id", ColumnType.TEXT, nullable=False),),
        primary_key="id"))
    assert table.schema.serial_key is None
    with pytest.raises(SchemaError):
        table.insert({})


def test_get_by_pk():
    table = _table()
    table.insert({"id": 7, "name": "x"})
    assert table.get_by_pk(7).values["name"] == "x"
    assert table.get_by_pk(99) is None


def test_update_returns_old_and_new():
    table = _table()
    row = table.insert({"id": 1, "name": "a"})
    old, new = table.update(row.rid, {"name": "b"})
    assert old.values["name"] == "a"
    assert new.values["name"] == "b"


def test_update_pk_change_maintains_index():
    table = _table()
    row = table.insert({"id": 1, "name": "a"})
    table.update(row.rid, {"id": 2})
    assert table.get_by_pk(1) is None
    assert table.get_by_pk(2) is not None


def test_update_pk_conflict_rejected():
    table = _table()
    table.insert({"id": 1, "name": "a"})
    row = table.insert({"id": 2, "name": "b"})
    with pytest.raises(SchemaError):
        table.update(row.rid, {"id": 1})


def test_update_unknown_rid():
    with pytest.raises(KeyError):
        _table().update(42, {"name": "x"})


def test_delete_removes_pk_entry():
    table = _table()
    row = table.insert({"id": 1, "name": "a"})
    table.delete(row.rid)
    assert len(table) == 0
    assert table.get_by_pk(1) is None
    with pytest.raises(KeyError):
        table.delete(row.rid)


def test_forced_rid_for_recovery_replay():
    table = _table()
    table.insert({"id": 1, "name": "a"}, rid=10)
    assert table.rids() == [10]
    next_row = table.insert({"id": 2, "name": "b"})
    assert next_row.rid == 11
    with pytest.raises(SchemaError):
        table.insert({"id": 3, "name": "c"}, rid=10)


def test_scan_in_rid_order():
    table = _table()
    for i in range(3):
        table.insert({"id": i, "name": str(i)})
    assert [r.values["id"] for r in table.scan()] == [0, 1, 2]


def test_scan_where():
    table = _table()
    for i in range(5):
        table.insert({"id": i, "name": str(i)})
    hits = list(table.scan_where(lambda v: v["id"] >= 3))
    assert [r.values["id"] for r in hits] == [3, 4]


def test_rows_are_copies():
    table = _table()
    row = table.insert({"id": 1, "name": "a"})
    row.values["name"] = "mutated"
    assert table.get(row.rid).values["name"] == "a"


def test_replace_schema_migrates_rows():
    table = _table()
    table.insert({"id": 1, "name": "David Smith"})
    new_schema = TableSchema(
        "t",
        (Column("id", ColumnType.INT, nullable=False),
         Column("last", ColumnType.TEXT)),
        primary_key="id",
    )
    table.replace_schema(
        new_schema,
        lambda row: {"id": row["id"], "last": row["name"].split()[-1]},
    )
    assert table.get_by_pk(1).values == {"id": 1, "last": "Smith"}


def test_a_key_retyped_to_int_continues_after_its_largest():
    table = HeapTable(TableSchema(
        "t", (Column("id", ColumnType.TEXT, nullable=False),),
        primary_key="id"))
    table.insert({"id": "7"})
    table.replace_schema(TableSchema(
        "t", (Column("id", ColumnType.INT, nullable=False),),
        primary_key="id"), lambda row: {"id": int(row["id"])})
    assert table.insert({}).values["id"] == 8
