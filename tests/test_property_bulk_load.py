"""Property: :meth:`HeapTable.load` of a batch leaves the table exactly as
the same ``insert(values, rid=rid)`` calls in order do — the same rows
(values, their types and key order), pk map and next rid, or the same
exception — and a batch with nothing to coerce or refuse takes no
row-at-a-time path."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.table import HeapTable
from repro.storage.rdbms.types import Column, ColumnType, SchemaError, TableSchema

COLUMNS = (Column("id", ColumnType.INT),
           Column("f", ColumnType.FLOAT),
           Column("n", ColumnType.INT),
           Column("t", ColumnType.TEXT, nullable=False),
           Column("b", ColumnType.BOOL))

#: What a drawn batch may do to one of its rows; "none" leaves it clean.
CHANGES = ("none", "int in FLOAT", "bool in INT", "NULL in NOT NULL",
           "NULL key", "unknown column", "missing column", "key order",
           "pk of the batch", "pk of the tail", "pk of a frozen row",
           "pk of a deleted row", "rid of the batch", "rid of the tail",
           "rid of a segment", "rid of a dead position",
           "rids of dead positions")
#: The changes that leave a row as ``insert`` would store it, and free.
FREE = {"none", "pk of a deleted row", "rid of a dead position",
        "rids of dead positions"}


def _row(i, f=None):
    return {"id": i, "f": f, "n": i * 3, "t": f"r{i}", "b": i % 2 == 0}


def _table(pk, frozen, dead, tail):
    """``frozen`` rows compacted into segments of three, the ``dead`` ones
    of them deleted, then ``tail`` rows."""
    table = HeapTable(TableSchema("t", COLUMNS, "id" if pk else None))
    for i in range(frozen):
        table.insert(_row(i, f=i / 2))
    table.compact(target_rows=3)
    for rid in dead:
        table.delete(rid)
    for i in range(100, 100 + tail):
        table.insert(_row(i))
    return table


def _state(table):
    typed = [(rid, [(k, type(v), v) for k, v in values.items()])
             for rid, values in table._rows.items()]
    frozen = [(r.rid, sorted(r.values.items())) for r in table.scan()]
    return (typed, frozen, list(table._pk_index.items()), table._next_rid,
            len(table))


def _outcome(table, write):
    try:
        write()
    except SchemaError as error:
        return type(error), str(error), _state(table)
    return None, None, _state(table)


@st.composite
def _cases(draw):
    pk = draw(st.booleans())
    frozen = draw(st.integers(0, 8))
    dead = sorted(draw(st.sets(st.integers(0, frozen - 1), max_size=3))
                  if frozen else ())
    tail = draw(st.integers(0, 4))
    size = draw(st.integers(1, 6))
    start = frozen + tail + draw(st.integers(0, 3))
    rows = [(start + k, {"id": 1_000 + k, "f": draw(st.sampled_from(
        [None, 0.5, -2.25])), "n": draw(st.sampled_from([None, 7])),
        "t": f"new{k}", "b": draw(st.sampled_from([None, True, False]))})
        for k in range(size)]
    live_frozen = [rid for rid in range(frozen) if rid not in dead]
    held = {"pk of the tail": list(range(100, 100 + tail)),
            "pk of a frozen row": live_frozen,
            "pk of a deleted row": dead,
            "rid of the tail": list(range(frozen, frozen + tail)),
            "rid of a segment": live_frozen,
            "rid of a dead position": dead}
    made = set()
    for change in [draw(st.sampled_from(CHANGES))] + draw(
            st.lists(st.sampled_from(CHANGES), max_size=2)):
        at = draw(st.integers(0, size - 1))
        rid, values = rows[at]
        other = rows[(at + draw(st.integers(1, max(1, size - 1)))) % size]
        if change == "int in FLOAT":
            values["f"] = 3
        elif change == "bool in INT":
            values["n"] = True
        elif change == "NULL in NOT NULL":
            values["t"] = None
        elif change == "NULL key":
            values["id"] = None
        elif change == "unknown column":
            values["zz"] = 1
        elif change == "missing column":
            del values[draw(st.sampled_from(sorted(values)))]
        elif change == "key order":
            rows[at] = rid, dict(reversed(list(values.items())))
        elif change == "pk of the batch":
            values["id"] = other[1].get("id")
        elif change == "rid of the batch":
            rows[at] = other[0], values
        elif change == "rids of dead positions":
            rows = [(rid, values) for rid, (_, values) in zip(dead, rows)] \
                or rows
            size = len(rows)
        elif held.get(change):  # a frozen row's id is its rid
            taken = draw(st.sampled_from(held[change]))
            if change.startswith("pk"):
                values["id"] = taken
            else:
                rows[at] = taken, values
        made.add(change)
    return pk, frozen, dead, tail, rows, made


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_load_matches_inserting_row_by_row(case):
    pk, frozen, dead, tail, rows, made = case
    by_row = _table(pk, frozen, dead, tail)
    expected = _outcome(by_row, lambda: [
        by_row.insert(values, rid=rid) for rid, values in copy.deepcopy(rows)])
    loaded = _table(pk, frozen, dead, tail)
    inserts = []
    insert = loaded.insert
    loaded.insert = lambda *args, **kwargs: (inserts.append(args),
                                             insert(*args, **kwargs))[1]
    assert _outcome(loaded, lambda: loaded.load(copy.deepcopy(rows))) \
        == expected
    if made <= FREE and expected[0] is None:
        assert not inserts  # nothing coerced or refused: one whole batch


def test_an_empty_load_changes_nothing():
    table = _table(True, 4, [1], 2)
    before = _state(table)
    table.load([])
    assert _state(table) == before
