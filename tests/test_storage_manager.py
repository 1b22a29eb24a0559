"""Tests for the storage manager (device routing) and cross-device flow."""

from repro.docmodel.document import Document
from repro.storage.manager import StorageManager
from repro.storage.rdbms.types import Column, ColumnType, TableSchema


def test_devices_created_under_root(tmp_path):
    manager = StorageManager(str(tmp_path / "ws"))
    assert (tmp_path / "ws" / "raw").is_dir()
    assert (tmp_path / "ws" / "intermediate").is_dir()
    assert (tmp_path / "ws" / "final").is_dir()
    manager.close()


def test_each_form_lands_on_its_device(tmp_path):
    manager = StorageManager(str(tmp_path))
    # raw snapshots
    manager.raw.commit(Document("page", "day one content\n"))
    manager.raw.commit(Document("page", "day two content\n"))
    assert manager.raw.latest_version("page") == 1
    # intermediates
    manager.intermediate.append_many(
        [{"entity": "x", "attribute": "a", "value": 1}] * 5
    )
    assert manager.intermediate.count() == 5
    # final structure
    manager.final.create_table(TableSchema(
        "facts", (Column("id", ColumnType.INT, nullable=False),),
        primary_key="id",
    ))
    manager.final.run(lambda t: t.insert("facts", {"id": 1}))
    assert manager.final.table_size("facts") == 1
    manager.close()


def test_disk_usage_reports_all_devices(tmp_path):
    manager = StorageManager(str(tmp_path))
    manager.raw.commit(Document("p", "content\n" * 20))
    manager.intermediate.append({"k": "v"})
    manager.final.create_table(TableSchema(
        "t", (Column("id", ColumnType.INT, nullable=False),),
        primary_key="id",
    ))
    usage = manager.disk_usage()
    assert usage["raw"] > 0
    assert usage["intermediate"] > 0
    assert usage["final_wal"] > 0
    manager.close()


def test_final_store_survives_reopen(tmp_path):
    manager = StorageManager(str(tmp_path))
    manager.final.create_table(TableSchema(
        "t", (Column("id", ColumnType.INT, nullable=False),),
        primary_key="id",
    ))
    manager.final.run(lambda t: t.insert("t", {"id": 7}))
    manager.close()
    reopened = StorageManager(str(tmp_path))
    assert reopened.final.table_size("t") == 1
    assert reopened.intermediate.count() == 0
    reopened.close()


def test_non_durable_final_store():
    manager = StorageManager(None)
    manager.final.create_table(TableSchema(
        "t", (Column("id", ColumnType.INT, nullable=False),),
        primary_key="id",
    ))
    assert manager.final.wal_size_bytes() == 0
    manager.close()
