"""Mini relational engine.

The paper's storage-layer discussion puts the *final*, concurrently-edited
structure in an RDBMS "to ensure fast and correct concurrency control".
This subpackage is that device: a small but real relational engine with

* typed schemas and heap tables (:mod:`repro.storage.rdbms.table`),
* hash and sorted secondary indexes (:mod:`repro.storage.rdbms.index`),
* a write-ahead log with checkpoints and ARIES-style redo/undo recovery
  (:mod:`repro.storage.rdbms.wal`),
* strict two-phase locking with waits-for deadlock detection
  (:mod:`repro.storage.rdbms.lockmgr`),
* the engine facade (:mod:`repro.storage.rdbms.engine`),
* a SQL subset used by the user layer (:mod:`repro.storage.rdbms.sql`),
* per-table statistics (:mod:`repro.storage.rdbms.stats`) feeding the
  cost-based planner (:mod:`repro.storage.rdbms.planner`), and
* a snapshot-versioned query-result cache
  (:mod:`repro.storage.rdbms.qcache`).
"""

from repro.storage.rdbms.types import Column, ColumnType, TableSchema, SchemaError
from repro.storage.rdbms.table import HeapTable, Row
from repro.storage.rdbms.index import HashIndex, SortedIndex
from repro.storage.rdbms.engine import Database, Transaction, TransactionAborted
from repro.storage.rdbms.lockmgr import DeadlockError, LockManager, LockMode
from repro.storage.rdbms.sql import SqlError, execute_sql, normalize_sql
from repro.storage.rdbms.stats import StatisticsManager
from repro.storage.rdbms.qcache import QueryResultCache

__all__ = [
    "Column",
    "ColumnType",
    "TableSchema",
    "SchemaError",
    "HeapTable",
    "Row",
    "HashIndex",
    "SortedIndex",
    "Database",
    "Transaction",
    "TransactionAborted",
    "LockManager",
    "LockMode",
    "DeadlockError",
    "SqlError",
    "execute_sql",
    "normalize_sql",
    "StatisticsManager",
    "QueryResultCache",
]
