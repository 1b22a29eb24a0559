"""Column types and table schemas for the mini relational engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Sequence


class SchemaError(Exception):
    """Raised on schema violations (bad column, type mismatch, ...)."""


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"

    def validate(self, value: Any) -> Any:
        """Coerce/validate a Python value for this column type.

        ``None`` is always allowed (SQL NULL).  Ints are accepted for FLOAT
        columns (widening); bools are NOT accepted for INT (Python quirk).

        Raises:
            SchemaError: if the value does not fit the type.
        """
        if value is None or type(value) is _EXACT[self._value_]:
            return value  # what nearly every stored cell is
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected float, got {value!r}")
            return float(value)
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise SchemaError(f"expected str, got {value!r}")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(f"expected bool, got {value!r}")
            return value
        raise SchemaError(f"unknown column type {self!r}")


_EXACT = {"int": int, "float": float, "text": str, "bool": bool}


@dataclass(frozen=True)
class Column:
    """One column definition.

    Attributes:
        name: column name (case-sensitive, lowercase by convention).
        col_type: the :class:`ColumnType`.
        nullable: whether NULL is permitted.
    """

    name: str
    col_type: ColumnType
    nullable: bool = True

    def validate(self, value: Any) -> Any:
        if value is None and not self.nullable:
            raise SchemaError(f"column {self.name!r} is NOT NULL")
        return self.col_type.validate(value)

    @cached_property
    def stored_types(self) -> frozenset[type]:
        """The types of the values :meth:`validate` returns as they are:
        the column type's exact one, and NULL's where it is allowed."""
        exact = _EXACT[self.col_type.value]
        return frozenset((exact, type(None)) if self.nullable else (exact,))


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns plus an optional primary-key column.

    Attributes:
        name: table name.
        columns: ordered column definitions.
        primary_key: name of the PK column, or None; PK values must be
            unique and non-null.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @cached_property
    def _known(self) -> frozenset[str]:
        return frozenset(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name.

        Raises:
            SchemaError: if absent.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return name in self._known

    @cached_property
    def serial_key(self) -> str | None:
        """The primary key when it is an INT column — one an insert may
        leave out, taking the table's next key — else None."""
        pk = self.primary_key
        return pk if pk is not None \
            and self.column(pk).col_type is ColumnType.INT else None

    def validate_row(self, values: dict[str, Any]) -> dict[str, Any]:
        """Validate and normalize a full row dict.

        Unknown keys raise; missing nullable columns become None.

        Raises:
            SchemaError: on unknown columns, type errors, or NOT NULL
                violations.
        """
        if not values.keys() <= self._known:
            raise SchemaError(
                f"unknown column(s) {sorted(values.keys() - self._known)} "
                f"for table {self.name!r}"
            )
        get = values.get
        return {col.name: col.validate(get(col.name)) for col in self.columns}

    def stores_as_is(self, rows: Sequence[dict[str, Any]]) -> bool:
        """Whether :meth:`validate_row` would return every one of ``rows``
        equal to itself, keys in the same order: each has the columns'
        keys in column order, and each column one pass over its cells'
        types finds only :attr:`Column.stored_types`."""
        if set(map(tuple, rows)) != {tuple(self.column_names)}:
            return False
        return all(set(map(type, map(itemgetter(col.name), rows)))
                   <= col.stored_types for col in self.columns)

    def with_column(self, column: Column) -> "TableSchema":
        """A copy of this schema with one more column (schema evolution)."""
        if self.has_column(column.name):
            raise SchemaError(f"column {column.name!r} already exists")
        return TableSchema(self.name, self.columns + (column,), self.primary_key)

    def without_column(self, name: str) -> "TableSchema":
        """A copy without the named column.

        Raises:
            SchemaError: if the column is absent or is the primary key.
        """
        if not self.has_column(name):
            raise SchemaError(f"no column {name!r}")
        if name == self.primary_key:
            raise SchemaError("cannot drop the primary key column")
        return TableSchema(
            self.name,
            tuple(c for c in self.columns if c.name != name),
            self.primary_key,
        )

    def renamed_column(self, old: str, new: str) -> "TableSchema":
        """A copy with one column renamed."""
        if not self.has_column(old):
            raise SchemaError(f"no column {old!r}")
        if self.has_column(new):
            raise SchemaError(f"column {new!r} already exists")
        cols = tuple(
            Column(new, c.col_type, c.nullable) if c.name == old else c
            for c in self.columns
        )
        pk = new if self.primary_key == old else self.primary_key
        return TableSchema(self.name, cols, pk)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (used by WAL checkpoints and schema versioning)."""
        return {
            "name": self.name,
            "columns": [
                {"name": c.name, "type": c.col_type.value, "nullable": c.nullable}
                for c in self.columns
            ],
            "primary_key": self.primary_key,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TableSchema":
        return TableSchema(
            name=data["name"],
            columns=tuple(
                Column(c["name"], ColumnType(c["type"]), c["nullable"])
                for c in data["columns"]
            ),
            primary_key=data["primary_key"],
        )
