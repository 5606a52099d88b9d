"""Table schemas and delimited-text I/O.

A table is described column by column: each column is either categorical
(a fixed vocabulary of string labels) or continuous (a float range,
optionally integer valued).  Schemas are either inferred from the data or
supplied as JSON; once fitted they are frozen and travel with every
encoded matrix, model bundle and report so that decoding is unambiguous.

A ``RawTable`` holds its cells as typed columns: float64 arrays, and int64
codes into each categorical column's vocabulary.  Parsing converts and
checks each CSV column once, straight into that form, and writing formats
each column once from it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError

# Numeric columns with at most this many distinct values are treated as
# categorical during inference (they are usually codes, not measurements).
MAX_NUMERIC_CATEGORIES = 20


class ColumnKind(str, Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


def _unreadable(text: str) -> bool:
    # The "\n"-terminated writer leaves "\r" unquoted; Python 3.10's reader refuses NUL.
    return "\r" in text or "\0" in text


@dataclass(frozen=True)
class ColumnSchema:
    """Description of a single column, frozen at fit time."""

    name: str
    kind: ColumnKind
    vocabulary: tuple[str, ...] | None = None
    minimum: float | None = None
    maximum: float | None = None
    integer_valued: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name or _unreadable(self.name):
            raise SchemaError(f"column name {self.name!r} must be a non-empty string without \\r or NUL")
        if self.kind is ColumnKind.CATEGORICAL:
            if not self.vocabulary:
                raise SchemaError(f"categorical column {self.name!r} needs a non-empty vocabulary")
            if any(map(_unreadable, self.vocabulary)):
                raise SchemaError(f"a label of column {self.name!r} holds a carriage return or NUL")
            if len(set(self.vocabulary)) != len(self.vocabulary):
                raise SchemaError(f"duplicate labels in vocabulary of column {self.name!r}")
            if self.minimum is not None or self.maximum is not None:
                raise SchemaError(f"categorical column {self.name!r} must not carry a numeric range")
        else:
            if self.vocabulary is not None:
                raise SchemaError(f"continuous column {self.name!r} must not carry a vocabulary")
            if self.minimum is None or self.maximum is None:
                raise SchemaError(f"continuous column {self.name!r} needs both min and max")
            if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
                raise SchemaError(f"non-finite range on column {self.name!r}")
            if self.minimum > self.maximum:
                raise SchemaError(f"min > max on column {self.name!r}")
            if not math.isfinite(self.maximum - self.minimum):
                raise SchemaError(f"range of column {self.name!r} is wider than the largest float")

    @property
    def width(self) -> int:
        """Number of encoded features this column occupies."""
        if self.kind is ColumnKind.CATEGORICAL:
            return len(self.vocabulary)
        return 1


@dataclass(frozen=True)
class TableSchema:
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("a table needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def encoded_width(self) -> int:
        return sum(c.width for c in self.columns)

    def to_json_dict(self) -> dict:
        cols = []
        for c in self.columns:
            entry: dict = {"name": c.name, "kind": c.kind.value}
            if c.kind is ColumnKind.CATEGORICAL:
                entry["vocabulary"] = list(c.vocabulary)
            else:
                entry["min"] = c.minimum
                entry["max"] = c.maximum
                entry["integer_valued"] = c.integer_valued
            cols.append(entry)
        return {"columns": cols}

    @staticmethod
    def from_json_dict(payload: dict) -> "TableSchema":
        try:
            raw_cols = payload["columns"]
        except (TypeError, KeyError) as exc:
            raise ParseError("schema JSON must contain a 'columns' list") from exc
        if not isinstance(raw_cols, list):
            raise ParseError("schema JSON 'columns' must be a list")
        cols = []
        for i, entry in enumerate(raw_cols):
            try:
                name = entry["name"]
                kind = ColumnKind(entry["kind"])
            except (TypeError, KeyError, ValueError) as exc:
                raise ParseError(f"schema JSON column {i} is malformed") from exc
            if kind is ColumnKind.CATEGORICAL:
                vocab = entry.get("vocabulary")
                if not isinstance(vocab, list):
                    raise ParseError(f"schema JSON column {name!r} needs a vocabulary list")
                cols.append(ColumnSchema(name, kind, vocabulary=tuple(str(v) for v in vocab)))
            else:
                try:
                    lo = float(entry["min"])
                    hi = float(entry["max"])
                except (TypeError, KeyError, ValueError) as exc:
                    raise ParseError(f"schema JSON column {name!r} needs numeric min/max") from exc
                integer_valued = entry.get("integer_valued", False)
                if not isinstance(integer_valued, bool):
                    raise ParseError(f"schema JSON column {name!r}: integer_valued must be true or false")
                cols.append(ColumnSchema(name, kind, minimum=lo, maximum=hi,
                                         integer_valued=integer_valued))
        return TableSchema(tuple(cols))


class RawTable:
    """A table as typed columns, in schema order: a float64 array per
    continuous column, an int64 array of codes into ``vocabulary`` per
    categorical one.  ``RawTable(schema, rows)`` takes row tuples of labels
    and floats and builds the columns, checking every cell, when they are
    first read; ``from_columns`` takes them built.  ``rows`` is the rows
    given, or else labels and Python floats derived from the columns.  A
    table's cells do not change once it is built.
    """

    def __init__(self, schema: TableSchema, rows: list[tuple] | None = None):
        self.schema = schema
        self._rows = [] if rows is None else rows
        self._columns: list[np.ndarray] | None = None

    @classmethod
    def from_columns(cls, schema: TableSchema, columns) -> "RawTable":
        table = cls(schema)
        table._rows, table._columns = None, list(columns)
        return table

    @property
    def columns(self) -> list[np.ndarray]:
        if self._columns is None:
            self.validate()
        return self._columns

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = list(zip(*map(_cells, self.schema.columns, self._columns)))
        return self._rows

    @property
    def n_rows(self) -> int:
        return len(self._rows) if self._columns is None else len(self._columns[0])

    def validate(self) -> None:
        """Check every cell against the schema; raises SchemaError on violation.
        A row-built table's rows become its typed columns here."""
        if not self.n_rows:
            raise SchemaError("table has no rows")
        if self._columns is not None:
            for _ in _checked_columns(self.schema.names, self._columns,
                                      map(_array_rule, self.schema.columns)):
                pass
            return
        rows, width = self._rows, len(self.schema.columns)
        short = (None if set(map(len, rows)) == {width}
                 else next(r for r, row in enumerate(rows) if len(row) != width))
        # A bad cell above the first row of the wrong length is reported first.
        columns = list(_checked_columns(self.schema.names, zip(*rows[:short]),
                                        _cell_rules(self.schema, text=False)))
        if short is not None:
            raise SchemaError(f"row {short} has {len(rows[short])} cells, expected {width}")
        self._columns = columns


def _cells(col: ColumnSchema, column: np.ndarray) -> list:
    """A typed column's cells as a row holds them: labels, or Python floats."""
    if col.kind is ColumnKind.CATEGORICAL:
        return list(map(col.vocabulary.__getitem__, column.tolist()))
    return column.tolist()


def _parse_csv_text(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # A trailing newline yields no extra row; fully blank lines inside are junk.
        rows = list(filter(None, reader))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    if not rows:
        raise ParseError("empty input: no header row")
    header, body = rows[0], rows[1:]
    if any(not h for h in header):
        raise ParseError("blank column name in header")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in header")
    if set(map(len, body)) - {len(header)}:
        i, row = next((i, row) for i, row in enumerate(body) if len(row) != len(header))
        raise ParseError(f"row {i} has {len(row)} cells, expected {len(header)}")
    return header, body


def _try_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def infer_schema(text: str, overrides: dict[str, ColumnKind] | None = None) -> TableSchema:
    """Infer a schema from delimited text (header plus at least one row).

    Columns whose cells all parse as finite numbers and take more than
    ``MAX_NUMERIC_CATEGORIES`` (20) distinct values become continuous; everything
    else becomes categorical with the vocabulary in order of first
    appearance.  ``overrides`` forces the kind of individual columns.
    """
    header, body = _parse_csv_text(text)
    return _infer_from_rows(header, body, overrides)[0]


def _finite_numbers(cells) -> np.ndarray | None:
    """Every cell as a float, or None if any cell is not a finite number."""
    try:
        numbers = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    return numbers if np.isfinite(numbers).all() else None


def _label_codes(vocabulary: tuple[str, ...], cells) -> np.ndarray | None:
    """Each cell's position in ``vocabulary``, or None if a cell is no label."""
    index = {label: i for i, label in enumerate(vocabulary)}
    try:
        return np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    except (KeyError, TypeError):  # an unknown, or unhashable, cell is no label
        return None


def _finite_floats(cells) -> np.ndarray | None:
    if not all(issubclass(t, float) for t in set(map(type, cells))):
        return None
    numbers = np.fromiter(cells, dtype=np.float64, count=len(cells))
    return numbers if np.isfinite(numbers).all() else None


_TEXT_NUMBER = (_finite_numbers, lambda cell: _try_float(cell) is not None, ParseError,
                "{!r} is not a finite number")
_TYPED_FLOAT = (_finite_floats, lambda cell: isinstance(cell, float) and math.isfinite(cell),
                SchemaError, "non-finite value {!r}")


def _array_rule(col: ColumnSchema):
    """A typed column's rule (see ``_cell_rules``): finite numbers, or codes
    into the vocabulary."""
    if col.kind is ColumnKind.CATEGORICAL:
        def good(codes):
            return (codes >= 0) & (codes < col.width)
        message = "code {} not in vocabulary"
    else:
        good, message = np.isfinite, "non-finite value {}"
    return (lambda column: column if good(column).all() else None), good, SchemaError, message


def _cell_rules(schema: TableSchema, text: bool) -> list:
    """Each column's rule for CSV text or typed cells: (bulk check giving the
    column as a typed array or None, one-cell check, error type, message)."""
    number = _TEXT_NUMBER if text else _TYPED_FLOAT
    return [(partial(_label_codes, col.vocabulary), col.vocabulary.__contains__, SchemaError,
             "label {!r} not in vocabulary") if col.kind is ColumnKind.CATEGORICAL else number
            for col in schema.columns]


def _checked_columns(names, columns, rules):
    """Yield each column as its rule's bulk check returns it, one at a time.
    A column that fails is walked to its first bad cell; after the last
    column the error names the smallest (row, column) of those: the
    row-major first bad cell."""
    first_bad = None
    for name, cells, (bulk, good, error, message) in zip(names, columns, rules):
        values = bulk(cells)
        if values is None:
            r, cell = next((r, cell) for r, cell in enumerate(cells) if not good(cell))
            if first_bad is None or r < first_bad[0]:
                first_bad = (r, error(f"row {r}, column {name!r}: " + message.format(cell)))
        yield values
    if first_bad is not None:
        raise first_bad[1]


def _distinct(numbers: np.ndarray) -> int:
    """``len(set(numbers))``: sorted, equal floats sit side by side, 0.0 and
    -0.0 among them.  (``np.unique`` would import ``numpy.ma`` on first use.)"""
    ordered = np.sort(numbers)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _first_extreme(numbers: np.ndarray, extreme) -> float:
    """Python's ``min`` or ``max`` of the numbers: the first cell equal to
    the extreme, so of 0.0 and -0.0 the one met first (ndarray.min and max
    may return either)."""
    return float(numbers[(numbers == extreme(numbers)).argmax()])


def _infer_from_rows(header: list[str], body: list[list[str]],
                     overrides: dict[str, ColumnKind] | None = None):
    """(schema, columns): each column typed as the schema types it, the
    floats of a continuous column or the codes of a categorical one."""
    overrides = dict(overrides or {})
    if not body:
        raise ParseError("cannot infer a schema without data rows")
    unknown = set(overrides) - set(header)
    if unknown:
        raise SchemaError(f"override for unknown column(s): {sorted(unknown)}")

    columns, values = [], []
    for name, cells in zip(header, zip(*body)):
        forced = overrides.get(name)
        numbers = None
        if forced is not ColumnKind.CATEGORICAL:
            try:
                (numbers,) = _checked_columns((name,), (cells,), (_TEXT_NUMBER,))
            except ParseError:
                if forced is ColumnKind.CONTINUOUS:
                    raise
        numeric = numbers is not None and (forced is ColumnKind.CONTINUOUS
                                           or _distinct(numbers) > MAX_NUMERIC_CATEGORIES)

        if numeric:
            columns.append(ColumnSchema(name, ColumnKind.CONTINUOUS,
                                        minimum=_first_extreme(numbers, np.min),
                                        maximum=_first_extreme(numbers, np.max),
                                        integer_valued=bool((np.floor(numbers) == numbers).all())))
            values.append(numbers)
        else:
            vocab = tuple(dict.fromkeys(cells))  # first-appearance order
            columns.append(ColumnSchema(name, ColumnKind.CATEGORICAL, vocabulary=vocab))
            values.append(_label_codes(vocab, cells))
    return TableSchema(tuple(columns)), values


def parse_table(text: str, schema: TableSchema | None = None) -> RawTable:
    """Parse delimited text into a typed table, inferring a schema if needed."""
    header, body = _parse_csv_text(text)
    if schema is None:
        # Inference has converted and typed every cell already.
        return RawTable.from_columns(*_infer_from_rows(header, body))
    if list(header) != list(schema.names):
        raise SchemaError(f"header {header} does not match schema columns {list(schema.names)}")
    if not body:
        raise SchemaError("table has no rows")
    return RawTable.from_columns(schema, _checked_columns(schema.names, zip(*body),
                                                          _cell_rules(schema, text=True)))


def load_table(path: str | Path, schema: TableSchema | None = None) -> RawTable:
    text = Path(path).read_text(encoding="utf-8")
    return parse_table(text, schema)


def _column_text(col: ColumnSchema, cells):
    """The CSV text of a column's cells: labels as they are, an integral value
    of an integer-valued column as an integer, any other number by repr."""
    if col.kind is ColumnKind.CATEGORICAL:
        return cells
    if col.integer_valued:
        return [str(int(v)) if v.is_integer() else repr(v) for v in map(float, cells)]
    return list(map(repr, map(float, cells)))


def _format_cell(col: ColumnSchema, cell) -> str:
    return _column_text(col, (cell,))[0]


def table_to_text(table: RawTable) -> str:
    table.validate()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.schema.names)
    writer.writerows(zip(*(_column_text(c, _cells(c, column))
                           for c, column in zip(table.schema.columns, table.columns))))
    return out.getvalue()


def write_table(table: RawTable, path: str | Path) -> None:
    Path(path).write_text(table_to_text(table), encoding="utf-8")


def load_schema(path: str | Path) -> TableSchema:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"schema file {path}: {exc}") from exc
    return TableSchema.from_json_dict(payload)


def save_schema(schema: TableSchema, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schema.to_json_dict(), indent=2) + "\n", encoding="utf-8")
