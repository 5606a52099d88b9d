"""Reversible table <-> matrix transforms used by every model and metric.

Both directions work on a ``RawTable``'s typed columns.  Categorical
columns become full-width one-hot blocks (binary columns included, so every
label owns an indicator), set from their vocabulary codes.  Continuous
columns are min-max scaled into [0, 1].  Decoding inverts both: argmax over
each one-hot block (first index wins on ties) gives the codes, and
clamp-then-rescale the continuous values, with rounding for integer-valued
columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .schema import ColumnKind, RawTable, TableSchema


@dataclass(frozen=True)
class ColumnSpan:
    """Half-open feature range [start, start + width) owned by one column."""

    column: str
    kind: ColumnKind
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width


def column_spans(schema: TableSchema) -> tuple[ColumnSpan, ...]:
    starts = itertools.accumulate((col.width for col in schema.columns), initial=0)
    return tuple(ColumnSpan(col.name, col.kind, start, col.width)
                 for col, start in zip(schema.columns, starts))


@dataclass
class EncodedMatrix:
    values: np.ndarray  # (rows, encoded_width) float64
    schema: TableSchema
    spans: tuple[ColumnSpan, ...]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def encode(table: RawTable) -> EncodedMatrix:
    """Encode a validated table into a float64 matrix."""
    table.validate()
    schema = table.schema
    spans = column_spans(schema)
    out = np.zeros((table.n_rows, schema.encoded_width), dtype=np.float64)
    rows = np.arange(table.n_rows)

    for col, span, column in zip(schema.columns, spans, table.columns):
        if col.kind is ColumnKind.CATEGORICAL:
            out[rows, span.start + column] = 1.0
        else:
            width = col.maximum - col.minimum
            if width:  # a constant column keeps the 0.0 of np.zeros
                out[:, span.start] = (column - col.minimum) / width
    return EncodedMatrix(out, schema, spans)


def decode(values: np.ndarray, schema: TableSchema) -> RawTable:
    """Decode a matrix (typically raw model output) back into a table.

    The matrix does not have to be a valid encoding: one-hot blocks are
    resolved by argmax and continuous features are clamped into [0, 1]
    before the inverse min-max map.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise SchemaError(f"expected a 2-d matrix, got shape {values.shape}")
    if values.shape[1] != schema.encoded_width:
        raise SchemaError(
            f"matrix width {values.shape[1]} does not match encoded width {schema.encoded_width}"
        )

    n = values.shape[0]
    columns = []
    for col, span in zip(schema.columns, column_spans(schema)):
        block = values[:, span.start : span.stop]
        if col.kind is ColumnKind.CATEGORICAL:
            columns.append(np.argmax(block, axis=1))
        else:
            span_width = col.maximum - col.minimum
            if span_width == 0.0:
                columns.append(np.full(n, col.minimum))
                continue
            raw = np.clip(block[:, 0], 0.0, 1.0) * span_width + col.minimum
            # The affine map can round one ulp past the range; clamp it back.
            np.clip(raw, col.minimum, col.maximum, out=raw)
            if col.integer_valued:
                raw = np.rint(raw)
            columns.append(raw)
    return RawTable.from_columns(schema, columns)
