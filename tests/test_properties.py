"""Property tests: every table tabsynth writes reads back, and decode inverts encode."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tabsynth.encoding import decode, encode
from tabsynth.errors import SchemaError
from tabsynth.schema import (ColumnKind, ColumnSchema, RawTable, TableSchema, parse_table,
                             table_to_text)

PROPERTY = settings(max_examples=200, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    """A valid table of 1-8 rows: categorical, continuous and integer-valued columns."""
    n_rows = draw(st.integers(1, 8))
    columns, cells = [], []
    for name in draw(st.lists(st.text(), min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(("categorical", "continuous", "integer")))
        try:
            if kind == "categorical":
                vocab = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
                values = draw(st.lists(st.sampled_from(vocab), min_size=n_rows, max_size=n_rows))
                columns.append(ColumnSchema(name, ColumnKind.CATEGORICAL, vocabulary=tuple(vocab)))
            else:
                integer = kind == "integer"
                # Below 2**48 the min-max map's few-ulp error stays under 0.5,
                # so rounding gives the integer back exactly.
                element = st.integers(-2**48, 2**48).map(float) if integer else finite
                values = draw(st.lists(element, min_size=n_rows, max_size=n_rows))
                columns.append(ColumnSchema(name, ColumnKind.CONTINUOUS, minimum=min(values),
                                            maximum=max(values), integer_valued=integer))
        except SchemaError:  # a name, label or range that ColumnSchema rejects
            assume(False)
        cells.append(values)
    return RawTable(TableSchema(tuple(columns)), list(zip(*cells)))


@PROPERTY
@given(tables())
def test_csv_round_trip(table):
    assert parse_table(table_to_text(table), table.schema).rows == table.rows


@PROPERTY
@given(tables())
def test_decode_inverts_encode(table):
    decoded = decode(encode(table).values, table.schema)
    for col, before, after in zip(table.schema.columns, zip(*table.rows), zip(*decoded.rows)):
        if col.kind is ColumnKind.CATEGORICAL or col.integer_valued:
            assert after == before
            continue
        ulp = math.ulp(max(abs(col.minimum), abs(col.maximum)))
        for b, a in zip(before, after):
            assert col.minimum <= a <= col.maximum
            assert abs(a - b) <= 4 * ulp


@pytest.mark.parametrize("name", ["", "a\rb", "\r", "a\0b"])
def test_column_name_must_read_back(name):
    with pytest.raises(SchemaError, match="column name"):
        ColumnSchema(name, ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0)


@pytest.mark.parametrize("label", ["a\rb", "\r", "\0"])
def test_label_must_read_back(label):
    with pytest.raises(SchemaError, match="'c'"):
        ColumnSchema("c", ColumnKind.CATEGORICAL, vocabulary=("x", label))


def test_json_schema_with_a_blank_name_is_rejected():
    payload = {"columns": [{"name": "", "kind": "continuous", "min": 0.0, "max": 1.0}]}
    with pytest.raises(SchemaError, match="column name"):
        TableSchema.from_json_dict(payload)


def test_range_wider_than_the_largest_float_is_rejected():
    # max - min overflows: every cell would encode, and decode, to NaN
    with pytest.raises(SchemaError, match="wider than the largest float"):
        ColumnSchema("v", ColumnKind.CONTINUOUS, minimum=-1e308, maximum=1e308)
