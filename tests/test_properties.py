"""Property tests: every table tabsynth writes reads back, decode inverts encode,
and a bad cell is reported where a row-by-row scan first meets it."""

import csv
import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tabsynth.encoding import decode, encode
from tabsynth.errors import ParseError, SchemaError
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


readable_text = st.text(st.characters(exclude_characters="\r\0"))


@st.composite
def broken_tables(draw, text):
    """(schema, rows) of a valid table with 1-3 cells made bad at random places.

    With ``text`` the rows hold the CSV cells that ``table_to_text`` writes, and
    a bad cell is an unknown label or a number cell that is no finite number.
    Without it they hold typed cells, and a bad cell is an unknown label (or a
    list), a continuous cell that is not a finite float, or a short row.
    """
    table = draw(tables())
    if text:
        rows = list(csv.reader(io.StringIO(table_to_text(table), newline="")))[1:]
    else:
        rows = [list(row) for row in table.rows]
    shorten = {}
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        if not text and draw(st.booleans()):
            shorten[r] = draw(st.integers(0, len(table.schema.columns) - 1))
            continue
        j = draw(st.integers(0, len(table.schema.columns) - 1))
        col = table.schema.columns[j]
        if col.kind is ColumnKind.CATEGORICAL:
            label = readable_text.filter(lambda cell: cell not in col.vocabulary)
            bad = label if text else st.one_of(label, label.map(lambda cell: [cell]))
        elif text:
            bad = st.one_of(st.sampled_from(["inf", "-inf", "nan", "1e999", "x", ""]), readable_text)
        else:
            bad = st.sampled_from([math.nan, math.inf, -math.inf, 3, "1.0", None])
        rows[r][j] = draw(bad)
    for r, length in shorten.items():
        rows[r] = rows[r][:length]
    return table.schema, rows


def _first_bad_cell(schema, rows, text):
    """(error type, message) for the row-major first bad cell, or None."""
    width = len(schema.columns)
    for r, row in enumerate(rows):
        if len(row) != width:
            return SchemaError, f"row {r} has {len(row)} cells, expected {width}"
        for col, cell in zip(schema.columns, row):
            where = f"row {r}, column {col.name!r}: "
            if col.kind is ColumnKind.CATEGORICAL:
                if cell not in col.vocabulary:
                    return SchemaError, where + f"label {cell!r} not in vocabulary"
            elif text:
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    return ParseError, where + f"{cell!r} is not a finite number"
            elif not (isinstance(cell, float) and math.isfinite(cell)):
                return SchemaError, where + f"non-finite value {cell!r}"
    return None


def _raised(call):
    try:
        call()
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return None


@PROPERTY
@given(broken_tables(text=True))
def test_parse_table_reports_the_row_major_first_bad_cell(case):
    schema, rows = case
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(schema.names)
    writer.writerows(rows)
    assert _raised(lambda: parse_table(out.getvalue(), schema)) == _first_bad_cell(schema, rows, True)


@PROPERTY
@given(broken_tables(text=False))
def test_validate_reports_the_row_major_first_bad_cell(case):
    schema, rows = case
    expected = _first_bad_cell(schema, [tuple(row) for row in rows], False)
    assert _raised(RawTable(schema, [tuple(row) for row in rows]).validate) == expected


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
