import csv
import io
import json

import numpy as np
import pytest

from tabsynth import schema as schema_module
from tabsynth.errors import ParseError, SchemaError
from tabsynth.schema import (ColumnKind, ColumnSchema, RawTable, TableSchema,
                             _format_cell, infer_schema, load_schema, load_table,
                             parse_table, save_schema, table_to_text, write_table)

# 25 distinct weights so inference sees a measurement, not a code column
CSV = "color,weight\n" + "".join(
    f"{('red', 'blue')[i % 2]},{1.5 + 0.25 * i}\n" for i in range(25))


def test_infer_mixed_kinds():
    schema = infer_schema(CSV)
    color, weight = schema.columns
    assert color.kind is ColumnKind.CATEGORICAL
    assert color.vocabulary == ("red", "blue")  # first-appearance order
    assert weight.kind is ColumnKind.CONTINUOUS
    assert (weight.minimum, weight.maximum) == (1.5, 7.5)
    assert not weight.integer_valued


def test_infer_distinct_count_threshold():
    few = "code\n" + "".join(f"{i % 5}\n" for i in range(30))
    many = "code\n" + "".join(f"{i}\n" for i in range(30))
    assert infer_schema(few).columns[0].kind is ColumnKind.CATEGORICAL
    col = infer_schema(many).columns[0]
    assert col.kind is ColumnKind.CONTINUOUS
    assert (col.minimum, col.maximum) == (0.0, 29.0)
    assert col.integer_valued


@pytest.mark.parametrize("sign", [1, -1], ids=["min", "max"])
@pytest.mark.parametrize("zeros", [["0.0", "-0.0"], ["-0.0", "0.0"]],
                         ids=["0.0-first", "-0.0-first"])
@pytest.mark.parametrize("where", ["start", "end", "apart"])
def test_infer_bounds_keep_the_zero_python_min_and_max_give(sign, zeros, where):
    # ndarray.min and max may return either zero; Python's give the first
    others = [str(sign * i) for i in range(1, 25)]
    cells = {"start": zeros + others, "end": others + zeros,
             "apart": zeros[:1] + others + zeros[1:]}[where]
    numbers = list(map(float, cells))
    col = infer_schema("v\n" + "".join(c + "\n" for c in cells)).columns[0]
    assert col.kind is ColumnKind.CONTINUOUS
    assert (col.minimum.hex(), col.maximum.hex()) == (min(numbers).hex(), max(numbers).hex())
    assert col.integer_valued


@pytest.mark.parametrize("others, kind", [(19, ColumnKind.CATEGORICAL),
                                           (20, ColumnKind.CONTINUOUS)])
def test_infer_counts_0_0_and_minus_0_0_as_one_value(others, kind):
    # as a set of the floats does: 19 other values and the zero are 20 distinct
    cells = ["0.0"] + [str(i) for i in range(1, others + 1)] + ["-0.0"]
    assert infer_schema("v\n" + "".join(c + "\n" for c in cells)).columns[0].kind is kind


def test_infer_override_wins():
    text = "flag\n0\n1\n0\n"
    assert infer_schema(text).columns[0].kind is ColumnKind.CATEGORICAL
    forced = infer_schema(text, overrides={"flag": ColumnKind.CONTINUOUS}).columns[0]
    assert forced.kind is ColumnKind.CONTINUOUS
    assert (forced.minimum, forced.maximum) == (0.0, 1.0)


def test_infer_override_unknown_column():
    with pytest.raises(SchemaError):
        infer_schema(CSV, overrides={"nope": ColumnKind.CONTINUOUS})


def test_infer_non_numeric_under_continuous_override():
    with pytest.raises(ParseError):
        infer_schema("v\nx\n1\n", overrides={"v": ColumnKind.CONTINUOUS})


def test_parse_rejects_label_outside_vocabulary():
    schema = infer_schema(CSV)
    with pytest.raises(SchemaError, match="green"):
        parse_table("color,weight\ngreen,1.0\n", schema)


def test_parse_reports_row_and_column_for_bad_number():
    schema = infer_schema(CSV)
    with pytest.raises(ParseError, match="weight"):
        parse_table("color,weight\nred,abc\n", schema)


# weight (continuous) before color (categorical): the row-major first bad
# cell can lie in a later row than another column's first bad cell.
WEIGHT_COLOR = TableSchema((
    ColumnSchema("weight", ColumnKind.CONTINUOUS, minimum=0.0, maximum=10.0),
    ColumnSchema("color", ColumnKind.CATEGORICAL, vocabulary=("red", "blue")),
))


@pytest.mark.parametrize("body,error,message", [
    ("1.0,green\n2.0,red\n3.0,blue\nabc,red\n", SchemaError,
     "row 0, column 'color': label 'green' not in vocabulary"),
    ("1.0,red\nabc,red\n3.0,blue\n4.0,green\n", ParseError,
     "row 1, column 'weight': 'abc' is not a finite number"),
    ("1.0,red\n2.0,blue\ninf,green\n", ParseError,
     "row 2, column 'weight': 'inf' is not a finite number"),
], ids=["label-before-number", "number-before-label", "infinity"])
def test_parse_reports_the_row_major_first_bad_cell(body, error, message):
    with pytest.raises(error) as info:
        parse_table("weight,color\n" + body, WEIGHT_COLOR)
    assert type(info.value) is error
    assert str(info.value) == message


def test_parse_empty_and_headerless():
    with pytest.raises(ParseError):
        parse_table("")
    with pytest.raises(ParseError):
        infer_schema("onlyheader\n")


def test_parse_ragged_row():
    with pytest.raises(ParseError):
        parse_table("a,b\n1\n")


def test_duplicate_header():
    with pytest.raises(ParseError):
        parse_table("a,a\n1,2\n")


def test_header_schema_mismatch():
    schema = infer_schema(CSV)
    with pytest.raises(SchemaError):
        parse_table("weight,color\n1.0,red\n", schema)


def test_write_load_round_trip(tmp_path):
    table = parse_table(CSV)
    path = tmp_path / "t.csv"
    write_table(table, path)
    again = load_table(path, table.schema)
    assert again.rows == table.rows
    assert again.schema == table.schema


def test_quoting_of_delimiter_labels(tmp_path):
    table = RawTable(
        TableSchema((ColumnSchema("name", ColumnKind.CATEGORICAL,
                                  vocabulary=('plain', 'with,comma', 'with"quote')),)),
        [("with,comma",), ("plain",), ('with"quote',)],
    )
    path = tmp_path / "q.csv"
    write_table(table, path)
    text = path.read_text(encoding="utf-8")
    assert '"with,comma"' in text
    assert load_table(path, table.schema).rows == table.rows


def test_integer_valued_cells_written_without_decimal(tmp_path):
    text = "n\n" + "".join(f"{i}\n" for i in range(25))
    table = parse_table(text)
    assert table.schema.columns[0].integer_valued
    out = table_to_text(table)
    assert "\n3\n" in out and "3.0" not in out


def test_column_writer_matches_the_cell_rule():
    schema = TableSchema((
        ColumnSchema("n", ColumnKind.CONTINUOUS, minimum=-1.0, maximum=3.0, integer_valued=True),
        ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=-1.0, maximum=3.0),
        ColumnSchema("label", ColumnKind.CATEGORICAL,
                     vocabulary=("plain", "with,comma", 'with"quote', "two\nlines")),
    ))
    rows = [(np.float64(2.0), np.float64(0.1), "plain"),
            (-0.0, -0.0, "with,comma"),
            (2.5, 3.0, 'with"quote'),  # validate accepts 2.5 in an integer-valued column
            (-1.0, np.float64(-0.0), "two\nlines")]
    per_cell = io.StringIO()
    writer = csv.writer(per_cell, lineterminator="\n")
    writer.writerow(schema.names)
    for row in rows:
        writer.writerow([_format_cell(c, v) for c, v in zip(schema.columns, row)])
    text = table_to_text(RawTable(schema, rows))
    assert text == per_cell.getvalue()
    assert text == ('n,x,label\n2,0.1,plain\n0,-0.0,"with,comma"\n2.5,3.0,"with""quote"\n'
                    '-1,-0.0,"two\nlines"\n')


def test_schema_json_round_trip(tmp_path):
    schema = infer_schema(CSV)
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    assert load_schema(path) == schema


def test_schema_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_schema(path)
    path.write_text(json.dumps({"columns": [{"name": "x"}]}), encoding="utf-8")
    with pytest.raises(ParseError):
        load_schema(path)


@pytest.mark.parametrize("flag", ["false", 0, None, [True]])
def test_schema_json_integer_valued_must_be_a_boolean(tmp_path, flag):
    column = {"name": "age", "kind": "continuous", "min": 0, "max": 90}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"columns": [dict(column, integer_valued=flag)]}), encoding="utf-8")
    with pytest.raises(ParseError, match="'age'"):
        load_schema(path)
    for given in (True, False):
        path.write_text(json.dumps({"columns": [dict(column, integer_valued=given)]}))
        assert load_schema(path).columns[0].integer_valued is given
    path.write_text(json.dumps({"columns": [column]}))
    assert load_schema(path).columns[0].integer_valued is False


def test_column_schema_validation():
    with pytest.raises(SchemaError):
        ColumnSchema("c", ColumnKind.CATEGORICAL)  # no vocabulary
    with pytest.raises(SchemaError):
        ColumnSchema("c", ColumnKind.CATEGORICAL, vocabulary=("a", "a"))
    with pytest.raises(SchemaError):
        ColumnSchema("c", ColumnKind.CONTINUOUS, minimum=2.0, maximum=1.0)
    with pytest.raises(SchemaError):
        ColumnSchema("c", ColumnKind.CONTINUOUS, minimum=0.0, maximum=float("inf"))
    with pytest.raises(SchemaError):
        TableSchema(())


def test_validate_catches_bad_cells():
    schema = infer_schema(CSV)
    RawTable(schema, [("red", 1.0)]).validate()
    with pytest.raises(SchemaError):
        RawTable(schema, [("red",)]).validate()
    with pytest.raises(SchemaError):
        RawTable(schema, [("purple", 1.0)]).validate()
    with pytest.raises(SchemaError):
        RawTable(schema, []).validate()


def test_validate_reports_the_row_major_first_bad_cell():
    def message(rows):
        with pytest.raises(SchemaError) as info:
            RawTable(WEIGHT_COLOR, rows).validate()
        return str(info.value)

    RawTable(WEIGHT_COLOR, [(1.0, "red"), (np.float64(2.0), "blue")]).validate()
    assert message([(1.0, "red"), (2.0, "green"), (float("nan"), "blue")]) == (
        "row 1, column 'color': label 'green' not in vocabulary")
    assert message([(1.0, "red"), (3, "blue"), (2.0, "green")]) == (
        "row 1, column 'weight': non-finite value 3")
    assert message([(1.0, "red"), (2.0,), (2.0, "green")]) == "row 1 has 1 cells, expected 2"
    assert message([(1.0, "red"), (2.0, ["red"])]) == (
        "row 1, column 'color': label ['red'] not in vocabulary")


def _reference_inference(table, max_numeric_categories=20):
    """Schema and rows that inference must give for a written typed table.

    The rule applied straight to the typed cells: a numeric column with more
    than max_numeric_categories distinct values stays continuous, anything
    else becomes categorical over its written labels in first-appearance order.
    """
    columns, cells_by_column = [], []
    for j, col in enumerate(table.schema.columns):
        cells = [row[j] for row in table.rows]
        if col.kind is ColumnKind.CONTINUOUS and len(set(cells)) > max_numeric_categories:
            columns.append(ColumnSchema(col.name, ColumnKind.CONTINUOUS,
                                        minimum=min(cells), maximum=max(cells),
                                        integer_valued=all(v == int(v) for v in cells)))
        else:
            cells = [_format_cell(col, v) for v in cells]
            columns.append(ColumnSchema(col.name, ColumnKind.CATEGORICAL,
                                        vocabulary=tuple(dict.fromkeys(cells))))
        cells_by_column.append(cells)
    return TableSchema(tuple(columns)), list(zip(*cells_by_column))


def test_load_without_schema_parses_the_text_once(tmp_path, monkeypatch):
    from _datasets import adult_like_table, ring_table

    calls = []
    original = schema_module._parse_csv_text
    monkeypatch.setattr(schema_module, "_parse_csv_text",
                        lambda text: calls.append(1) or original(text))
    for table in (adult_like_table(3000, seed=1), ring_table()[0]):
        path = tmp_path / "table.csv"
        write_table(table, path)
        calls.clear()
        loaded = load_table(path)
        assert len(calls) == 1
        schema, rows = _reference_inference(table)
        assert loaded.schema == schema
        assert loaded.rows == rows


def test_inference_stops_converting_a_column_at_its_first_label(monkeypatch):
    converted = []
    original = schema_module._try_float
    monkeypatch.setattr(schema_module, "_try_float",
                        lambda cell: converted.append(cell) or original(cell))
    text = "label,value\n" + "".join(f"x{i},{i}\n" for i in range(30))
    schema = infer_schema(text)
    assert schema.columns[0].kind is ColumnKind.CATEGORICAL
    assert schema.columns[1].kind is ColumnKind.CONTINUOUS
    assert [c for c in converted if c.startswith("x")] == ["x0"]
    # a forced-continuous column still reports its first bad row
    with pytest.raises(ParseError, match="row 2, column 'v'"):
        infer_schema("v\n1\n2\nbad\n3\nworse\n", overrides={"v": ColumnKind.CONTINUOUS})
