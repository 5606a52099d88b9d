import numpy as np
import pytest

from tabsynth.encoding import column_spans, decode, encode
from tabsynth.errors import SchemaError
from tabsynth.schema import ColumnKind, ColumnSchema, RawTable, TableSchema

SCHEMA = TableSchema((
    ColumnSchema("cat", ColumnKind.CATEGORICAL, vocabulary=("A", "B", "C")),
    ColumnSchema("cont", ColumnKind.CONTINUOUS, minimum=0.0, maximum=10.0),
))


def test_hand_encodings():
    table = RawTable(SCHEMA, [("B", 5.0), ("A", 0.0), ("C", 10.0)])
    m = encode(table)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.5],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    np.testing.assert_array_equal(m.values, expected)


def test_hand_decodings():
    rows = decode(np.array([[0.2, 0.9, 0.1, 0.5]]), SCHEMA).rows
    assert rows == [("B", 5.0)]
    # tie goes to the first index; out-of-range continuous is clamped first
    rows = decode(np.array([[0.5, 0.5, 0.0, 1.7]]), SCHEMA).rows
    assert rows == [("A", 10.0)]
    rows = decode(np.array([[0.5, 0.5, 0.0, -0.3]]), SCHEMA).rows
    assert rows == [("A", 0.0)]


def test_spans_partition_width():
    spans = column_spans(SCHEMA)
    assert [s.start for s in spans] == [0, 3]
    assert [s.width for s in spans] == [3, 1]
    assert sum(s.width for s in spans) == SCHEMA.encoded_width == 4


def test_constant_column_encodes_zero_decodes_min():
    schema = TableSchema((
        ColumnSchema("k", ColumnKind.CONTINUOUS, minimum=7.0, maximum=7.0),
    ))
    m = encode(RawTable(schema, [(7.0,), (7.0,)]))
    np.testing.assert_array_equal(m.values, np.zeros((2, 1)))
    assert decode(np.array([[0.63]]), schema).rows == [(7.0,)]


def test_integer_valued_rounding():
    schema = TableSchema((
        ColumnSchema("n", ColumnKind.CONTINUOUS, minimum=0.0, maximum=10.0,
                     integer_valued=True),
    ))
    assert decode(np.array([[0.44]]), schema).rows == [(4.0,)]
    assert decode(np.array([[0.46]]), schema).rows == [(5.0,)]


def test_round_trip_random_table():
    rng = np.random.default_rng(0)
    vocab = tuple(f"v{i}" for i in range(6))
    schema = TableSchema((
        ColumnSchema("c1", ColumnKind.CATEGORICAL, vocabulary=vocab),
        ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=-3.0, maximum=8.0),
        ColumnSchema("c2", ColumnKind.CATEGORICAL, vocabulary=("y", "n")),
    ))
    rows = [(vocab[rng.integers(6)], float(rng.uniform(-3, 8)), ("y", "n")[rng.integers(2)])
            for _ in range(500)]
    table = RawTable(schema, rows)
    back = decode(encode(table).values, schema)
    for orig, rt in zip(rows, back.rows):
        assert rt[0] == orig[0] and rt[2] == orig[2]
        assert abs(rt[1] - orig[1]) < 1e-9


def test_encode_decode_encode_idempotent():
    rng = np.random.default_rng(1)
    # arbitrary float matrix, not a valid encoding: one decode normalizes it
    raw = rng.uniform(-0.5, 1.5, size=(40, SCHEMA.encoded_width))
    once = encode(decode(raw, SCHEMA))
    twice = encode(decode(once.values, SCHEMA))
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)


def test_decode_stays_inside_schema_ranges():
    rng = np.random.default_rng(2)
    raw = rng.normal(0, 3, size=(200, SCHEMA.encoded_width))
    table = decode(raw, SCHEMA)
    for cat, cont in table.rows:
        assert cat in ("A", "B", "C")
        assert 0.0 <= cont <= 10.0


def test_decode_never_rounds_past_the_range():
    # (max - min) * 1 + min rounds one ulp above max for this pair.
    lo, hi = -0.10228868553863764, 0.0010551220465447428
    assert (hi - lo) * 1.0 + lo > hi
    schema = TableSchema((ColumnSchema("v", ColumnKind.CONTINUOUS, minimum=lo, maximum=hi),))
    rows = decode(np.array([[1.0], [2.0], [0.0], [-1.0]]), schema).rows
    assert rows == [(hi,), (hi,), (lo,), (lo,)]


def test_encode_rejects_invalid_rows():
    with pytest.raises(SchemaError):
        encode(RawTable(SCHEMA, [("D", 1.0)]))
    with pytest.raises(SchemaError):
        encode(RawTable(SCHEMA, [("A", float("nan"))]))


def test_encode_reports_the_first_bad_cell_of_a_hand_built_table():
    good = [("A", 1.0), ("B", 2.0), ("C", 3.0)]
    with pytest.raises(SchemaError, match=r"^row 3, column 'cat': label 'D' not in vocabulary$"):
        encode(RawTable(SCHEMA, good + [("D", 4.0), ("A", float("nan"))]))
    with pytest.raises(SchemaError, match=r"^row 1, column 'cont': non-finite value nan$"):
        encode(RawTable(SCHEMA, [("A", 1.0), ("B", float("nan")), ("D", 3.0)]))


def test_decode_width_mismatch():
    with pytest.raises(SchemaError):
        decode(np.zeros((3, 5)), SCHEMA)
