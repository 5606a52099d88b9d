"""Property tests: every table tabsynth writes reads back, decode inverts encode,
typed columns give what row-built tables give, a bad cell is reported where a
row-by-row scan first meets it, the ledger adds up, and a private step clips
and noises as DP-SGD says."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tabsynth.accountant import accumulate_step, fresh_ledger, to_epsilon_delta
from tabsynth.encoding import column_spans, decode, encode
from tabsynth.errors import ParseError, SchemaError
from tabsynth.nn import build_generator
from tabsynth.privacy import PrivacyParams, clip_per_sample, dp_sgd_step, ghost_clip
from tabsynth.schema import (ColumnKind, ColumnSchema, RawTable, TableSchema, _format_cell,
                             parse_table, table_to_text)

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
@given(tables(), st.booleans())
def test_csv_round_trip(table, numpy_cells):
    if numpy_cells:  # decode's cells are floats, but np.float64 ones also validate
        table = RawTable(table.schema, [tuple(np.float64(v) if isinstance(v, float) else v
                                              for v in row) for row in table.rows])
    text = table_to_text(table)
    assert parse_table(text, table.schema).rows == table.rows
    # the column-wise writer gives the text of the cell rule applied row by row
    per_cell = io.StringIO()
    writer = csv.writer(per_cell, lineterminator="\n")
    writer.writerow(table.schema.names)
    for row in table.rows:
        writer.writerow([_format_cell(c, v) for c, v in zip(table.schema.columns, row)])
    assert text == per_cell.getvalue()


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
zeros = st.sampled_from([0.0, -0.0])


@st.composite
def number_columns(draw, n_rows):
    """(cells, integer_valued) of a number column that mixes 0.0 and -0.0:
    floats, integers, one constant, or distinct values of one sign with a
    zero or two among them, so that a zero is the column's min or max."""
    kind = draw(st.sampled_from(("floats", "integers", "constant", "one-signed")))
    if kind == "constant":
        return [draw(st.one_of(zeros, finite))] * n_rows, False
    if kind == "one-signed":
        sign = draw(st.sampled_from([1.0, -1.0]))
        magnitudes = st.floats(1e-300, 1e300)
        cells = [sign * v for v in draw(st.lists(magnitudes, min_size=n_rows, max_size=n_rows,
                                                 unique=True))]
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, n_rows - 1))] = draw(zeros)
        return cells, False
    element = st.integers(-2**48, 2**48).map(float) if kind == "integers" else finite
    cells = draw(st.lists(st.one_of(zeros, element), min_size=n_rows, max_size=n_rows))
    return cells, kind == "integers"


@st.composite
def reference_tables(draw):
    """A valid row-built table of 1-40 rows: label columns and number columns
    (see ``number_columns``), which inference may type either way."""
    n_rows = draw(st.integers(1, 40))
    columns, cells = [], []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            vocab = draw(st.lists(readable_text, min_size=1, max_size=4, unique=True))
            cells.append(draw(st.lists(st.sampled_from(vocab), min_size=n_rows, max_size=n_rows)))
            columns.append(ColumnSchema(f"c{j}", ColumnKind.CATEGORICAL, vocabulary=tuple(vocab)))
            continue
        values, integer = draw(number_columns(n_rows))
        try:
            columns.append(ColumnSchema(f"c{j}", ColumnKind.CONTINUOUS, minimum=min(values),
                                        maximum=max(values), integer_valued=integer))
        except SchemaError:  # a range wider than the largest float
            assume(False)
        cells.append(values)
    return RawTable(TableSchema(tuple(columns)), list(zip(*cells)))


def _row_parse(text, schema=None):
    """The row-built table that CSV text holds, by Python's rules cell by
    cell: ``float`` per number cell and, without a schema, inference by
    ``set``, ``min``, ``max`` and ``float.is_integer`` over each column."""
    header, *body = csv.reader(io.StringIO(text, newline=""))
    if schema is None:
        inferred = []
        for name, cells in zip(header, zip(*body)):
            try:
                numbers = list(map(float, cells))
            except ValueError:
                numbers = [math.nan]
            if all(map(math.isfinite, numbers)) and len(set(numbers)) > 20:
                inferred.append(ColumnSchema(name, ColumnKind.CONTINUOUS, minimum=min(numbers),
                                             maximum=max(numbers),
                                             integer_valued=all(map(float.is_integer, numbers))))
            else:
                inferred.append(ColumnSchema(name, ColumnKind.CATEGORICAL,
                                             vocabulary=tuple(dict.fromkeys(cells))))
        schema = TableSchema(tuple(inferred))
    return RawTable(schema, [tuple(cell if col.kind is ColumnKind.CATEGORICAL else float(cell)
                                   for col, cell in zip(schema.columns, row)) for row in body])


def _row_decode(values, schema):
    """The row-built table that ``decode`` gives: each column's labels or
    Python floats from the same numpy operations, then zipped into rows."""
    cells = []
    for col, span in zip(schema.columns, column_spans(schema)):
        block = values[:, span.start : span.stop]
        if col.kind is ColumnKind.CATEGORICAL:
            cells.append([col.vocabulary[i] for i in np.argmax(block, axis=1).tolist()])
        elif col.maximum == col.minimum:
            cells.append([col.minimum] * len(values))
        else:
            raw = np.clip(block[:, 0], 0.0, 1.0) * (col.maximum - col.minimum) + col.minimum
            raw = np.clip(raw, col.minimum, col.maximum)
            cells.append((np.rint(raw) if col.integer_valued else raw).tolist())
    return RawTable(schema, list(zip(*cells)))


def _exact(table):
    """Schema JSON, rows and encoded bytes, with each float as its hex so
    that 0.0 and -0.0 differ."""
    rows = [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in table.rows]
    return json.dumps(table.schema.to_json_dict()), rows, encode(table).values.tobytes()


@PROPERTY
@given(reference_tables())
def test_typed_columns_match_the_row_built_reference(table):
    text = table_to_text(table)
    assert _exact(parse_table(text, table.schema)) == _exact(_row_parse(text, table.schema))
    assert _exact(parse_table(text)) == _exact(_row_parse(text))
    values = encode(table).values
    assert _exact(decode(values, table.schema)) == _exact(_row_decode(values, table.schema))
    assert table_to_text(_row_parse(text)) == table_to_text(parse_table(text))




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


sample_rates = st.floats(0.0, 1.0, exclude_min=True)
noise_multipliers = st.floats(0.5, 10.0)


@PROPERTY
@given(sample_rates, noise_multipliers, st.integers(1, 50))
def test_ledger_charges_add_up_and_epsilon_never_decreases(q, sigma, k):
    ledgers = [fresh_ledger()]
    for _ in range(k):
        ledgers.append(accumulate_step(ledgers[-1], q, sigma))
    assert np.array_equal(ledgers[-1].accumulated, k * ledgers[1].accumulated)
    epsilons = [to_epsilon_delta(ledger, 1e-5) for ledger in ledgers]
    assert all(a <= b for a, b in zip(epsilons, epsilons[1:]))


@st.composite
def generator_passes(draw, zero_loss_grads=False):
    """A small generator network and 1-4 forward passes over one batch of
    1-12 rows, each with its loss gradients (all zero on request)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch, n_passes = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    net = build_generator(3, 3, rng, width=draw(st.integers(2, 8)), blocks=2)
    passes = []
    for _ in range(n_passes):
        y, caches = net.forward(rng.normal(size=(batch, 3)), mode="train", rng=rng)
        loss_grads = np.zeros_like(y) if zero_loss_grads else rng.normal(size=y.shape) / n_passes
        passes.append((caches, loss_grads))
    return net, passes


@PROPERTY
@given(generator_passes(), st.floats(1e-3, 1e3))
def test_ghost_clip_matches_the_per_sample_matrix_and_bounds_the_sum(case, clip):
    net, passes = case
    grads = sum(net.backward(caches, g, per_sample=True)[0] for caches, g in passes)
    oracle = np.linalg.norm(grads, axis=1)
    norms, clipped = ghost_clip(net, passes, clip)
    np.testing.assert_allclose(norms, oracle, rtol=1e-10, atol=1e-12 * oracle.max())
    np.testing.assert_allclose(clipped, clip_per_sample(grads, clip).sum(axis=0),
                               rtol=1e-10, atol=1e-12 * clip * len(oracle))
    assert np.linalg.norm(clipped) <= len(oracle) * clip * (1.0 + 1e-12)


@PROPERTY
@given(generator_passes(zero_loss_grads=True), sample_rates, noise_multipliers,
       st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_a_step_on_zero_gradients_is_noise_alone(case, q, sigma, clip, seed):
    net, passes = case
    params = PrivacyParams(1.0, 1e-5, sigma, clip, q)
    update, ledger = dp_sgd_step(net, passes, fresh_ledger(), params, np.random.default_rng(seed))
    batch = passes[0][1].shape[0]
    noise = np.random.default_rng(seed).normal(0.0, clip * sigma, net.n_params)
    assert np.array_equal(update, noise / batch)
    assert ledger == accumulate_step(fresh_ledger(), q, sigma)
