"""Differential tests of the column encoder.

dataset._encode_column maps each cell to a one-byte code and packs every
feature with one bytes.translate. It is checked against a frozen copy of
the per-cell encoder it replaced and against FeatureDescriptor.test: the
same bitsets on success, and the same error type and message on bad cells.
"""

import random
import warnings

import pytest

from conftest import random_table
from rulecover.bits import all_ones
from rulecover.dataset import (
    BINARY,
    CATEGORICAL,
    CODE_WINDOW,
    LABEL,
    NUMERIC,
    DataError,
    FeatureDescriptor,
    Table,
    _encode_column,
    _parse_number,
    apply_descriptors,
    binarize,
    infer_schema,
)


def frozen_encode_column(col, name, descriptors, universe):
    """The encoder before the code-byte kernel: one Python comparison per
    cell per `<=` and `=` bitset."""

    def pack_bools(flags):
        return int("".join(["1" if f else "0" for f in flags])[::-1] or "0", 2)

    if "" in col:
        raise DataError(f"{name}: missing values are not supported")
    values = []
    packed = {}
    out = []
    for desc in descriptors:
        if desc.kind in ("numeric-le", "numeric-gt"):
            cut, positive = float(desc.operand), desc.kind == "numeric-le"
            key = ("<=", cut)
            if key not in packed:
                values = values or [_parse_number(v, name) for v in col]
                packed[key] = pack_bools([v <= cut for v in values])
        elif desc.kind == "raw-binary":
            key, positive = ("binary",), desc.operand == 1
            if key not in packed:
                if not set(col) <= {"0", "1"}:
                    bad = next(v for v in col if v not in ("0", "1"))
                    raise DataError(f"{name}: non-binary value {bad!r}")
                packed[key] = int("".join(col)[::-1] or "0", 2)
        else:
            key, positive = ("=", desc.operand), desc.kind == "categorical-eq"
            if key not in packed:
                packed[key] = pack_bools(map(desc.operand.__eq__, col))
        out.append(packed[key] if positive else universe ^ packed[key])
    return out


def _outcome(encode, col, name, descriptors):
    try:
        return encode(col, name, descriptors, all_ones(len(col)))
    except DataError as e:
        return type(e), str(e)


def assert_encodes_like_reference(col, descriptors, name="x"):
    """The encoder and its frozen copy agree, bitsets or error; on success
    every bit is FeatureDescriptor.test of its cell."""
    got = _outcome(_encode_column, col, name, descriptors)
    assert got == _outcome(frozen_encode_column, col, name, descriptors)
    if isinstance(got, list):
        for bits, desc in zip(got, descriptors):
            assert [bool(bits >> i & 1) for i in range(len(col))] == [
                desc.test(v) for v in col
            ], desc
    return got


def numeric(cut, le=True, name="x"):
    return FeatureDescriptor(
        f"{name} {'<=' if le else '>'} {cut!r}", 0, name,
        "numeric-le" if le else "numeric-gt", cut,
    )


def categorical(z, eq=True, name="x"):
    return FeatureDescriptor(
        f"{name} {'=' if eq else '!='} {z}", 0, name,
        "categorical-eq" if eq else "categorical-neq", z,
    )


def binary(one=True, name="x"):
    return FeatureDescriptor(f"{name} = {int(one)}", 0, name, "raw-binary", int(one))


def test_random_tables_encode_like_the_frozen_encoder():
    rng = random.Random(515)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 10, 37, 200])
        table, schema = random_table(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = binarize(table, schema)
        for name, col in zip(table.names, table.columns):
            group = [d for d in data.descriptors if d.source_name == name]
            rng.shuffle(group)
            assert_encodes_like_reference(col, group, name)
            # cuts and categories the column never saw
            extra = [numeric(rng.uniform(-6, 6), rng.random() < 0.5, name),
                     categorical(f"z{rng.randrange(20)}", rng.random() < 0.5, name)]
            assert_encodes_like_reference(col, group + extra, name)


def test_more_categories_than_one_code_window():
    rng = random.Random(3)
    k = 2 * CODE_WINDOW + 90
    train = [f"k{i}" for i in range(k)] + [f"k{rng.randrange(k)}" for _ in range(200)]
    table = Table(["c", "y"], [train, [str(i % 2) for i in range(len(train))]])
    data = binarize(table, {"c": "categorical", "y": "label"})
    assert data.d == 2 * k
    assert_encodes_like_reference(train, data.descriptors, "c")
    # serving: categories unseen in training, and the descriptors reversed so
    # the windows hold other operands
    serve = [rng.choice([f"k{rng.randrange(k)}", f"new{rng.randrange(5)}"]) for _ in range(300)]
    for group in (data.descriptors, data.descriptors[::-1]):
        got = apply_descriptors(Table(["c"], [serve]), group).columns
        assert got == assert_encodes_like_reference(serve, group, "c")
    assert apply_descriptors(Table(["c"], [["unseen"] * 4]), data.descriptors).columns == [
        0b0000 if d.kind == "categorical-eq" else 0b1111 for d in data.descriptors
    ]


def test_more_cuts_than_one_code_window():
    rng = random.Random(4)
    cuts = sorted({round(rng.uniform(-100, 100), 2) for _ in range(3 * CODE_WINDOW)})
    assert len(cuts) > 2 * CODE_WINDOW
    descriptors = [numeric(c, le, "v") for c in cuts for le in (True, False)]
    rng.shuffle(descriptors)
    # cells on every cut, between cuts, and past both ends
    cells = [repr(c) for c in cuts] + ["-1e9", "1e9", "-0", "0"]
    cells += [str(rng.uniform(-120, 120)) for _ in range(400)]
    rng.shuffle(cells)
    got = apply_descriptors(Table(["v"], [cells]), descriptors).columns
    assert got == assert_encodes_like_reference(cells, descriptors, "v")


def test_cells_on_a_cut_signed_zeros_and_exponent_spellings():
    cells = ["-0", "0", "-0.0", "0.0", "0e0", "1e-3", "0.001", "1E-3", "1e-4",
             "-1e-3", "2.5", "2.50", "25e-1", "3", "1_0", " 4 "]
    cuts = [-0.0, 0.0, 0.001, 1e-4, -0.001, 2.5, 3.0, 10.0, 4.0]
    for order in (cuts, cuts[::-1]):
        descriptors = [numeric(c, le) for c in order for le in (True, False)]
        bits = assert_encodes_like_reference(cells, descriptors)
        assert isinstance(bits, list)
    # -0.0 and 0.0 are one cut, whichever spelling comes first
    zero, negzero = assert_encodes_like_reference(cells, [numeric(0.0), numeric(-0.0)])
    assert zero == negzero == 0b11111 | 1 << 9


@pytest.mark.parametrize("bad", ["", "abc", "nan", "inf", "-inf", "NaN", "1e999"])
def test_bad_numeric_cells_raise_the_frozen_error(bad):
    rng = random.Random(5)
    for position in (0, 5, 9):
        col = [str(rng.uniform(-3, 3)) for _ in range(10)]
        col[position] = bad
        col[7] = "7" if bad == "" else "oops"  # the first bad cell in column order wins
        for group in ([numeric(0.5), numeric(-1.0, False)],
                      [categorical("1"), numeric(0.5)],
                      [binary(), numeric(0.5)],
                      [numeric(0.5), binary()]):
            outcome = assert_encodes_like_reference(col, group)
            assert outcome[0] is DataError


@pytest.mark.parametrize("bad", ["2", "abc", "1.0", "-0", "", " 1"])
def test_bad_binary_cells_raise_the_frozen_error(bad):
    col = ["1", "0", bad, "1", "x"]
    for group in ([binary(), binary(False)], [categorical("1"), binary()],
                  [numeric(0.5), binary()], [binary(False), numeric(0.5)]):
        outcome = assert_encodes_like_reference(col, group)
        assert outcome[0] is DataError


def test_binary_and_categorical_codes_on_one_column():
    col = ["0", "1", "1", "0", "1"]
    group = [binary(False), categorical("1"), numeric(0.5), categorical("2", False), binary()]
    assert assert_encodes_like_reference(col, group) == [
        0b01001, 0b10110, 0b01001, 0b11111, 0b10110,
    ]


def _dataset_or_error(encode, *args):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return encode(*args)
    except DataError as e:
        return type(e), str(e)


@pytest.mark.parametrize("bad", [None, ("b", "2"), ("v", "x"), ("c", " "), ("y", "2")])
def test_str_columns_encode_like_the_same_cells_in_lists(bad):
    # Table.read_csv holds a file of one-character cells as str columns.
    # binarize and apply_descriptors must give the dataset, or the error,
    # that the same cells give in list columns.
    names = ["c", "v", "b", "y"]
    schema = {"c": CATEGORICAL, "v": NUMERIC, "b": BINARY, "y": LABEL}
    alphabet = {"c": "abé☃", "v": "0123456789", "b": "01", "y": "01"}
    rng = random.Random(21)
    for n in (1, 2, 7, 40, 100):
        rows = [[rng.choice(alphabet[k]) for k in names] for _ in range(n)]
        clean = Table.from_rows(names, rows)
        fitted = _dataset_or_error(binarize, clean, schema)
        if bad is not None:
            name, cell = bad
            rows[rng.randrange(n)][names.index(name)] = cell
        narrow = Table(names, ["".join(row[k] for row in rows) for k in range(len(names))])
        listed = Table(names, [[row[k] for row in rows] for k in range(len(names))])
        assert _dataset_or_error(binarize, narrow, schema) == _dataset_or_error(
            binarize, listed, schema)
        if n > 1:
            assert infer_schema(narrow, "y") == infer_schema(listed, "y")
        if not isinstance(fitted, tuple):
            applied = [_dataset_or_error(apply_descriptors, t, fitted.descriptors, "y")
                       for t in (narrow, listed)]
            assert applied[0] == applied[1]
            if bad == ("b", "2") and any(d.source_name == "b" for d in fitted.descriptors):
                assert applied[0] == (DataError, "b: non-binary value '2'")
