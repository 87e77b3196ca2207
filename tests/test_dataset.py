"""Tests for table handling, schema inference, and binarization."""

import math
import random
import warnings

import pytest

from conftest import random_table
from rulecover.dataset import (
    BINARY,
    BinaryDataset,
    CATEGORICAL,
    DataError,
    FeatureDescriptor,
    LABEL,
    NUMERIC,
    SchemaError,
    Table,
    apply_descriptors,
    binarize,
    check_schema,
    decile_cuts,
    infer_schema,
)
from rulecover.datasets import tic_tac_toe


def make_table(names, rows):
    return Table.from_rows(names, rows)


def test_table_rejects_ragged_rows():
    with pytest.raises(DataError):
        make_table(["a", "b"], [["1", "2"], ["3"]])


def test_table_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Table(names=["a", "a"], columns=[["1"], ["2"]])


def test_check_schema_requires_exactly_one_label():
    schema = {"a": CATEGORICAL, "y": LABEL}
    table = make_table(["a", "y"], [["u", "1"]])
    assert check_schema(table, schema) == "y"
    with pytest.raises(SchemaError):
        check_schema(table, {"a": CATEGORICAL, "y": CATEGORICAL})
    with pytest.raises(SchemaError):
        check_schema(table, {"a": LABEL, "y": LABEL})


def test_check_schema_requires_every_column_declared():
    table = make_table(["a", "b", "y"], [["u", "v", "0"]])
    with pytest.raises(SchemaError):
        check_schema(table, {"a": CATEGORICAL, "y": LABEL})


def test_infer_schema_picks_kinds():
    table = make_table(
        ["flag", "size", "color", "y"],
        [
            ["0", "1.5", "red", "1"],
            ["1", "2.0", "blue", "0"],
            ["0", "7", "red", "0"],
        ],
    )
    schema = infer_schema(table, "y")
    assert schema == {"flag": BINARY, "size": NUMERIC, "color": CATEGORICAL, "y": LABEL}


def test_infer_schema_numeric_needs_all_floats():
    table = make_table(["v", "y"], [["1.5", "1"], ["oops", "0"]])
    assert infer_schema(table, "y")["v"] == CATEGORICAL


def test_decile_cuts_unique_values():
    # n=10 distinct values: cut k sits at sorted index (10k + 9) // 10 - 1 = k - 1
    values = [float(v) for v in range(1, 11)]
    assert decile_cuts(values) == [float(v) for v in range(1, 10)]


def test_decile_cuts_integer_index_arithmetic():
    # n=70, k=7: index (7*70 + 9) // 10 - 1 = 48, no float rounding involved
    values = [float(v) for v in range(70)]
    cuts = decile_cuts(values)
    assert cuts[6] == 48.0


def test_decile_cuts_dedup_on_ties():
    values = [1.0] * 50 + [2.0] * 50
    assert decile_cuts(values) == [1.0, 2.0]


def test_binarize_categorical_three_categories_gives_six_features():
    rows = [["a", "1"], ["b", "0"], ["c", "1"], ["a", "0"]]
    table = make_table(["col", "y"], rows)
    data = binarize(table, {"col": CATEGORICAL, "y": LABEL})
    assert data.d == 6
    names = data.feature_names()
    assert names == [
        "col = a",
        "col != a",
        "col = b",
        "col != b",
        "col = c",
        "col != c",
    ]
    # eq/neq pairs are complements
    for j in range(0, 6, 2):
        assert data.columns[j] ^ data.columns[j + 1] == data.universe


def test_binarize_numeric_ten_distinct_values_gives_eighteen_features():
    rows = [[str(v), "0"] for v in range(1, 11)]
    table = make_table(["v", "y"], rows)
    data = binarize(table, {"v": NUMERIC, "y": LABEL})
    assert data.d == 18
    assert data.feature_names()[:2] == ["v <= 1", "v > 1"]
    for j in range(0, 18, 2):
        assert data.columns[j] ^ data.columns[j + 1] == data.universe


def test_binarize_numeric_skips_degenerate_thresholds():
    # eight copies of 1.0 and two of 5.0: the 0.9 decile is the column
    # maximum 5.0, whose cut would make "v <= 5" constant-true, so only the
    # 1.0 cut survives
    rows = [["1", "0"]] * 8 + [["5", "1"]] * 2
    table = make_table(["v", "y"], rows)
    assert decile_cuts([1.0] * 8 + [5.0] * 2) == [1.0, 5.0]
    data = binarize(table, {"v": NUMERIC, "y": LABEL})
    assert data.feature_names() == ["v <= 1", "v > 1"]


def test_binarize_binary_column_passthrough():
    rows = [["1", "1"], ["0", "0"], ["1", "0"]]
    table = make_table(["b", "y"], rows)
    data = binarize(table, {"b": BINARY, "y": LABEL})
    assert data.feature_names() == ["b = 1", "b = 0"]
    assert data.columns[0] == 0b101
    assert data.columns[1] == 0b010


def test_binarize_constant_column_warns_and_skips():
    rows = [["k", "0", "1"], ["k", "1", "0"]]
    table = make_table(["const", "b", "y"], rows)
    with pytest.warns(UserWarning, match="constant"):
        data = binarize(table, {"const": CATEGORICAL, "b": BINARY, "y": LABEL})
    assert all(name.startswith("b ") for name in data.feature_names())


def test_binarize_duplicate_columns_warn_but_are_kept():
    rows = [["a", "a", "1"], ["b", "b", "0"]]
    table = make_table(["c1", "c2", "y"], rows)
    with pytest.warns(UserWarning, match="duplicate"):
        data = binarize(table, {"c1": CATEGORICAL, "c2": CATEGORICAL, "y": LABEL})
    assert data.d == 8


def test_binarize_rejects_empty_cells():
    table = Table(names=["a", "y"], columns=[["u", ""], ["0", "1"]])
    with pytest.raises(DataError):
        binarize(table, {"a": CATEGORICAL, "y": LABEL})


def test_binarize_rejects_non_binary_labels():
    table = make_table(["a", "y"], [["u", "yes"]])
    with pytest.raises(DataError):
        binarize(table, {"a": CATEGORICAL, "y": LABEL})


def test_binarize_question_mark_is_a_category():
    rows = [["?", "1"], ["a", "0"]]
    table = make_table(["c", "y"], rows)
    with pytest.warns(UserWarning, match="2 duplicate binary feature"):
        data = binarize(table, {"c": CATEGORICAL, "y": LABEL})
    assert "c = ?" in data.feature_names()


def test_binarize_is_deterministic():
    rng = random.Random(5)
    rows = [[rng.choice("xyz"), str(rng.random()), str(rng.randrange(2))] for _ in range(25)]
    table = make_table(["c", "v", "y"], rows)
    schema = {"c": CATEGORICAL, "v": NUMERIC, "y": LABEL}
    data1 = binarize(table, schema)
    data2 = binarize(table, schema)
    assert data1.columns == data2.columns
    assert data1.labels == data2.labels
    assert [d.name for d in data1.descriptors] == [d.name for d in data2.descriptors]


def test_descriptor_test_matches_built_columns():
    rng = random.Random(9)
    rows = [[rng.choice("pq"), str(rng.uniform(0, 5)), str(rng.randrange(2))] for _ in range(30)]
    table = make_table(["c", "v", "y"], rows)
    with pytest.warns(UserWarning, match="2 duplicate binary feature"):
        data = binarize(table, {"c": CATEGORICAL, "v": NUMERIC, "y": LABEL})
    for j, desc in enumerate(data.descriptors):
        col = table.columns[desc.source_column]
        for i in range(data.n):
            assert desc.test(col[i]) == bool(data.columns[j] >> i & 1)


def test_apply_descriptors_roundtrip_on_row_subset():
    rng = random.Random(13)
    rows = [[rng.choice("abc"), str(rng.randrange(2)), str(rng.randrange(2))] for _ in range(40)]
    rows[0][2], rows[1][2] = "0", "1"
    table = make_table(["c", "b", "y"], rows)
    schema = {"c": CATEGORICAL, "b": BINARY, "y": LABEL}
    data = binarize(table, schema)
    keep = sorted(rng.sample(range(40), 17))
    sub_table = table.select_rows(keep)
    redone = apply_descriptors(sub_table, data.descriptors, label_column="y")
    # Bit i of each re-encoded bitset is bit keep[i] of the training one.
    def kept(bits):
        return sum(1 << i for i, row in enumerate(keep) if bits >> row & 1)

    assert redone.columns == [kept(c) for c in data.columns]
    assert redone.labels == kept(data.labels)


def test_apply_descriptors_without_labels_gives_zero_labels():
    table = make_table(["c", "y"], [["a", "1"], ["b", "0"]])
    with pytest.warns(UserWarning, match="2 duplicate binary feature"):
        data = binarize(table, {"c": CATEGORICAL, "y": LABEL})
    unlabeled = Table(names=["c"], columns=[table.columns[0]])
    out = apply_descriptors(unlabeled, data.descriptors)
    assert out.labels == 0
    assert out.columns == data.columns


def test_non_finite_cells_are_rejected_in_training_and_serving():
    clean = [[str(v), str(v % 2)] for v in range(10)]
    schema = {"v": NUMERIC, "y": LABEL}
    descriptors = binarize(make_table(["v", "y"], clean), schema).descriptors
    for bad in ("nan", "inf", "-inf"):
        rows = [list(r) for r in clean]
        rows[3][0] = bad
        table = make_table(["v", "y"], rows)
        with pytest.raises(DataError, match="non-finite"):
            binarize(table, schema)
        with pytest.raises(DataError, match="non-finite"):
            apply_descriptors(table, descriptors)


def _binarize_quietly(table, schema):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return binarize(table, schema)


def assert_serving_encodes_like_training(table, schema, rng):
    """apply_descriptors on the training table gives binarize's bits, for
    the full descriptor list, a shuffled one and a subset, also when the
    table's columns come in another order; each column also agrees with
    FeatureDescriptor.test cell by cell."""
    label = check_schema(table, schema)
    data = _binarize_quietly(table, schema)
    assert all(0 != bits != data.universe for bits in data.columns)
    again = apply_descriptors(table, data.descriptors, label)
    assert again.columns == data.columns
    assert again.labels == data.labels
    assert again.descriptors == data.descriptors

    order = list(range(len(table.names)))
    rng.shuffle(order)
    reordered = Table([table.names[i] for i in order], [table.columns[i] for i in order])
    shuffled = list(range(data.d))
    rng.shuffle(shuffled)
    subset = sorted(rng.sample(range(data.d), rng.randrange(data.d + 1)))
    for target in (table, reordered):
        for picks in (shuffled, subset):
            descriptors = [data.descriptors[j] for j in picks]
            out = apply_descriptors(target, descriptors)
            assert out.columns == [data.columns[j] for j in picks]
            assert out.labels == 0
            for bits, desc in zip(out.columns, descriptors):
                cells = target.column(desc.source_name)
                assert [bool(bits >> i & 1) for i in range(table.n)] == [
                    desc.test(v) for v in cells
                ]


def test_serving_encodes_random_tables_like_training():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 10, 37, 200])
        table, schema = random_table(rng, n)
        assert_serving_encodes_like_training(table, schema, rng)


def test_serving_encodes_adversarial_tables_like_training():
    rng = random.Random(7)
    n = 40
    columns = {
        # ties at every cut: each decile lands inside a block of equal values
        "ties": [str(i // 10) for i in range(n)],
        # signed zeros and two spellings of each value share every cut
        "zeros": [rng.choice(["-0", "0", "-0.0", "0e0", "1"]) for _ in range(n)],
        "spellings": [rng.choice(["1e3", "1000", "1000.0", "999", "1e-3"]) for _ in range(n)],
        # one row differs from all the others: only a single cut survives
        "one_off": ["5"] + ["2"] * (n - 1),
        "one_off_cat": ["rare"] + ["common"] * (n - 1),
        "one_off_bin": ["1"] + ["0"] * (n - 1),
        # many categories, most of them on a single row
        "many": [f"k{rng.randrange(150)}" for _ in range(n)],
        # constant columns are skipped by binarize
        "const_num": ["3.5"] * n,
        "const_cat": ["x"] * n,
        "const_bin": ["1"] * n,
        "y": [str(i % 2) for i in range(n)],
    }
    schema = {
        "ties": NUMERIC, "zeros": NUMERIC, "spellings": NUMERIC, "one_off": NUMERIC,
        "one_off_cat": CATEGORICAL, "one_off_bin": BINARY, "many": CATEGORICAL,
        "const_num": NUMERIC, "const_cat": CATEGORICAL, "const_bin": BINARY, "y": LABEL,
    }
    table = Table(list(columns), list(columns.values()))
    data = _binarize_quietly(table, schema)
    assert {d.source_name for d in data.descriptors}.isdisjoint(
        {"const_num", "const_cat", "const_bin"}
    )
    # the 0.9 cut is the maximum, 3, whose `<=` feature would be all-true
    assert [d.name for d in data.descriptors if d.source_name == "ties"] == [
        "ties <= 0", "ties > 0", "ties <= 1", "ties > 1", "ties <= 2", "ties > 2",
    ]
    assert [d.name for d in data.descriptors if d.source_name == "one_off"] == [
        "one_off <= 2",
        "one_off > 2",
    ]
    assert_serving_encodes_like_training(table, schema, rng)
    # a one-row table: every column is constant, so there are no features
    one_row = table.select_rows([0])
    assert _binarize_quietly(one_row, schema).d == 0
    assert apply_descriptors(one_row, data.descriptors).columns == [
        data.columns[j] & 1 for j in range(data.d)
    ]


# Exact messages: callers and users see them, and the shared column
# encoder must raise what the per-cell FeatureDescriptor.test raises.
TRAIN_CLEAN = [["a", "1.5", "1", "1"], ["b", "-2", "0", "0"], ["a", "3", "1", "0"]]
SCHEMA = {"c": CATEGORICAL, "v": NUMERIC, "b": BINARY, "y": LABEL}
CELL_ERRORS = [
    # (column index, cells, binarize message, apply_descriptors message)
    (0, ["a", "", "b"], "c: missing values are not supported",
     "c: missing values are not supported"),
    (1, ["1", "", "x"], "v: missing values are not supported",
     "v: missing values are not supported"),
    (1, ["1", "abc", "inf"], "v: non-numeric value 'abc'", "v: non-numeric value 'abc'"),
    (1, ["1", "nan", "abc"], "v: non-finite value 'nan'", "v: non-finite value 'nan'"),
    (1, ["-inf", "1", "2"], "v: non-finite value '-inf'", "v: non-finite value '-inf'"),
    (1, ["1", "2", "inf"], "v: non-finite value 'inf'", "v: non-finite value 'inf'"),
    (2, ["1", "7", "2"], "b: binary column has values ['2', '7']", "b: non-binary value '7'"),
    (2, ["1", "2", "7"], "b: binary column has values ['2', '7']", "b: non-binary value '2'"),
    (2, ["1", "", "2"], "b: missing values are not supported",
     "b: missing values are not supported"),
]


def _with_cells(j, cells):
    rows = [list(r) for r in TRAIN_CLEAN]
    for row, cell in zip(rows, cells):
        row[j] = cell
    return Table(["c", "v", "b", "y"], [list(col) for col in zip(*rows)])


@pytest.mark.parametrize("j, cells, train_message, serve_message", CELL_ERRORS)
def test_bad_cells_raise_the_same_error_in_training_and_serving(
    j, cells, train_message, serve_message
):
    descriptors = _binarize_quietly(_with_cells(0, ["a", "b", "a"]), SCHEMA).descriptors
    table = _with_cells(j, cells)
    with pytest.raises(DataError) as train_error:
        _binarize_quietly(table, SCHEMA)
    assert str(train_error.value) == train_message
    with pytest.raises(DataError) as serve_error:
        apply_descriptors(table, descriptors, "y")
    assert str(serve_error.value) == serve_message


def test_missing_column_raises_schema_error_in_training_and_serving():
    table = _with_cells(0, ["a", "b", "a"])
    descriptors = _binarize_quietly(table, SCHEMA).descriptors
    without_v = Table(["c", "b", "y"], [table.column(n) for n in ("c", "b", "y")])
    with pytest.raises(SchemaError) as train_error:
        _binarize_quietly(without_v, SCHEMA)
    assert str(train_error.value) == "schema names unknown column 'v'"
    with pytest.raises(SchemaError) as serve_error:
        apply_descriptors(without_v, descriptors)
    assert str(serve_error.value) == "table lacks column 'v'"


def test_serving_reports_the_first_bad_column_in_descriptor_order():
    table = _with_cells(0, ["a", "b", "a"])
    descriptors = _binarize_quietly(table, SCHEMA).descriptors
    bad = Table(["c", "v", "b"], [["a", "", "a"], ["1", "x", "2"], ["1", "0", "1"]])
    by_v_first = sorted(descriptors, key=lambda d: d.source_name != "v")
    with pytest.raises(DataError, match="^c: missing"):
        apply_descriptors(bad, descriptors)
    with pytest.raises(DataError, match="^v: non-numeric value 'x'"):
        apply_descriptors(bad, by_v_first)
    without_c = Table(["v", "b"], bad.columns[1:])
    with pytest.raises(SchemaError, match="lacks column 'c'"):
        apply_descriptors(without_c, descriptors)
    with pytest.raises(DataError, match="^v: non-numeric"):
        apply_descriptors(without_c, by_v_first)


def test_descriptors_reject_operands_that_match_no_cell():
    for kind, operand in (
        ("raw-binary", True),
        ("raw-binary", False),
        ("raw-binary", 2),
        ("raw-binary", "1"),
        ("raw-binary", 1.0),
        ("categorical-eq", 7),
        ("categorical-neq", None),
    ):
        with pytest.raises(SchemaError, match="operand"):
            FeatureDescriptor("f", 0, "f", kind, operand)
    FeatureDescriptor("f", 0, "f", "raw-binary", 0)
    FeatureDescriptor("f", 0, "f", "categorical-eq", "7")


def test_binary_dataset_row_bits():
    table = make_table(["c", "y"], [["a", "1"], ["b", "0"], ["a", "0"]])
    with pytest.warns(UserWarning, match="2 duplicate binary feature"):
        data = binarize(table, {"c": CATEGORICAL, "y": LABEL})
    assert data.feature_names() == ["c = a", "c != a", "c = b", "c != b"]
    rows = [[(c >> i) & 1 for c in data.columns] for i in range(data.n)]
    assert rows == [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1]]


def test_tic_tac_toe_corpus_shape():
    table, schema = tic_tac_toe()
    assert table.n == 958
    data = binarize(table, schema)
    assert data.d == 54
    assert data.n_pos == 626
    assert data.n - data.n_pos == 332


def test_tic_tac_toe_feature_naming():
    table, schema = tic_tac_toe()
    data = binarize(table, schema)
    names = data.feature_names()
    assert "top-left = x" in names
    assert "middle-middle != o" in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_binary_dataset_rejects_bits_outside_its_rows(n):
    # A bit at n or above, or a negative bitset (every bit set beyond the
    # top), lies outside the n samples.
    desc = [FeatureDescriptor("f", 0, "f", "raw-binary", 1)]
    inside = (1 << n) - 1
    assert BinaryDataset(n, [inside], inside, desc).universe == inside
    for bad in (1 << n, inside | 1 << (n + 7), -1):
        with pytest.raises(DataError, match="column bits outside sample range"):
            BinaryDataset(n, [bad], inside, desc)
        with pytest.raises(DataError, match="label bits outside sample range"):
            BinaryDataset(n, [inside], bad, desc)
