"""Tests for table handling, schema inference, and binarization."""

import math
import random

import pytest

from rulecover.bits import bit_indices
from rulecover.dataset import (
    BINARY,
    CATEGORICAL,
    DataError,
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
    # nine copies of 1.0 and a single 5.0: the 0.9 cut at 5.0 would make
    # "v <= 5" constant-true, so only the 1.0 cut survives
    rows = [["1", "0"]] * 9 + [["5", "1"]]
    table = make_table(["v", "y"], rows)
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
    direct = data.subset(keep)
    assert redone.columns == direct.columns
    assert redone.labels == direct.labels


def test_apply_descriptors_without_labels_gives_zero_labels():
    table = make_table(["c", "y"], [["a", "1"], ["b", "0"]])
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


def test_binary_dataset_row_bits():
    table = make_table(["c", "y"], [["a", "1"], ["b", "0"], ["a", "0"]])
    data = binarize(table, {"c": CATEGORICAL, "y": LABEL})
    for i in range(data.n):
        bits = data.row_bits(i)
        for j in range(data.d):
            assert bits[j] == (data.columns[j] >> i & 1)


def test_tic_tac_toe_corpus_shape():
    table, schema = tic_tac_toe()
    assert table.n == 958
    data = binarize(table, schema)
    assert data.d == 54
    assert data.n_pos == 626
    assert data.n_neg == 332


def test_tic_tac_toe_feature_naming():
    table, schema = tic_tac_toe()
    data = binarize(table, schema)
    names = data.feature_names()
    assert "top-left = x" in names
    assert "middle-middle != o" in names
    assert len(names) == len(set(names))
