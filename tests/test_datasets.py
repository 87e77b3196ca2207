"""Tests for the bundled benchmark datasets and synthetic generators."""

import random

import pytest

from conftest import MUSHROOM_PATH, needs_mushroom, table_three_tic_tac_toe_rules
from rulecover.dataset import binarize
from rulecover.datasets import (
    MUSHROOM_COLUMNS,
    TTT_CELLS,
    TTT_LINES,
    load_mushroom,
    planted_rules_table,
    tic_tac_toe,
)
from rulecover.learner import predict_dataset
from rulecover.objective import metrics, ruleset_from_features


def test_ttt_board_layout():
    assert len(TTT_CELLS) == 9
    assert len(TTT_LINES) == 8
    for line in TTT_LINES:
        assert len(line) == 3
        assert all(0 <= c < 9 for c in line)


def test_tic_tac_toe_is_deterministic():
    t1, s1 = tic_tac_toe()
    t2, s2 = tic_tac_toe()
    assert t1.names == t2.names
    assert t1.columns == t2.columns
    assert s1 == s2


def test_tic_tac_toe_row_content():
    table, schema = tic_tac_toe()
    assert table.names == list(TTT_CELLS) + ["class"]
    for name in TTT_CELLS:
        assert set(table.column(name)) == {"x", "o", "b"}
    assert set(table.column("class")) == {"0", "1"}
    assert schema["class"] == "label"
    # every endgame board is unique
    rows = {tuple(col[i] for col in table.columns) for i in range(table.n)}
    assert len(rows) == table.n == 958


def test_tic_tac_toe_labels_match_three_in_a_row():
    table, _ = tic_tac_toe()
    for i in range(table.n):
        board = [table.columns[c][i] for c in range(9)]
        x_wins = any(all(board[c] == "x" for c in line) for line in TTT_LINES)
        assert (table.columns[9][i] == "1") == x_wins


def test_perfect_rule_lookup_finds_eight_lines():
    table, schema = tic_tac_toe()
    data = binarize(table, schema)
    sets = table_three_tic_tac_toe_rules(data.feature_names())
    assert len(sets) == 8
    assert all(len(feats) == 3 for feats in sets)
    S = ruleset_from_features(sets, data)
    m = metrics(S, data)
    assert m.accuracy == 1.0 and m.n_literals == 24


def test_planted_rules_table_labels():
    rules = [(0, 3), (5,)]
    table, schema = planted_rules_table(n=200, d=8, rules=rules, noise=0.0, seed=4)
    assert table.n == 200
    assert schema["class"] == "label"
    data = binarize(table, schema)
    # recover the planted rules through raw-binary "= 1" features
    names = data.feature_names()
    sets = [tuple(names.index(f"f{j} = 1") for j in r) for r in rules]
    preds = predict_dataset(sets, data)
    labels = [(data.labels >> i) & 1 for i in range(data.n)]
    assert preds == labels


def test_planted_rules_table_noise_and_determinism():
    t1, _ = planted_rules_table(n=100, d=6, rules=[(0, 1)], noise=0.1, seed=9)
    t2, _ = planted_rules_table(n=100, d=6, rules=[(0, 1)], noise=0.1, seed=9)
    t3, _ = planted_rules_table(n=100, d=6, rules=[(0, 1)], noise=0.1, seed=10)
    assert t1.columns == t2.columns
    assert t1.columns != t3.columns
    clean, _ = planted_rules_table(n=100, d=6, rules=[(0, 1)], noise=0.0, seed=9)
    flipped = sum(
        clean.columns[6][i] != t1.columns[6][i] for i in range(100)
    )
    assert 0 < flipped < 30


def test_mushroom_column_names():
    assert len(MUSHROOM_COLUMNS) == 22
    assert MUSHROOM_COLUMNS[0] == "cap_shape"
    assert "odor" in MUSHROOM_COLUMNS
    assert "spore_print_color" in MUSHROOM_COLUMNS


@needs_mushroom
def test_mushroom_file_loads_with_published_shape():
    table, schema = load_mushroom(MUSHROOM_PATH)
    assert table.n == 8124
    assert table.names == list(MUSHROOM_COLUMNS) + ["class"]
    labels = table.column("class")
    assert labels.count("1") == 3916  # poisonous
    assert labels.count("0") == 4208  # edible
