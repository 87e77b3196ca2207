"""The model file `train` writes, pinned by its sha256 on three tables
generated here: a wide-like all-binary table, a numeric and categorical
table, and tic-tac-toe.

Rules, profit and model bytes must not move when the solver or the
encoder gets faster, so a fast path that changes one byte of a model
fails here even when every rule it finds is still optimal. A change that
is meant to alter models updates these digests and says why.
"""

import hashlib
import json
import random

import pytest

from rulecover.cli import run
from rulecover.datasets import tic_tac_toe

GOLDEN = {
    "wide": "0a0138f78a24f285be33c95810b65803ebca70e44a3f72385d80138a81f1cf6b",
    "mixed": "5b558093d630294bb74aaca45874bae3b09bdf96676c8fd6645ad61c45d06d93",
    "ttt": "f36dadd24aced40ff05668f23e36e3e148db20e17f1cb8f09ea72f6fa2121400",
    "ttt-bnb": "7d0f754560bb905ab1e4dc00ac340e0ea84631d1929061f25f96fe6dcd091618",
}


def wide_table(rng, n=400, d=96):
    """n rows of d binary columns; y is a planted DNF of five 3-literal
    terms with 5% of the labels flipped."""
    terms = [rng.sample(range(d), 3) for _ in range(5)]
    rows = []
    for _ in range(n):
        bits = [rng.randrange(2) for _ in range(d)]
        y = int(any(all(bits[j] for j in t) for t in terms))
        if rng.random() < 0.05:
            y = 1 - y
        rows.append([str(b) for b in bits] + [str(y)])
    names = [f"f{j}" for j in range(d)]
    schema = dict.fromkeys(names, "binary")
    schema["y"] = "label"
    return names + ["y"], rows, schema


def mixed_table(rng, n=600):
    """Four numeric and three categorical columns; y is a noisy rule over
    two numeric thresholds and one category."""
    rows = []
    for _ in range(n):
        num = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        cat = [rng.randrange(5) for _ in range(3)]
        y = int((num[0] > 0.3 and cat[1] != 2) or num[2] < -1.0)
        if rng.random() < 0.05:
            y = 1 - y
        rows.append([f"{v:.3f}" for v in num] + [f"v{c}" for c in cat] + [str(y)])
    names = [f"n{k}" for k in range(4)] + [f"c{k}" for k in range(3)]
    schema = {name: "numeric" if name[0] == "n" else "categorical" for name in names}
    schema["y"] = "label"
    return names + ["y"], rows, schema


def ttt_table(rng):
    table, schema = tic_tac_toe()
    return table.names, [list(row) for row in zip(*table.columns)], schema


CASES = {
    "wide": (wide_table, ["--beta2", "0.01", "--lambda", "1", "--k", "16"]),
    "mixed": (mixed_table, ["--k", "8"]),
    "ttt": (ttt_table, ["--beta2", "0.01", "--lambda", "4", "--k", "8"]),
    "ttt-bnb": (ttt_table, ["--beta2", "0.01", "--lambda", "4", "--k", "8",
                            "--subproblem", "bnb"]),
}


def train_model(tmp_path, case):
    make, knobs = CASES[case]
    header, rows, schema = make(random.Random(f"golden:{case}"))
    data, schema_json, model = tmp_path / "t.csv", tmp_path / "s.json", tmp_path / "m.json"
    data.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    schema_json.write_text(json.dumps(schema))
    argv = ["train", "--data", str(data), "--schema", str(schema_json), *knobs,
            "--model", str(model)]
    assert run(argv) == 0
    return model.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_writes_the_pinned_model(tmp_path, capsys, case):
    digest = hashlib.sha256(train_model(tmp_path, case)).hexdigest()
    assert digest == GOLDEN[case]
