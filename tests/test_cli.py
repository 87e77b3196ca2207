"""End-to-end tests for the command-line interface."""

import argparse
import csv
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from rulecover.cli import build_parser, run
from rulecover.dataset import (
    BINARY, CATEGORICAL, LABEL, NUMERIC, Table, apply_descriptors, binarize,
)
from rulecover.datasets import tic_tac_toe
from rulecover.modelio import load_model
from rulecover.objective import ruleset_from_features

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_planted_csv(path, rng, n=80, noise=0.0):
    """Label is (a AND b); returns the expected fraction of positives."""
    with open(path, "w") as fh:
        fh.write("a,b,c,y\n")
        pos = 0
        for _ in range(n):
            a, b, c = (int(rng.random() < 0.6) for _ in range(3))
            y = int(a == 1 and b == 1)
            if rng.random() < noise:
                y = 1 - y
            pos += y
            fh.write(f"{a},{b},{c},{y}\n")
    return pos


def write_schema(path):
    schema = {"a": "binary", "b": "binary", "c": "binary", "y": "label"}
    with open(path, "w") as fh:
        json.dump(schema, fh)


def test_binarize_writes_feature_table(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    out_csv = tmp_path / "bin.csv"
    write_planted_csv(data_csv, random.Random(1))
    rc = run(
        ["binarize", "--data", str(data_csv), "--labels-column", "y", "--out", str(out_csv)]
    )
    assert rc == 0
    assert "binarized 80 rows into 6 features" in capsys.readouterr().err
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a = 1", "a = 0", "b = 1", "b = 0", "c = 1", "c = 0", "y"]
    assert len(rows) == 81
    assert all(set(r) <= {"0", "1"} for r in rows[1:])


def test_binarize_to_stdout(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(2), n=10)
    rc = run(["binarize", "--data", str(data_csv), "--labels-column", "y"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("a = 1,")


def test_binarize_writes_the_rows_of_row_bits(tmp_path, capsys):
    rng = random.Random(11)
    data_csv, schema_json = tmp_path / "mixed.csv", tmp_path / "schema.json"
    rows = [[rng.choice(["a", "b,c", 'd"e', "f"]), f"{rng.uniform(-3, 3):.3f}",
             str(rng.randrange(2)), str(rng.randrange(2))] for _ in range(150)]
    with open(data_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([["cat", "num", "bin", "y"]] + rows)
    schema_json.write_text(json.dumps(
        {"cat": "categorical", "num": "numeric", "bin": "binary", "y": "label"}))
    out_csv = tmp_path / "bin.csv"
    args = ["binarize", "--data", str(data_csv), "--schema", str(schema_json)]
    assert run(args + ["--out", str(out_csv)]) == 0
    data = binarize(Table.from_rows(["cat", "num", "bin", "y"], rows),
                    {"cat": CATEGORICAL, "num": NUMERIC, "bin": BINARY, "y": LABEL})
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(data.feature_names() + ["y"])
    for i in range(data.n):
        writer.writerow([(c >> i) & 1 for c in data.columns + [data.labels]])
    assert out_csv.read_bytes() == expected.getvalue().encode()
    capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr().out == expected.getvalue()


def test_predict_writes_what_a_csv_writer_writes(tmp_path, capsys):
    data_csv, model_json = tmp_path / "data.csv", tmp_path / "model.json"
    write_planted_csv(data_csv, random.Random(5), n=130, noise=0.1)
    assert run(["train", "--data", str(data_csv), "--labels-column", "y",
                "--model", str(model_json)]) == 0
    preds_csv = tmp_path / "preds.csv"
    assert run(["predict", "--data", str(data_csv), "--model", str(model_json),
                "--out", str(preds_csv)]) == 0
    model = load_model(model_json)
    data = apply_descriptors(Table.read_csv(str(data_csv)), model.descriptors)
    covered = ruleset_from_features(model.rule_features, data).covered
    assert 0 < covered.bit_count() < data.n
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["prediction"])
    for i in range(data.n):
        writer.writerow([(covered >> i) & 1])
    assert preds_csv.read_bytes() == expected.getvalue().encode()


def test_train_predict_roundtrip(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    schema_json = tmp_path / "schema.json"
    model_json = tmp_path / "model.json"
    report_json = tmp_path / "report.json"
    preds_csv = tmp_path / "preds.csv"
    write_planted_csv(data_csv, random.Random(3))
    write_schema(schema_json)

    rc = run(
        [
            "train",
            "--data", str(data_csv),
            "--schema", str(schema_json),
            "--beta2", "0",
            "--lambda", "0.5",
            "--k", "4",
            "--model", str(model_json),
            "--report", str(report_json),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "a = 1 AND b = 1"
    assert "train_accuracy=1.0000" in captured.err

    model = load_model(model_json)
    names = [d.name for d in model.descriptors]
    assert [[names[j] for j in f] for f in model.rule_features] == [["a = 1", "b = 1"]]
    with open(report_json) as fh:
        report = json.load(fh)
    assert report["final_profit"] > 0
    assert report["iterations"]
    assert report["bnb_nodes"] is None
    assert all(it["bnb_nodes"] is None for it in report["iterations"])
    # Greedy's last step already solved refine's first grow instance (alpha
    # 1, same rule set), so the memo answers it.
    cached = [it["cached"] for it in report["iterations"]]
    assert [it["phase"] for it in report["iterations"]][3:5] == ["greedy", "refine-grow"]
    assert cached == [False, False, False, False, True, False]
    assert report["cached_solves"] == 1
    assert report["solves"] == 5

    rc = run(
        [
            "predict",
            "--data", str(data_csv),
            "--model", str(model_json),
            "--labels-column", "y",
            "--out", str(preds_csv),
        ]
    )
    assert rc == 0
    assert "accuracy=1.0000" in capsys.readouterr().err
    with open(preds_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["prediction"]

    # predictions match the labels column exactly on noiseless data
    with open(data_csv) as fh:
        labels = [line.split(",")[3].strip() for line in fh.readlines()[1:]]
    assert [r[0] for r in rows[1:]] == labels


def test_predictions_are_reproducible_bit_for_bit(tmp_path):
    data_csv = tmp_path / "data.csv"
    model_json = tmp_path / "model.json"
    write_planted_csv(data_csv, random.Random(4), noise=0.05)
    run(
        [
            "train",
            "--data", str(data_csv),
            "--labels-column", "y",
            "--beta2", "0.01",
            "--model", str(model_json),
        ]
    )
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    for out in (p1, p2):
        rc = run(["predict", "--data", str(data_csv), "--model", str(model_json), "--out", str(out)])
        assert rc == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_train_rejects_invalid_weight_combination(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(5), n=20)
    rc = run(
        [
            "train",
            "--data", str(data_csv),
            "--labels-column", "y",
            "--beta1", "1",
            "--beta2", "1",
            "--model", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2
    assert "requires beta1 > (e-1)*beta2" in capsys.readouterr().err
    for flag in ("--beta0", "--beta1", "--lambda"):
        rc = run(
            [
                "train",
                "--data", str(data_csv),
                "--labels-column", "y",
                flag, "inf",
                "--model", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert "must be a finite nonnegative number" in capsys.readouterr().err


def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, capsys):
    # Spreadsheet exports often start a UTF-8 file with the mark EF BB BF;
    # the first column must keep its name, with a schema and without.
    plain = tmp_path / "plain.csv"
    write_planted_csv(plain, random.Random(12))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    schema = tmp_path / "schema.json"
    write_schema(schema)
    outputs = {}
    for data in (plain, marked):
        for how in (["--schema", str(schema)], ["--labels-column", "y"]):
            model = tmp_path / f"{data.stem}{how[0]}.json"
            assert run(["train", "--data", str(data), *how, "--model", str(model)]) == 0
            outputs[data.stem, how[0]] = (model.read_bytes(), capsys.readouterr().out)
    for how in ("--schema", "--labels-column"):
        assert outputs["marked", how] == outputs["plain", how]
    assert "a = 1" in outputs["plain", "--schema"][1]
    for data in (plain, marked):
        out = tmp_path / f"{data.stem}-predictions.csv"
        rc = run(["predict", "--data", str(data), "--model", str(tmp_path / "plain--schema.json"),
                  "--labels-column", "y", "--out", str(out)])
        assert rc == 0
    assert (tmp_path / "marked-predictions.csv").read_bytes() == (
        tmp_path / "plain-predictions.csv").read_bytes()


def test_train_and_predict_with_thresholds_beyond_six_digits(tmp_path, capsys):
    # Six significant digits would name the cuts 1234567 and 1234571 alike.
    data_csv = tmp_path / "data.csv"
    with open(data_csv, "w") as fh:
        fh.write("x,y\n")
        for v in range(1234560, 1234600):
            fh.write(f"{v},{int(v >= 1234580)}\n")
    model_json = tmp_path / "model.json"
    rc = run(["train", "--data", str(data_csv), "--labels-column", "y",
              "--model", str(model_json)])
    assert rc == 0
    names = [d.name for d in load_model(model_json).descriptors]
    assert len(set(names)) == len(names)
    assert "x > 1234579.0" in names
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json),
              "--labels-column", "y", "--out", str(tmp_path / "preds.csv")])
    assert rc == 0
    assert "accuracy=1.0000" in capsys.readouterr().err


def test_preset_conflicts_with_explicit_weights(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(6), n=20)
    base = ["train", "--data", str(data_csv), "--labels-column", "y",
            "--model", str(tmp_path / "m.json")]
    rc = run(base + ["--preset", "penalized-01", "--beta2", "0.1"])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err
    rc = run(base + ["--eta", "0.5"])
    assert rc == 2
    rc = run(base + ["--preset", "overlap-eta", "--eta", "0.5"])
    assert rc == 0


def test_preset_hamming_trains(tmp_path):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(7), n=40)
    rc = run(
        [
            "train",
            "--data", str(data_csv),
            "--labels-column", "y",
            "--preset", "hamming",
            "--model", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 0
    assert load_model(tmp_path / "m.json").hyperparams.beta2 == 0.0


def test_missing_data_file_is_io_error(tmp_path, capsys):
    rc = run(["binarize", "--data", str(tmp_path / "nope.csv"), "--labels-column", "y"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    rc = run(["train", "--no-such-flag"])
    assert rc == 2
    capsys.readouterr()


def test_missing_schema_and_labels_column(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(8), n=10)
    rc = run(["binarize", "--data", str(data_csv)])
    assert rc == 2
    assert "--schema or --labels-column" in capsys.readouterr().err


def test_evaluate_single_config_writes_csv(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    out_csv = tmp_path / "eval.csv"
    write_planted_csv(data_csv, random.Random(9), n=60)
    rc = run(
        [
            "evaluate",
            "--data", str(data_csv),
            "--labels-column", "y",
            "--single",
            "--beta2", "0",
            "--lambda", "0.5",
            "--k", "4",
            "--folds", "3",
            "--out", str(out_csv),
        ]
    )
    assert rc == 0
    assert "best config:" in capsys.readouterr().err
    with open(out_csv) as fh:
        assert fh.readline() == (
            "beta0,beta1,beta2,lambda,k,m,subproblem,"
            "train_accuracy_mean,train_accuracy_std,train_n_rules_mean,train_n_rules_std,"
            "train_n_literals_mean,train_n_literals_std,train_overlap_mean,train_overlap_std,"
            "test_accuracy_mean,test_accuracy_std,test_n_rules_mean,test_n_rules_std,"
            "test_n_literals_mean,test_n_literals_std,test_overlap_mean,test_overlap_std,"
            "selected\n"
        )
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["selected"] == "1"
    assert float(rows[0]["test_accuracy_mean"]) == 1.0


def test_evaluate_grid_file_and_json_report(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    grid_json = tmp_path / "grid.json"
    out_json = tmp_path / "eval.json"
    write_planted_csv(data_csv, random.Random(10), n=60)
    with open(grid_json, "w") as fh:
        json.dump([{"beta2": 0.0, "lambda": 0.5, "k": 2}, {"beta2": 0.0, "lambda": 1.0, "k": 2}], fh)
    rc = run(
        [
            "evaluate",
            "--data", str(data_csv),
            "--labels-column", "y",
            "--grid", str(grid_json),
            "--folds", "2",
            "--out", str(out_json),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out_json) as fh:
        doc = json.load(fh)
    assert doc["n_folds"] == 2
    assert len(doc["configs"]) == 2
    assert doc["best"] in (0, 1)
    assert doc["configs"][0]["hyperparams"]["lambda"] == 0.5


def test_gap_command_reports_json(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    out_json = tmp_path / "gap.json"
    write_planted_csv(data_csv, random.Random(11), n=60)
    rc = run(
        [
            "gap",
            "--data", str(data_csv),
            "--labels-column", "y",
            "--beta2", "0",
            "--lambda", "0.5",
            "--k", "2",
            "--out", str(out_json),
        ]
    )
    assert rc == 0
    assert "gap=" in capsys.readouterr().err
    with open(out_json) as fh:
        doc = json.load(fh)
    assert doc["gap"] == pytest.approx(0.0, abs=1e-9)
    assert doc["proven_optimal"] is True
    assert doc["bnb_nodes"] >= 1


def test_gap_rejects_subproblem(tmp_path, capsys):
    # gap always runs both solvers; a --subproblem it would ignore is a
    # usage error. It still takes --seed, which evaluate shares with it.
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(11), n=60)
    argv = ["gap", "--data", str(data_csv), "--labels-column", "y"]
    assert run(argv + ["--subproblem", "bnb"]) == 2
    assert "--subproblem" in capsys.readouterr().err
    assert build_parser().parse_args(argv + ["--seed", "3"]).seed == 3


def test_evaluate_grid_and_single_are_exclusive(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    grid_json = tmp_path / "grid.json"
    write_planted_csv(data_csv, random.Random(12), n=40)
    grid_json.write_text('[{"lambda": 0.5}]')
    rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
              "--grid", str(grid_json), "--single", "--folds", "2"])
    assert rc == 2
    assert "not allowed with" in capsys.readouterr().err


HYPERPARAM_FLAGS = [
    ["--beta0", "2"], ["--beta1", "2"], ["--beta2", "0.01"], ["--lambda", "64"],
    ["--k", "3"], ["--m", "4"], ["--preset", "hamming"],
    ["--preset", "overlap-eta", "--eta", "0.2"],
]


@pytest.mark.parametrize("use_grid", [True, False], ids=["grid", "default-grid"])
@pytest.mark.parametrize("flags", HYPERPARAM_FLAGS, ids=lambda f: f[0] + "".join(f[2:3]))
def test_evaluate_rejects_hyperparameter_flags_without_single(
    tmp_path, capsys, use_grid, flags
):
    # A grid fixes every config's hyperparameters; a flag it would ignore
    # is an error rather than a silent no-op.
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(12), n=40)
    argv = ["evaluate", "--data", str(data_csv), "--labels-column", "y", "--folds", "2"]
    if use_grid:
        grid_json = tmp_path / "grid.json"
        grid_json.write_text('[{"lambda": 0.5}]')
        argv += ["--grid", str(grid_json)]
    assert run(argv + flags) == 2
    err = capsys.readouterr().err
    assert f"error: {flags[0]} applies only with --single" in err
    if not use_grid:
        assert run(argv + flags + ["--single"]) == 0


@pytest.mark.parametrize(
    "grid, message",
    [
        ("[1]", "hyperparams must be a JSON object, got 1"),
        ('["k"]', "hyperparams must be a JSON object, got 'k'"),
        ('[{"k": true}]', "max_rules must be a positive integer, got True"),
        ('[{"lambda": false}]', "lam must be a finite nonnegative number, got False"),
    ],
)
def test_evaluate_rejects_malformed_grid_entries(tmp_path, capsys, grid, message):
    data_csv = tmp_path / "data.csv"
    grid_json = tmp_path / "grid.json"
    write_planted_csv(data_csv, random.Random(12), n=40)
    grid_json.write_text(grid)
    rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
              "--grid", str(grid_json), "--folds", "2"])
    assert rc == 2
    assert f"error: {grid_json}: entry 0: {message}" in capsys.readouterr().err


def test_evaluate_grid_error_names_the_entry_and_its_key(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    grid_json = tmp_path / "grid.json"
    write_planted_csv(data_csv, random.Random(12), n=40)
    grid_json.write_text('[{"k": 8}, {"k": true}]')
    rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
              "--grid", str(grid_json), "--folds", "2"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {grid_json}: entry 1: max_rules must be a positive integer, "
        "got True (key 'k')\n"
    )


@pytest.mark.parametrize(
    "flag, value, key",
    [("--beta0", "2.5", "beta0"), ("--beta1", "3", "beta1"), ("--beta2", "0.05", "beta2"),
     ("--lambda", "0.25", "lambda"), ("--k", "3", "k"), ("--m", "5", "m")],
)
def test_each_hyperparameter_flag_reaches_the_saved_model(tmp_path, flag, value, key):
    data_csv = tmp_path / "data.csv"
    model_json = tmp_path / "model.json"
    write_planted_csv(data_csv, random.Random(5), n=40)
    assert run(["train", "--data", str(data_csv), "--labels-column", "y",
                flag, value, "--model", str(model_json)]) == 0
    expected = {"beta0": 1.0, "beta1": 1.0, "beta2": 0.1, "lambda": 1.0, "k": 16, "m": 16}
    expected[key] = type(expected[key])(value)
    assert json.loads(model_json.read_text())["hyperparams"] == expected


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_evaluate_rejects_jobs_below_one(tmp_path, capsys, jobs):
    # A worker count below one used to run serially without a word.
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(12), n=40)
    rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
              "--single", "--folds", "2", "--jobs", jobs])
    assert rc == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err


def test_evaluate_rejects_fold_without_test_rows(tmp_path, capsys):
    # 3 positives and 3 negatives, dealt per class over 4 folds, leave
    # fold 3 empty; this used to fail with a bare "empty table".
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("a,y\n1,1\n1,1\n0,1\n0,0\n1,0\n0,0\n")
    rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
              "--single", "--folds", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fold 3 of 4 would have no test rows" in err
    assert "at most 3 folds" in err


@pytest.mark.parametrize("folds", ["0", "1", "-1"])
def test_evaluate_rejects_fewer_than_two_folds(tmp_path, capsys, folds):
    # --folds 0 used to divide by zero while dealing rows to folds.
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(12), n=40)
    rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
              "--single", "--folds", folds])
    assert rc == 2
    assert capsys.readouterr().err == f"error: n_folds must be >= 2, got {folds}\n"


def json_input_argv(tmp_path, kind, path):
    """A command that reads path as its schema, grid or model file."""
    data_csv, model_json = tmp_path / "data.csv", tmp_path / "model.json"
    write_planted_csv(data_csv, random.Random(14), n=30)
    data = ["--data", str(data_csv)]
    if kind == "schema":
        return ["train", *data, "--schema", str(path), "--model", str(model_json)]
    if kind == "grid":
        return ["evaluate", *data, "--labels-column", "y", "--grid", str(path),
                "--folds", "2"]
    return ["predict", *data, "--model", str(path)]


@pytest.mark.parametrize("kind", ["schema", "grid", "model"])
@pytest.mark.parametrize("content", [b'{"y": ', b'{"y": "\xff"}', b"[" * 100_000],
                         ids=["text", "bytes", "deep"])
def test_json_input_that_is_not_json_names_the_file(tmp_path, capsys, kind, content):
    # Each used to end in a JSONDecodeError, UnicodeDecodeError or
    # RecursionError traceback, but for a model file that held text.
    path = tmp_path / f"bad-{kind}.json"
    path.write_bytes(content)
    argv = json_input_argv(tmp_path, kind, path)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert err.endswith(")\n") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["schema", "grid", "model"])
def test_json_input_may_start_with_a_byte_order_mark(tmp_path, capsys, kind):
    # Editors and spreadsheet exports often start a UTF-8 file with the mark
    # EF BB BF, which read_csv drops; each JSON input used to be rejected
    # as not valid JSON because of it.
    plain = tmp_path / f"{kind}.json"
    if kind == "schema":
        write_schema(plain)
    elif kind == "grid":
        plain.write_text(json.dumps([{"k": 2, "beta2": 0.1, "lambda": 1}]))
    else:
        data_csv = tmp_path / "train.csv"
        write_planted_csv(data_csv, random.Random(14), n=30)
        assert run(["train", "--data", str(data_csv), "--labels-column", "y",
                    "--model", str(plain)]) == 0
    marked = tmp_path / f"marked-{kind}.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        capsys.readouterr()
        assert run(json_input_argv(tmp_path, kind, path)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1] == outputs[0]


def run_module(*argv):
    """`python -m rulecover.cli <argv>` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "rulecover.cli", *argv],
                          capture_output=True, text=True, env=src_env())


def test_module_entry_exits_2_with_one_error_line(tmp_path):
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text('{"y": ')
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(15), n=30)
    for argv in (
        ["binarize", "--data", str(data_csv), "--schema", str(bad_schema)],
        ["evaluate", "--data", str(data_csv), "--labels-column", "y", "--single",
         "--folds", "0"],
    ):
        done = run_module(*argv)
        assert done.returncode == 2, argv
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, argv
        assert "Traceback" not in done.stderr
    done = run_module()
    assert done.returncode == 2
    assert "usage: rulecover" in done.stderr and "Traceback" not in done.stderr


def test_evaluate_jobs_match_serial_run(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    grid_json = tmp_path / "grid.json"
    write_planted_csv(data_csv, random.Random(13), n=60, noise=0.1)
    grid_json.write_text(json.dumps(
        [{"beta2": 0.0, "lambda": lam, "k": k} for lam in (0.5, 1.0) for k in (2, 3)]))
    docs = []
    for jobs in ("1", "2"):
        out_json = tmp_path / f"eval{jobs}.json"
        rc = run(["evaluate", "--data", str(data_csv), "--labels-column", "y",
                  "--grid", str(grid_json), "--folds", "3", "--jobs", jobs,
                  "--out", str(out_json)])
        assert rc == 0
        progress = re.findall(r"^fold (\d) done: (\d+) fits in ",
                              capsys.readouterr().err, re.M)
        assert sorted(progress) == [("0", "4"), ("1", "4"), ("2", "4")]
        doc = json.loads(out_json.read_text())
        for cfg in doc["configs"]:
            for fold in cfg["folds"]:
                del fold["fit_seconds"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert sum(f["cached_solves"] for c in docs[0]["configs"] for f in c["folds"]) > 0


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def modules_loaded_by(code):
    """The names in sys.modules of a fresh interpreter after it ran code."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env(), check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def modules_loaded_by_command(argv):
    """sys.modules after `rulecover <argv>`, run in a fresh interpreter."""
    return modules_loaded_by(f"from rulecover.cli import run\nassert run({argv!r}) == 0")


def test_cli_import_leaves_process_pool_unloaded():
    # Only evaluate --jobs > 1 needs a process pool; importing it pulls in
    # multiprocessing, socket and pickle for every command.
    loaded = modules_loaded_by("import rulecover.cli")
    assert not loaded & {"multiprocessing", "concurrent.futures"}


def test_import_rulecover_loads_no_submodule():
    # The package imports nothing; each caller imports the module it needs.
    loaded = modules_loaded_by("import rulecover")
    assert sorted(m for m in loaded if m.startswith("rulecover.")) == []


def test_serve_commands_load_no_solver_module(tmp_path):
    # predict and binarize run only the encoder; train runs the solver but
    # not cross-validation.
    data_csv, model_json = tmp_path / "data.csv", tmp_path / "model.json"
    write_planted_csv(data_csv, random.Random(8), n=30)
    data = ["--data", str(data_csv)]
    train = ["train", *data, "--labels-column", "y", "--model", str(model_json)]
    assert run(train) == 0
    serve = {"rulecover", "rulecover.cli", "rulecover.dataset", "rulecover.modelio",
             "rulecover.objective", "rulecover.bits"}
    for argv in (
        ["predict", *data, "--model", str(model_json), "--out", str(tmp_path / "p.csv")],
        ["binarize", *data, "--labels-column", "y", "--out", str(tmp_path / "b.csv")],
    ):
        loaded = modules_loaded_by_command(argv)
        assert {m for m in loaded if m.startswith("rulecover")} == serve, argv[0]
    loaded = modules_loaded_by_command(train)
    assert "rulecover.learner" in loaded
    assert "rulecover.evaluation" not in loaded


def test_readme_names_only_existing_flags():
    # Every --flag the README names is an option of some subcommand; pip's
    # install flag is the one it names for another program.
    with open(os.path.join(ROOT, "README.md")) as fh:
        named = set(re.findall(r"--[a-z][a-z0-9-]*", fh.read()))
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    assert named - options == {"--no-build-isolation"}


def write_ttt_csv(tmp_path):
    table, schema = tic_tac_toe()
    data_csv = tmp_path / "ttt.csv"
    schema_json = tmp_path / "ttt-schema.json"
    with open(data_csv, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for i in range(table.n):
            writer.writerow([col[i] for col in table.columns])
    with open(schema_json, "w") as fh:
        json.dump(schema, fh)
    return data_csv, schema_json


def test_train_on_tic_tac_toe_via_csv(tmp_path, capsys):
    data_csv, schema_json = write_ttt_csv(tmp_path)
    rc = run(
        [
            "train",
            "--data", str(data_csv),
            "--schema", str(schema_json),
            "--beta2", "0.01",
            "--lambda", "4",
            "--k", "8",
            "--model", str(tmp_path / "ttt-model.json"),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "rules=8 literals=24 train_accuracy=1.0000" in captured.err
    lines = captured.out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.count(" AND ") == 2 for line in lines)


def test_train_exact_solver_recovers_perfect_play(tmp_path, capsys):
    # the mild overlap price and literal price still admit the perfect
    # eight-line model; the exact subproblem solver must find it
    data_csv, schema_json = write_ttt_csv(tmp_path)
    rc = run(
        [
            "train",
            "--data", str(data_csv),
            "--schema", str(schema_json),
            "--beta2", "0.1",
            "--lambda", "0.1",
            "--k", "8",
            "--subproblem", "bnb",
            "--model", str(tmp_path / "ttt-model.json"),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "rules=8 literals=24 train_accuracy=1.0000" in captured.err
    for line in captured.out.strip().splitlines():
        assert "= x AND" in line


def test_predict_rejects_misspelled_labels_column(tmp_path, capsys):
    data_csv, schema_json = write_ttt_csv(tmp_path)
    model_json = tmp_path / "m.json"
    assert run(
        ["train", "--data", str(data_csv), "--schema", str(schema_json),
         "--model", str(model_json)]
    ) == 0
    capsys.readouterr()
    rc = run(
        ["predict", "--data", str(data_csv), "--model", str(model_json),
         "--labels-column", "outcome"]
    )
    assert rc == 2
    assert "lacks column 'outcome'" in capsys.readouterr().err


def test_predict_rejects_model_with_non_numeric_threshold(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(4))
    model_json = tmp_path / "model.json"
    assert run(
        ["train", "--data", str(data_csv), "--labels-column", "y",
         "--model", str(model_json)]
    ) == 0
    doc = json.loads(model_json.read_text())
    doc["features"][0].update(kind="numeric-le", operand="abc")
    model_json.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json)])
    assert rc == 2
    assert "bad feature entry" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("name", ["x"]), ("name", 5), ("source_name", 7)])
def test_predict_rejects_model_with_non_string_feature_name(tmp_path, capsys, key, value):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(4))
    model_json = tmp_path / "model.json"
    assert run(
        ["train", "--data", str(data_csv), "--labels-column", "y",
         "--model", str(model_json)]
    ) == 0
    doc = json.loads(model_json.read_text())
    doc["features"][0][key] = value
    model_json.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json)])
    assert rc == 2
    assert f"bad feature entry (feature {key} must be a string" in capsys.readouterr().err


def test_predict_rejects_model_with_boolean_binary_operand(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(4))
    model_json = tmp_path / "model.json"
    assert run(
        ["train", "--data", str(data_csv), "--labels-column", "y",
         "--model", str(model_json)]
    ) == 0
    doc = json.loads(model_json.read_text())
    assert doc["features"][0]["kind"] == "raw-binary"
    doc["features"][0]["operand"] = True
    model_json.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json)])
    assert rc == 2
    assert "binary operand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("features", 5, "'features' must be a JSON list"),
        ("rules", 5, "'rules' must be a JSON list"),
        ("rules", [[["a"]]], "rule [['a']] is not a list of feature names"),
        ("rules", ["top-left = x"], "rule 'top-left = x' is not a list of feature names"),
    ],
)
def test_predict_rejects_model_with_malformed_features_or_rules(
    tmp_path, capsys, key, value, message
):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(4), n=40)
    model_json = tmp_path / "model.json"
    assert run(
        ["train", "--data", str(data_csv), "--labels-column", "y",
         "--model", str(model_json)]
    ) == 0
    doc = json.loads(model_json.read_text())
    doc[key] = value
    model_json.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {model_json}: {message}\n"


def test_output_keys_follow_record_fields(tmp_path):
    # The report iterations, the gap JSON and the model's feature entries
    # are written from their dataclass fields; these are their keys.
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(4), n=40)
    model_json, report_json, gap_json = (tmp_path / f for f in ("m.json", "r.json", "g.json"))
    argv = ["--data", str(data_csv), "--labels-column", "y"]
    assert run(["train", *argv, "--model", str(model_json), "--report", str(report_json)]) == 0
    assert run(["gap", *argv, "--out", str(gap_json)]) == 0
    iterations = json.loads(report_json.read_text())["iterations"]
    assert iterations and all(list(it) == [
        "phase", "step", "alpha", "rule", "rule_value", "inserted", "profit_after",
        "proven_optimal", "bnb_nodes", "cached", "seconds",
    ] for it in iterations)
    assert list(json.loads(gap_json.read_text())) == [
        "v_approx", "v_bnb", "gap", "proven_optimal", "approx_rules", "bnb_rules",
        "bnb_nodes",
    ]
    features = json.loads(model_json.read_text())["features"]
    assert features and all(list(f) == [
        "name", "source_column", "source_name", "kind", "operand",
    ] for f in features)


def test_predict_rejects_model_whose_hyperparams_are_not_an_object(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_planted_csv(data_csv, random.Random(4))
    model_json = tmp_path / "model.json"
    assert run(
        ["train", "--data", str(data_csv), "--labels-column", "y",
         "--model", str(model_json)]
    ) == 0
    doc = json.loads(model_json.read_text())
    doc["hyperparams"] = 5
    model_json.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json)])
    assert rc == 2
    assert (
        f"error: {model_json}: hyperparams must be a JSON object, got 5"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("c", None, "table lacks column 'c'"),
        ("c", "", "c: missing values are not supported"),
        ("v", "", "v: missing values are not supported"),
        ("v", "abc", "v: non-numeric value 'abc'"),
        ("v", "nan", "v: non-finite value 'nan'"),
        ("v", "inf", "v: non-finite value 'inf'"),
        ("b", "2", "b: non-binary value '2'"),
    ],
)
def test_predict_rejects_bad_cells_with_exit_2(tmp_path, capsys, column, cell, message):
    rng = random.Random(6)
    header = ["c", "v", "b", "y"]
    rows = [
        [rng.choice("pqr"), f"{rng.uniform(0, 9):.3f}", str(rng.randrange(2)),
         str(rng.randrange(2))]
        for _ in range(30)
    ]
    data_csv, serve_csv = tmp_path / "data.csv", tmp_path / "serve.csv"
    data_csv.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    schema_json = tmp_path / "schema.json"
    schema_json.write_text(json.dumps(
        {"c": "categorical", "v": "numeric", "b": "binary", "y": "label"}
    ))
    model_json = tmp_path / "model.json"
    assert run(
        ["train", "--data", str(data_csv), "--schema", str(schema_json),
         "--model", str(model_json)]
    ) == 0
    j = header.index(column)
    if cell is None:
        served = [r[:j] + r[j + 1:] for r in [header] + rows]
    else:
        served = [header] + [list(r) for r in rows]
        served[5][j] = cell
    serve_csv.write_text("\n".join(",".join(r) for r in served) + "\n")
    capsys.readouterr()
    rc = run(["predict", "--data", str(serve_csv), "--model", str(model_json)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_predict_with_empty_model_is_all_zeros(tmp_path, capsys):
    # nothing to learn from all-negative data, so the model is empty and
    # every prediction is 0
    data_csv = tmp_path / "data.csv"
    with open(data_csv, "w") as fh:
        fh.write("a,y\n")
        for i in range(10):
            fh.write(f"{i % 2},0\n")
    model_json = tmp_path / "model.json"
    rc = run(
        ["train", "--data", str(data_csv), "--labels-column", "y",
         "--model", str(model_json)]
    )
    assert rc == 0
    assert load_model(model_json).rule_features == []
    capsys.readouterr()
    rc = run(["predict", "--data", str(data_csv), "--model", str(model_json)])
    assert rc == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == "prediction"
    assert out_lines[1:] == ["0"] * 10


def write_unreadable_csv(tmp_path, rows):
    """A trained model on a planted table, and a copy of the table with
    the given raw lines (0 is the header) replaced."""
    data_csv, model_json = tmp_path / "data.csv", tmp_path / "model.json"
    write_planted_csv(data_csv, random.Random(4), n=40)
    assert run(["train", "--data", str(data_csv), "--labels-column", "y",
                "--model", str(model_json)]) == 0
    lines = data_csv.read_bytes().split(b"\n")
    for i, line in rows.items():
        lines[i] = line
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"\n".join(lines))
    return bad_csv, model_json


def unreadable_csv_errors(tmp_path, capsys, bad_csv, model_json):
    """The exit code and stderr of train and of predict on bad_csv."""
    capsys.readouterr()
    out = []
    for argv in (
        ["train", "--data", str(bad_csv), "--labels-column", "y",
         "--model", str(tmp_path / "m2.json")],
        ["predict", "--data", str(bad_csv), "--model", str(model_json)],
    ):
        out.append((run(argv), capsys.readouterr().err))
    return out


@pytest.mark.parametrize("cell, message", [
    (b"1" * 200_000, "line 4: field larger than field limit (131072)"),
    (b"\xff\xfe", "line 4: bytes that are not UTF-8"),
], ids=["field-limit", "not-utf8"])
def test_unreadable_csv_is_a_data_error(tmp_path, capsys, cell, message):
    bad_csv, model_json = write_unreadable_csv(tmp_path, {3: cell + b",1,0,1"})
    for code, err in unreadable_csv_errors(tmp_path, capsys, bad_csv, model_json):
        assert code == 2
        assert err == f"error: {bad_csv}: {message}\n"


def test_ragged_row_before_an_unreadable_line_is_reported_first(tmp_path, capsys):
    bad_csv, model_json = write_unreadable_csv(
        tmp_path, {2: b"1,0", 3: b"\xff,1,0,1", 4: b"1" * 200_000 + b",1,0,1"})
    for code, err in unreadable_csv_errors(tmp_path, capsys, bad_csv, model_json):
        assert (code, err) == (2, "error: row has 2 cells, expected 4\n")


def test_nul_byte_in_a_cell_is_never_a_traceback(tmp_path, capsys):
    bad_csv, model_json = write_unreadable_csv(tmp_path, {3: b"\x00,1,0,1"})
    (train_code, train_err), (predict_code, predict_err) = unreadable_csv_errors(
        tmp_path, capsys, bad_csv, model_json)
    if sys.version_info < (3, 11):
        # Python 3.10's csv module rejects the line.
        for code, err in ((train_code, train_err), (predict_code, predict_err)):
            assert code == 2
            assert err.startswith(f"error: {bad_csv}: line 4: ") and "NUL" in err
    else:
        # Later versions read the cell: train infers a categorical column,
        # and the model's binary column rejects it.
        assert train_code == 0
        assert (predict_code, predict_err) == (2, "error: a: non-binary value '\\x00'\n")
