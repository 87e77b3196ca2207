"""predict reads, encodes and predicts its input one block of rows at a time.

Each run is compared with the whole-table reference, which reads the file
with Table.read_csv, encodes it with apply_descriptors and covers it with
ruleset_from_features, as predict did before it streamed: the exit code,
stdout, stderr and the --out bytes must be the same, and a run that fails
must not create --out. Row counts sit around the block size B.
"""

import contextlib
import csv
import io
import random
import tracemalloc

import pytest

import rulecover.dataset
from rulecover.cli import run
from rulecover.dataset import STREAM_BLOCK, DataError, SchemaError, Table, apply_descriptors
from rulecover.modelio import load_model
from rulecover.objective import metrics, ruleset_from_features

B = STREAM_BLOCK
COUNTS = [1, B - 1, B, B + 1, 3 * B + 5]


def reference(data_csv, model_json, labels):
    """(exit code, stdout, stderr, --out bytes or None) of the whole-table
    predict."""
    model = load_model(model_json)
    try:
        table = Table.read_csv(str(data_csv))
        if labels and labels not in table.names:
            raise SchemaError(f"table lacks column {labels!r}")
        data = apply_descriptors(table, model.descriptors, labels)
    except (DataError, SchemaError) as e:
        return 2, "", f"error: {e}\n", None
    S = ruleset_from_features(model.rule_features, data)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["prediction"])
    writer.writerows([(S.covered >> i) & 1] for i in range(data.n))
    err = f"accuracy={metrics(S, data).accuracy:.4f}\n" if labels else ""
    return 0, "", err, out.getvalue().encode()


def streamed(tmp_path, capsys, data_csv, model_json, labels):
    """The same four of `rulecover predict`, which must leave no --out
    behind when it fails."""
    out_csv = tmp_path / "out.csv"
    if out_csv.exists():
        out_csv.unlink()
    argv = ["predict", "--data", str(data_csv), "--model", str(model_json),
            "--out", str(out_csv)]
    capsys.readouterr()
    code = run(argv + (["--labels-column", labels] if labels else []))
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out_csv.read_bytes() if out_csv.exists() else None


def same_as_reference(tmp_path, capsys, data_csv, model_json, labels="y"):
    expected = reference(data_csv, model_json, labels)
    assert streamed(tmp_path, capsys, data_csv, model_json, labels) == expected
    return expected


def mixed_rows(n, rng):
    """n rows of a categorical, a numeric, a binary and a label column."""
    rows = []
    for _ in range(n):
        c, v, b = rng.choice("pqrs"), rng.uniform(-3, 3), rng.randrange(2)
        y = int((c in "pq" and v > 0) or (b and v < -1))
        rows.append([c, f"{v:.4f}", str(b), str(y)])
    return rows


def narrow_rows(n, rng):
    """n rows of one-character cells; the label is 1 when a equals b."""
    rows = []
    for _ in range(n):
        a, b, c = rng.choice("xo-"), rng.choice("xo-"), rng.choice("xob")
        rows.append([a, b, c, str(int(a == b))])
    return rows


def write_rows(path, header, rows, sep=",", end="\n", bom=False):
    text = end.join(sep.join(r) for r in [header] + rows) + end
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A model trained on a mixed table and one on a one-character table."""
    root = tmp_path_factory.mktemp("models")
    rng = random.Random(11)
    out = {}
    for kind, header, rows in (
        ("mixed", ["c", "v", "b", "y"], mixed_rows(120, rng)),
        ("narrow", ["a", "b", "c", "y"], narrow_rows(120, rng)),
    ):
        data_csv, model_json = root / f"{kind}.csv", root / f"{kind}.json"
        write_rows(data_csv, header, rows)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert run(["train", "--data", str(data_csv), "--labels-column", "y",
                        "--model", str(model_json)]) == 0
        assert load_model(model_json).rule_features
        out[kind] = model_json
    return out


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("layout", [
    dict(), dict(end="\r\n"), dict(bom=True), dict(sep=", "), dict(sep=", ", end="\r\n"),
], ids=["lf", "crlf", "bom", "padded", "padded-crlf"])
def test_mixed_files_predict_as_the_whole_table(tmp_path, capsys, models, n, layout):
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], mixed_rows(n, random.Random(n)), **layout)
    code, _, err, out = same_as_reference(tmp_path, capsys, data_csv, models["mixed"])
    assert code == 0 and err.startswith("accuracy=") and out.count(b"\r\n") == n + 1
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"], None)[0] == 0


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("layout", [dict(), dict(end="\r\n"), dict(bom=True)],
                         ids=["lf", "crlf", "bom"])
def test_narrow_files_predict_as_the_whole_table(tmp_path, capsys, models, n, layout):
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["a", "b", "c", "y"], narrow_rows(n, random.Random(n)), **layout)
    assert all(type(c) is str for c in Table.read_csv(str(data_csv)).columns)
    assert same_as_reference(tmp_path, capsys, data_csv, models["narrow"])[0] == 0


@pytest.mark.parametrize("at", [B + 3, 2 * B, 3 * B + 4])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_narrow_files_that_turn_to_csv_in_a_later_block(tmp_path, capsys, models, at, end):
    # A category unseen in training, two characters long, turns the file to
    # the csv module from its block of READ_BLOCK lines on.
    rows = narrow_rows(3 * B + 5, random.Random(at))
    rows[at][2] = "zz"
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["a", "b", "c", "y"], rows, end=end)
    assert all(type(c) is list for c in Table.read_csv(str(data_csv)).columns)
    assert same_as_reference(tmp_path, capsys, data_csv, models["narrow"])[0] == 0


@pytest.mark.parametrize("labels", ["y", None])
def test_a_header_only_file_is_an_empty_table(tmp_path, capsys, models, labels):
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], [])
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"], labels) == (
        2, "", "error: empty table\n", None)


# Errors: the whole file's first, byte for byte, and no --out --------------


def test_a_ragged_row_in_block_3_outranks_a_bad_cell_in_block_1(tmp_path, capsys, models):
    rows = mixed_rows(3 * B + 5, random.Random(1))
    rows[5][1] = "abc"
    rows[2 * B + 9] = rows[2 * B + 9][:3]
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], rows)
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"]) == (
        2, "", "error: row has 3 cells, expected 4\n", None)
    # Without the ragged row, the bad cell is the error.
    rows[2 * B + 9].append("0")
    write_rows(data_csv, ["c", "v", "b", "y"], rows)
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"]) == (
        2, "", "error: v: non-numeric value 'abc'\n", None)


def test_bad_labels_in_several_blocks_are_listed_together(tmp_path, capsys, models):
    rows = mixed_rows(3 * B + 5, random.Random(2))
    for i, bad in ((3, "2"), (B + 1, "yes"), (3 * B + 4, "-1")):
        rows[i][3] = bad
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], rows)
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"]) == (
        2, "", "error: label column 'y' must be 0/1, got ['-1', '2', 'yes']\n", None)
    # Without --labels-column the label column is not read.
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"], None)[0] == 0


def test_a_bad_cell_in_a_later_block_outranks_a_later_column(tmp_path, capsys, models):
    # The whole table is encoded column by column: a bad cell in block 3 of
    # the first column comes before one in block 1 of a later column.
    rows = mixed_rows(3 * B + 5, random.Random(3))
    rows[4][2] = "7"
    rows[2 * B + 1][1] = "nan"
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], rows)
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"]) == (
        2, "", "error: v: non-finite value 'nan'\n", None)


@pytest.mark.parametrize("kind", ["mixed", "narrow"])
def test_bytes_that_are_not_utf8_in_a_late_block(tmp_path, capsys, models, kind):
    make = mixed_rows if kind == "mixed" else narrow_rows
    header = ["c", "v", "b", "y"] if kind == "mixed" else ["a", "b", "c", "y"]
    rows = make(3 * B + 5, random.Random(4))
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, header, rows)
    lines = data_csv.read_bytes().split(b"\n")
    lines[3 * B + 2] = b"\xff" + lines[3 * B + 2][1:]
    data_csv.write_bytes(b"\n".join(lines))
    assert same_as_reference(tmp_path, capsys, data_csv, models[kind]) == (
        2, "", f"error: {data_csv}: line {3 * B + 3}: bytes that are not UTF-8\n", None)


def test_a_missing_labels_column_after_a_read_error(tmp_path, capsys, models):
    rows = mixed_rows(2 * B, random.Random(5))
    rows[B + 7] = rows[B + 7] + ["1"]
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], rows)
    assert same_as_reference(tmp_path, capsys, data_csv, models["mixed"], "label") == (
        2, "", "error: row has 5 cells, expected 4\n", None)


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_a_stream_aborted_in_block_2_closes_its_file_before_the_reread(
    tmp_path, capsys, models, monkeypatch
):
    rows = mixed_rows(3 * B, random.Random(6))
    rows[B + 2][1] = "abc"
    data_csv = tmp_path / "serve.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], rows)
    opened = []

    def spy_open(*args, **kwargs):
        # The whole-file read must not start while the stream's file is open.
        assert all(fh.closed for fh in opened)
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(rulecover.dataset, "open", spy_open, raising=False)
    assert streamed(tmp_path, capsys, data_csv, models["mixed"], "y") == (
        2, "", "error: v: non-numeric value 'abc'\n", None)
    assert len(opened) == 2 and all(fh.closed for fh in opened)


# Memory ------------------------------------------------------------------


def predict_peak(tmp_path, model_json, n):
    """tracemalloc's peak over a predict of n generated rows."""
    data_csv = tmp_path / f"serve{n}.csv"
    write_rows(data_csv, ["c", "v", "b", "y"], mixed_rows(n, random.Random(n)))
    argv = ["predict", "--data", str(data_csv), "--model", str(model_json),
            "--labels-column", "y", "--out", str(tmp_path / "out.csv")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_holds_one_block_not_the_file(tmp_path, models):
    # Four times the rows may add their prediction digits and output text,
    # a few bytes a row, but no table.
    small = predict_peak(tmp_path, models["mixed"], 4 * B)
    large = predict_peak(tmp_path, models["mixed"], 16 * B)
    assert large < 1.3 * small, (small, large)
