"""Table.read_csv and Table.from_rows against a frozen per-cell reader.

from_rows transposes rows in blocks of READ_BLOCK; the frozen copy below is
the per-cell loop it replaced. Both must give identical cells, and the
same error at the same row, at every row count around a block boundary.
"""

import csv

import pytest

from rulecover.dataset import READ_BLOCK, DataError, Table

B = READ_BLOCK
PADS = [" ", "\t", "\xa0", "　", " \t\xa0　 "]


def frozen_from_rows(names, rows):
    cols = [[] for _ in names]
    for row in rows:
        if len(row) != len(names):
            raise DataError(f"row has {len(row)} cells, expected {len(names)}")
        for c, cell in zip(cols, row):
            c.append(cell.strip())
    return Table(list(names), cols)


def frozen_read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        return frozen_from_rows([h.strip() for h in header], reader)


def outcome(read, *args):
    """(names, columns) of a read, or (error type, message) if it raised."""
    try:
        table = read(*args)
    except (DataError, csv.Error) as e:
        return type(e), str(e)
    return table.names, table.columns


def padded_rows(n, width=3):
    """n rows whose cells carry each kind of whitespace str.strip removes,
    on either side, and quoted line breaks."""
    rows = []
    for i in range(n):
        pad = PADS[i % len(PADS)]
        rows.append([f"{pad}v{i}", f"x{i}{pad}", f"{pad}a\r\nb {i}\n{pad}"][:width])
    return rows


def write(path, rows, header=("a", " b\xa0", "\tc")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([list(header)] + rows)


def counting(rows, pulled):
    for row in rows:
        pulled.append(row)
        yield row


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 2])
def test_read_csv_matches_per_cell_reader(tmp_path, n):
    path = tmp_path / "t.csv"
    rows = padded_rows(n)
    write(path, rows)
    expected = outcome(frozen_read_csv, str(path))
    assert outcome(Table.read_csv, str(path)) == expected
    assert expected[0] == ["a", "b", "c"] and len(expected[1][0]) == n
    if n:
        assert expected[1][2][0] == "a\r\nb 0"
    names = ["a", "b", "c"]
    assert outcome(Table.from_rows, names, rows) == outcome(frozen_from_rows, names, rows)


@pytest.mark.parametrize("bad", [0, B - 1, B, 2 * B + 3])
def test_ragged_row_is_reported_at_the_same_row(tmp_path, bad):
    rows = padded_rows(3 * B + 2)
    rows[bad] = rows[bad][:2]
    names = ["a", "b", "c"]
    expected = outcome(frozen_from_rows, names, rows)
    assert expected == (DataError, "row has 2 cells, expected 3")
    pulled = []
    assert outcome(Table.from_rows, names, counting(rows, pulled)) == expected
    # Nothing past the ragged row was read.
    assert len(pulled) == bad + 1
    path = tmp_path / "t.csv"
    write(path, rows)
    assert outcome(Table.read_csv, str(path)) == expected


@pytest.mark.parametrize("bad", [0, B - 3, B + 1])
def test_ragged_row_before_an_unreadable_line_in_its_block(tmp_path, bad):
    # The csv module fails on the oversized cell two rows on, in the same
    # block: the ragged row, reached first, is the error reported.
    rows = padded_rows(2 * B)
    rows[bad] = rows[bad][:2]
    rows[bad + 2][0] = "x" * (csv.field_size_limit() + 1)
    path = tmp_path / "t.csv"
    write(path, rows)
    assert outcome(Table.read_csv, str(path)) == (DataError, "row has 2 cells, expected 3")
    rows[bad] = padded_rows(1)[0]
    write(path, rows)
    error, message = outcome(Table.read_csv, str(path))
    assert error is DataError
    # Each row before it spans three lines (two quoted line breaks); the
    # oversized cell is on the first line of its row, after the header.
    assert message.startswith(f"{path}: line {3 * (bad + 2) + 2}: field larger than")


def test_header_only_and_empty_files(tmp_path):
    path = tmp_path / "t.csv"
    write(path, [])
    assert outcome(Table.read_csv, str(path)) == (["a", "b", "c"], [[], [], []])
    assert outcome(Table.read_csv, str(path)) == outcome(frozen_read_csv, str(path))
    path.write_bytes(b"")
    assert outcome(Table.read_csv, str(path)) == (DataError, f"{path}: empty file")
    assert outcome(Table.read_csv, str(path)) == outcome(frozen_read_csv, str(path))


def test_bytes_that_are_not_utf8_are_reported_at_their_line(tmp_path):
    path = tmp_path / "t.csv"
    lines = [b"a,b"] + [b"%d,%d" % (i, i) for i in range(2000)]
    for bad in (0, 1, 5, 1500):
        broken = list(lines)
        broken[bad] = b"\xff\xfe" + broken[bad]
        path.write_bytes(b"\r\n".join(broken) + b"\r\n")
        assert outcome(Table.read_csv, str(path)) == (
            DataError, f"{path}: line {bad + 1}: bytes that are not UTF-8")
    # A ragged row before the bad bytes is reported first, even though the
    # text layer decodes both in the same chunk.
    broken = list(lines)
    broken[3], broken[6] = b"1", b"\xff" + broken[6]
    path.write_bytes(b"\n".join(broken) + b"\n")
    assert outcome(Table.read_csv, str(path)) == (DataError, "row has 1 cells, expected 2")
    # Text that is UTF-8, non-ASCII included, reads as before.
    path.write_bytes("a,b\né,　z　\n".encode())
    assert outcome(Table.read_csv, str(path)) == (["a", "b"], [["é"], ["z"]])
