"""Table.read_csv and Table.from_rows against a frozen per-cell reader.

from_rows transposes rows in blocks of READ_BLOCK into list columns and
strips only the column blocks that hold whitespace; the frozen copy below
is the per-cell loop it replaced. Both must give identical cells, and the
same error at the same row, at every row count around a block boundary.
read_csv reads the lines of a one-character file as raw text, READ_BLOCK
lines at a time, and leaves the csv module only the header and whatever
follows the first block that is not narrow; it must read every file as the
frozen reader does, with str columns exactly when narrow_file, a
line-by-line reference, says the file is narrow, and list columns
otherwise.
"""

import csv
import random
import re
import tracemalloc
from itertools import islice

import pytest

from rulecover.dataset import READ_BLOCK, SHARE_AFTER, DataError, Table

B = READ_BLOCK
PADS = [" ", "\t", "\xa0", "　", " \t\xa0　 "]
# Every character str.strip() removes.
SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


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
        try:
            return frozen_from_rows([h.strip() for h in header], reader)
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None


def outcome(read, *args):
    """(names, cells of each column) of a read, or (error type, message) if
    it raised."""
    try:
        table = read(*args)
    except (DataError, csv.Error) as e:
        return type(e), str(e)
    return table.names, [list(c) for c in table.columns]


def padded_rows(n, width=3):
    """n rows whose cells carry each kind of whitespace str.strip removes,
    on either side, and quoted line breaks."""
    rows = []
    for i in range(n):
        pad = PADS[i % len(PADS)]
        rows.append([f"{pad}v{i}", f"x{i}{pad}", f"{pad}a\r\nb {i}\n{pad}"][:width])
    return rows


def narrow_rows(n, width=3):
    """n rows of one-character cells, none of them whitespace, some of
    them not ASCII."""
    cells = "01xoé☃,\"b"
    return [[cells[(i + 3 * k) % len(cells)] for k in range(width)] for i in range(n)]


def is_narrow(table):
    """Whether the table holds str columns; False when it holds lists."""
    kinds = {type(c) for c in table.columns}
    assert len(kinds) == 1
    return kinds == {str}


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
    # In padded rows, and in one-character rows.
    for make in (padded_rows, narrow_rows):
        rows = make(3 * B + 2)
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
    assert not is_narrow(Table.read_csv(str(path)))
    assert outcome(Table.read_csv, str(path)) == outcome(frozen_read_csv, str(path))
    path.write_bytes(b"")
    assert outcome(Table.read_csv, str(path)) == (DataError, f"{path}: empty file")
    assert outcome(Table.read_csv, str(path)) == outcome(frozen_read_csv, str(path))


def test_bytes_that_are_not_utf8_are_reported_at_their_line(tmp_path):
    path = tmp_path / "t.csv"
    # Cells of one digit, read as raw lines until the bad bytes, and of
    # several digits.
    for modulus in (10, 10_000):
        lines = [b"a,b"] + [b"%d,%d" % (i % modulus, i % modulus) for i in range(2000)]
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


@pytest.mark.parametrize("offset", [0, 1, B - 1])
def test_every_character_strip_removes_is_stripped_alone_in_its_block(tmp_path, offset):
    # Each column holds one whitespace character, at an edge of one cell in
    # row `offset` of a block; the other rows hold none. At offset 0 the
    # character sits in its block's first row, which from_rows probes
    # first; elsewhere the probe of its column's block must find it.
    names = [f"c{k}" for k in range(len(SPACES))]
    n = 3 * B
    rows = [[f"{k}.{i}" for k in range(len(SPACES))] for i in range(n)]
    for k, space in enumerate(SPACES):
        i = (k % 3) * B + offset
        rows[i][k] = [f"{space}v", f"v{space}", space, f"{space}v w{space}"][k % 4]
    expected = outcome(frozen_from_rows, names, rows)
    assert outcome(Table.from_rows, names, rows) == expected
    for k, space in enumerate(SPACES):
        assert space not in "".join(expected[1][k])
    path = tmp_path / "t.csv"
    write(path, rows, header=names)
    assert outcome(Table.read_csv, str(path)) == expected
    assert outcome(frozen_read_csv, str(path)) == expected


def test_quoted_line_breaks_at_cell_edges_are_stripped(tmp_path):
    names = ["a", "b"]
    for edge in ["\r", "\n", "\r\n", "\n\r"]:
        for cell in (f"{edge}v", f"v{edge}", edge, f"{edge}v{edge}"):
            rows = [[f"x{i}", f"y{i}"] for i in range(B + 2)]
            rows[B - 1][1] = cell
            expected = outcome(frozen_from_rows, names, rows)
            assert expected[1][1][B - 1] == cell.strip()
            assert outcome(Table.from_rows, names, rows) == expected
            path = tmp_path / "t.csv"
            write(path, rows, header=names)
            assert outcome(Table.read_csv, str(path)) == expected


def test_blocks_padded_below_a_clean_first_row_are_stripped(tmp_path):
    # The first row of each block holds no whitespace, so every column's
    # block is probed, and the padded rows under it must be found.
    rows = padded_rows(2 * B + 3)
    for i in range(0, len(rows), B):
        rows[i] = [f"p{i}", f"q{i}", f"r{i}"]
    names = ["a", "b", "c"]
    expected = outcome(frozen_from_rows, names, rows)
    assert outcome(Table.from_rows, names, rows) == expected
    path = tmp_path / "t.csv"
    write(path, rows)
    assert outcome(Table.read_csv, str(path)) == outcome(frozen_read_csv, str(path))


def test_blocks_without_whitespace_are_kept_as_read():
    # Cells with no whitespace, or the empty cell, come through unchanged.
    names = ["a", "b", "c"]
    rows = [["1", "", f"é{i}"] for i in range(2 * B + 1)]
    table = Table.from_rows(names, rows)
    assert [list(c) for c in table.columns] == [
        ["1"] * (2 * B + 1), [""] * (2 * B + 1), [f"é{i}" for i in range(2 * B + 1)]]


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "t.csv"
    write(path, padded_rows(B + 1))
    expected = outcome(frozen_read_csv, str(path))
    assert expected[0] == ["a", "b", "c"]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert outcome(Table.read_csv, str(path)) == expected
    # Only a leading mark: one anywhere else is kept, as before.
    path.write_bytes(b"a,b\n\xef\xbb\xbfx,y\n")
    assert outcome(Table.read_csv, str(path)) == (["a", "b"], [["\ufeffx"], ["y"]])
    # The read that escapes bytes that are not UTF-8 drops it too, and still
    # names the line.
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n\xff3,4\n")
    assert outcome(Table.read_csv, str(path)) == (
        DataError, f"{path}: line 3: bytes that are not UTF-8")
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
    assert outcome(Table.read_csv, str(path)) == (["a", "b"], [["1"], ["2"]])


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 2])
def test_one_character_tables_match_per_cell_reader(tmp_path, n):
    names = ["a", "b", "c"]
    rows = narrow_rows(n)
    expected = outcome(frozen_from_rows, names, rows)
    assert outcome(Table.from_rows, names, rows) == expected
    assert not is_narrow(Table.from_rows(names, rows))
    path = tmp_path / "t.csv"
    write(path, rows)
    assert same_read(path) == expected


@pytest.mark.parametrize("at", [0, B - 1, 2 * B + 1])
@pytest.mark.parametrize("row", [["", "bc", "d"], ["x", "yz", ""], ["a", "-2.353", "c"],
                                 [" a", "b", "c"], ["a", "b", "c "]])
def test_a_row_of_other_cells_turns_the_table_to_lists(tmp_path, at, row):
    # Empty and two-character cells whose lengths add up to one per cell, a
    # number and padded cells; at 2 * B + 1 the row follows two blocks of
    # one-character cells.
    names = ["a", "b", "c"]
    rows = narrow_rows(3 * B)
    rows[at] = row
    expected = outcome(frozen_from_rows, names, rows)
    assert outcome(Table.from_rows, names, rows) == expected
    assert not is_narrow(Table.from_rows(names, rows))
    path = tmp_path / "t.csv"
    write(path, rows)
    assert same_read(path) == expected


@pytest.mark.parametrize("at", [0, B + 1])
def test_each_whitespace_character_alone_in_a_cell_is_stripped(tmp_path, at):
    # Each is one character, but str.strip leaves the empty cell. "\n" and
    # "\r" are written quoted.
    names = ["a", "b", "c"]
    for space in SPACES:
        rows = narrow_rows(2 * B)
        rows[at][1] = space
        expected = outcome(frozen_from_rows, names, rows)
        assert expected[1][1][at] == ""
        assert outcome(Table.from_rows, names, rows) == expected
        path = tmp_path / "t.csv"
        write(path, rows)
        if space == "\n":
            assert b'"\n"' in path.read_bytes()
        assert outcome(Table.read_csv, str(path)) == expected


def test_select_rows_keeps_str_columns():
    # No row and one row are picked apart from two or more, which
    # operator.itemgetter gathers; the cells of the list table are several
    # characters long, so a cell taken for a sequence of cells would show.
    names = ["a", "b", "c"]
    narrow = Table(names, ["".join(c) for c in zip(*narrow_rows(3 * B))])
    listed = Table(names, [[f"{cell}{i}" for i, cell in enumerate(c)] for c in narrow.columns])
    for rows in ([5, 0, 0, 3 * B - 1], [], range(3 * B), [7], [2, 2]):
        picked = narrow.select_rows(rows)
        assert is_narrow(picked)
        assert [list(c) for c in picked.columns] == [[c[i] for i in rows] for c in narrow.columns]
        picked = listed.select_rows(rows)
        assert picked.columns == [[c[i] for i in rows] for c in listed.columns]
        assert all(type(c) is list for c in picked.columns)


def test_tables_with_the_same_cells_are_equal_in_either_column_form(tmp_path):
    names = ["a", "b", "c"]
    path = tmp_path / "t.csv"
    write_lines(path, line_rows(2 * B + 1))
    narrow = Table.read_csv(str(path))
    assert is_narrow(narrow)
    listed = Table(list(names), [list(c) for c in narrow.columns])
    assert narrow == listed and listed == narrow
    assert narrow == frozen_read_csv(str(path))
    other = Table(list(names), [list(c) for c in narrow.columns])
    other.columns[1][B] = "z" if other.columns[1][B] != "z" else "y"
    assert narrow != other and other != narrow
    assert narrow != Table(["a", "b", "d"], list(narrow.columns))
    assert narrow != narrow.columns


def test_one_character_tables_are_held_at_one_byte_per_cell(tmp_path):
    # List columns take an 8-byte slot per cell; str columns of ASCII cells
    # take one byte, and the read holds at most a few copies at once.
    n, width = 2000, 257
    rng = random.Random(3)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"c{k}" for k in range(width)) + "\n")
        for _ in range(n):
            fh.write(",".join(rng.choices("01", k=width)) + "\n")
    tracemalloc.start()
    try:
        table = Table.read_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * width
    assert table.n == n and is_narrow(table)



def read_peak(path):
    """The table read_csv reads from path, and the tracemalloc peak of the
    read."""
    tracemalloc.start()
    try:
        table = Table.read_csv(str(path))
        return table, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sep", [",", ", "])
def test_repeating_cells_are_held_at_one_slot_per_cell(tmp_path, sep):
    # Twelve categories per column: each cell is an 8-byte list slot that
    # points at its column's one copy of the category, where a str per
    # cell would take about 60 bytes. Padded cells are shared once stripped.
    n, width = 20_000, 10
    rng = random.Random(5)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write(sep.join(f"c{k}" for k in range(width)) + "\n")
        for _ in range(n):
            fh.write(sep.join(f"v{rng.randrange(12)}" for _ in range(width)) + "\n")
    table, peak = read_peak(path)
    assert peak < 12 * n * width
    assert table.n == n and not is_narrow(table)
    assert set(table.columns[0]) == {f"v{i}" for i in range(12)}


@pytest.mark.parametrize("categories", [20, 30])
def test_columns_of_a_few_dozen_categories_share_their_cells(tmp_path, categories):
    # A first block of 32 rows shows more than 16 of 20 or 30 categories
    # (all of them in the cycling first column); whether a column shares is
    # judged only once it holds SHARE_AFTER cells, and then it holds far
    # fewer distinct cells than half of them.
    n = 20_000
    rng = random.Random(categories)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write("c0,c1\n")
        for i in range(n):
            fh.write(f"v{i % categories},w{rng.randrange(categories)}\n")
    table, peak = read_peak(path)
    assert peak < 12 * n * 2
    assert table.n == n and not is_narrow(table) and shared_cells(table)
    assert len(set(map(id, table.columns[0]))) == categories


def test_distinct_cells_are_held_as_read(tmp_path):
    # Every cell is a distinct number: each column's dict is dropped after
    # its first block, and the table holds a str and a slot per cell.
    n, width = 20_000, 10
    rng = random.Random(6)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"c{k}" for k in range(width)) + "\n")
        for _ in range(n):
            fh.write(",".join(f"{rng.random():.6f}" for _ in range(width)) + "\n")
    table, peak = read_peak(path)
    assert peak < 70 * n * width
    assert table.n == n and len(set(table.columns[0])) > n // 2


# The raw-line path of read_csv ---------------------------------------------

LINE_CELLS = "01xoé☃b"


def line_rows(n, width=3):
    """n lines of one-character cells that the csv module reads unquoted."""
    return [",".join(LINE_CELLS[(i + 2 * k) % len(LINE_CELLS)] for k in range(width))
            for i in range(n)]


def write_lines(path, lines, end="\r\n", last=True, header="a,b,c"):
    text = end.join([header] + lines) + (end if last else "")
    path.write_bytes(text.encode())


def narrow_file(path):
    """Whether there is at least one line after the header, and each is
    `width` one-character cells joined by commas, ending in CRLF or LF or,
    the last line only, in nothing; and no cell is a quote, comma, NUL or
    a character for which str.isspace holds. A line ending in a bare CR
    keeps it in its last cell."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        lines = list(fh)
    rows = [(line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")).split(",")
            for line in lines]
    return bool(rows) and all(
        len(row) == width
        and all(len(c) == 1 and c not in '",\0' and not c.isspace() for c in row)
        for row in rows
    )


def read_in_blocks(path, rows):
    """The outcome of reading path with read_blocks, its blocks joined;
    asserts that every block but the last holds `rows` rows and the last
    1 to `rows`, or that the only block is empty."""
    try:
        blocks = list(Table.read_blocks(str(path), rows))
    except (DataError, csv.Error) as e:
        return type(e), str(e)
    sizes = [t.n for t in blocks]
    assert sizes == [0] or (
        all(n == rows for n in sizes[:-1]) and 0 < sizes[-1] <= rows), sizes
    assert all(t.names == blocks[0].names for t in blocks)
    return blocks[0].names, [[cell for t in blocks for cell in t.columns[j]]
                             for j in range(len(blocks[0].names))]


def same_read(path):
    """Assert that read_csv reads path as the frozen reader does, with str
    columns exactly when narrow_file holds, and that read_blocks gives the
    same cells or error at block sizes below, at and above READ_BLOCK;
    return the outcome."""
    expected = outcome(frozen_read_csv, str(path))
    assert outcome(Table.read_csv, str(path)) == expected
    if expected[0] is not DataError:
        assert is_narrow(Table.read_csv(str(path))) == narrow_file(path)
    for rows in (1, B - 1, B, 2 * B + 3):
        assert read_in_blocks(path, rows) == expected
    return expected


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 2])
@pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
@pytest.mark.parametrize("last", [True, False])
def test_line_endings_and_last_line(tmp_path, n, end, last):
    # CRLF and LF files, and bare "\r" endings, which the csv module reads
    # as line breaks; the last line with and without its ending.
    path = tmp_path / "t.csv"
    write_lines(path, line_rows(n), end, last)
    names, cols = same_read(path)
    assert names == ["a", "b", "c"] and len(cols[0]) == n


@pytest.mark.parametrize("n", [1, B, 2 * B + 1])
def test_one_column(tmp_path, n):
    path = tmp_path / "t.csv"
    write_lines(path, line_rows(n, width=1), header="a")
    assert same_read(path)[0] == ["a"]
    write_lines(path, line_rows(n, width=1), header="a", last=False)
    assert same_read(path)[0] == ["a"]


@pytest.mark.parametrize("at", [0, B - 1, B, 2 * B + 1, 3 * B - 1])
@pytest.mark.parametrize("line", [
    "",  # a blank line: the csv module reads a row of no cells
    '"a",b,c', '",",b,c', 'x,"""",c',  # quoted one-character cells
    '",b,c', 'x,",c', 'x,b,"', ",,,,,",  # a bare quote or comma as a cell
    "x,\0,c",  # a NUL cell: the csv module of 3.10 rejects it, 3.11 reads it
    "x,yz,c", "x,,c", "x, ,c", "x,b,c,d", "x,b",
    "x,bcd",  # two cells in the length of three
])
def test_a_line_of_another_shape_after_narrow_blocks(tmp_path, at, line):
    # The line may start a block, end one, or sit after two narrow blocks;
    # the same read follows whether the table stays one-character or not.
    lines = line_rows(3 * B)
    lines[at] = line
    path = tmp_path / "t.csv"
    write_lines(path, lines)
    same_read(path)
    write_lines(path, lines, "\n", last=False)
    same_read(path)


def test_a_blank_line_at_the_end(tmp_path):
    path = tmp_path / "t.csv"
    for n in (1, B - 1, B, 2 * B):
        write_lines(path, line_rows(n) + [""])
        assert same_read(path) == (DataError, "row has 0 cells, expected 3")


@pytest.mark.parametrize("at", [B - 1, B, 2 * B + 1])
def test_an_unreadable_line_after_narrow_blocks_names_its_line(tmp_path, at):
    lines = line_rows(3 * B)
    lines[at] = "x," + "y" * (csv.field_size_limit() + 1) + ",z"
    path = tmp_path / "t.csv"
    write_lines(path, lines)
    error, message = same_read(path)
    assert error is DataError
    assert message.startswith(f"{path}: line {at + 2}: field larger than")
    # A quoted line break in a header spans a line the rows' count starts
    # after.
    write_lines(path, lines, header='a,"b\r\nb",c')
    assert same_read(path)[1].startswith(f"{path}: line {at + 3}: field larger than")


@pytest.mark.parametrize("at", [B - 1, B, 2 * B + 1])
def test_bytes_that_are_not_utf8_after_narrow_blocks(tmp_path, monkeypatch, at):
    lines = [line.encode() for line in line_rows(3 * B)]
    lines[at] = b"x,\xff,c"
    path = tmp_path / "t.csv"
    path.write_bytes(b"\r\n".join([b"a,b,c"] + lines) + b"\r\n")
    parsed = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines: reader(counting(lines, parsed)))
    assert outcome(Table.read_csv, str(path)) == (
        DataError, f"{path}: line {at + 2}: bytes that are not UTF-8")
    # The blocks before the bad one are read as raw lines: the csv module
    # parses the header, then the bad block's lines up to the bad one.
    start = at - at % B
    assert parsed == [f"{line}\r\n" for line in ["a,b,c"] + line_rows(3 * B)[start:at]]
    monkeypatch.undo()
    # A ragged row before them is reported first.
    lines[at - 1] = b"x,y"
    path.write_bytes(b"\r\n".join([b"a,b,c"] + lines) + b"\r\n")
    assert outcome(Table.read_csv, str(path)) == (DataError, "row has 2 cells, expected 3")


@pytest.mark.parametrize("end", ["\r\n", "\n"])
@pytest.mark.parametrize("last", [True, False])
def test_csv_parses_only_the_header_of_a_one_character_file(tmp_path, monkeypatch, end, last):
    # A narrow file, CRLF as csv.writer writes it or LF, with or without a
    # last line ending, must not fall back to the csv module silently.
    path = tmp_path / "t.csv"
    write_lines(path, line_rows(3 * B + 2), end, last)
    parsed = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines: reader(counting(lines, parsed)))
    table = Table.read_csv(str(path))
    assert len(parsed) == 1
    assert is_narrow(table) and table.n == 3 * B + 2


def shared_cells(table):
    """Whether equal cells of each column are one object."""
    return all(len(set(map(id, c))) == len(set(c)) for c in table.columns)


@pytest.mark.parametrize("lines", [
    [f"v{i % 5},w{i % 3} ,  x{i % 7}" for i in range(3 * B + 2)],  # plain and padded
    [f"v{i % 5}, w{i % 3}, x{i % 7}" for i in range(3 * B + 2)],  # padded as ", "
    # Narrow blocks of one-character cells, some not Latin-1, which str
    # slicing makes a new object for each time, then a line that is not.
    line_rows(2 * B) + ["☃☃,é☃,b"] + line_rows(B + 3),
])
def test_equal_cells_of_a_repeating_column_are_one_object(tmp_path, lines):
    path = tmp_path / "t.csv"
    write_lines(path, lines)
    names, cols = same_read(path)
    assert len(cols[0]) == len(lines)
    table = Table.read_csv(str(path))
    assert not is_narrow(table) and shared_cells(table)
    rows = [line.split(",") for line in lines]
    assert shared_cells(Table.from_rows(names, rows))



@pytest.mark.parametrize("rows", [B, 3 * B + 1])
def test_blocks_share_cells_as_a_whole_read_does(tmp_path, rows):
    # Each block is a whole read of its own rows: a repeating column is one
    # object per category within the block, and the joined blocks hold the
    # cells of a whole read.
    n = 4 * SHARE_AFTER + 7
    lines = [f"v{i % 5}, {i * 0.37:.2f},w{i % 40}" for i in range(n)]
    path = tmp_path / "t.csv"
    write_lines(path, lines)
    blocks = list(Table.read_blocks(str(path), rows))
    assert not any(map(is_narrow, blocks))
    joined = Table(["a", "b", "c"], [[x for t in blocks for x in t.columns[j]] for j in range(3)])
    assert joined == Table.read_csv(str(path))
    for t in blocks:
        assert shared_cells(t)
        assert len(set(map(id, t.columns[0]))) == 5
        assert len(set(map(id, t.columns[2]))) == len(set(t.columns[2]))


@pytest.mark.parametrize("turn", [0, B - 1, 2 * B, 5 * B + 3])
def test_narrow_blocks_are_str_until_the_file_turns(tmp_path, turn):
    # Blocks wholly before the first READ_BLOCK lines that are not narrow
    # are held as str columns; the block holding them, and every later
    # one, as lists.
    rows = 2 * B
    lines = line_rows(7 * B + 5)
    lines[turn] = "x,yz,c"
    path = tmp_path / "t.csv"
    write_lines(path, lines)
    blocks = list(Table.read_blocks(str(path), rows))
    assert [is_narrow(t) for t in blocks] == [i < turn // rows for i in range(len(blocks))]
    assert read_in_blocks(path, rows) == outcome(frozen_read_csv, str(path))


def test_a_narrow_file_of_whole_blocks_yields_no_empty_block(tmp_path):
    path = tmp_path / "t.csv"
    write_lines(path, line_rows(4 * B))
    assert [(t.n, is_narrow(t)) for t in Table.read_blocks(str(path), 2 * B)] == [
        (2 * B, True), (2 * B, True)]
    write(path, [])
    assert [(t.names, t.n) for t in Table.read_blocks(str(path), B)] == [
        (["a", "b", "c"], 0)]


def test_read_blocks_raises_the_line_of_bytes_that_are_not_utf8(tmp_path):
    # read_blocks names the line itself, after yielding the blocks before it.
    lines = [line.encode() for line in line_rows(3 * B)]
    lines[2 * B] = b"x,\xff,c"
    path = tmp_path / "t.csv"
    path.write_bytes(b"\r\n".join([b"a,b,c"] + lines) + b"\r\n")
    blocks = Table.read_blocks(str(path), B)
    assert [t.n for t in islice(blocks, 2)] == [B, B]
    error = f"{path}: line {2 * B + 2}: bytes that are not UTF-8"
    with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
        next(blocks)
    assert outcome(Table.read_csv, str(path)) == (DataError, error)
