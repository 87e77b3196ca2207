"""Tabular input, schemas, and binarization into bitset features.

A raw table of categorical/numeric/binary columns is turned into a
BinaryDataset: one bitset per derived 0/1 feature plus a label bitset.
Derived features come in complementary pairs so that rules can test both
polarities of every condition:

  categorical column x, category z   ->  [x = z] and [x != z]
  numeric column x, cut point t      ->  [x <= t] and [x > t]
  binary column x                    ->  [x = 1] and [x = 0]

The two features of a pair are adjacent, the second the complement of
the first within the universe. The rule search exploits that: its
full-width scans count a pair with one AND (bits.complement_pairs). It
does not rely on it: it finds the pairs from the bits, and scans a column
with no complement beside it on its own, with the same results.

Numeric cut points are the sample deciles (empirical quantiles at
q = 0.1..0.9 by sorted-order index ceil(q*n) - 1, deduplicated).
Constant columns carry no signal and are skipped with a warning.

binarize (training) and apply_descriptors (serving) encode each column
with one encoder, _encode_column; FeatureDescriptor.test is its per-cell
reference. It maps each cell once, at C speed, to a one-byte code: for a
numeric column the number of the column's cuts below the value, for a
categorical one the index of the cell's category among the column's
operands. Each `<=` and `=` bitset is then one bytes.translate of the codes
(bits.pack_codes), a binary column's bitset is its cells read as digits,
and `>`, `!=` and `= 0` are their complements. A column with more than
255 cuts or operands is coded in windows of 255.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .bits import all_ones, complement_pairs, pack_bools, pack_codes, plan_counts

CATEGORICAL = "categorical"
NUMERIC = "numeric"
BINARY = "binary"
LABEL = "label"
COLUMN_KINDS = (CATEGORICAL, NUMERIC, BINARY, LABEL)

FEATURE_KINDS = (
    "categorical-eq",
    "categorical-neq",
    "numeric-le",
    "numeric-gt",
    "raw-binary",
)
NUMERIC_KINDS = ("numeric-le", "numeric-gt")
# Operands per pass of the code-byte encoder: codes 0..254 name them and the
# last value is left for a cell past every cut or equal to no category.
CODE_WINDOW = 255
# Rows that _columns transposes, and lines that _narrow_lines reads, at
# once. Larger blocks take fewer steps but hold more rows at a time; the
# resident peak follows allocator layout more than block size, so
# re-measure on change.
READ_BLOCK = 32
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class SchemaError(ValueError):
    """Schema is malformed or inconsistent with the table."""


class DataError(ValueError):
    """Cell values violate the declared column kind."""


@dataclass
class Table:
    """Column-major table of raw string cells.

    A column is a list of its cells, or a str whose character i is cell i.
    Table.read_csv gives every column the str form when there is at least
    one line after the header and every such line is unquoted one-character
    cells (_narrow_lines), as in the tic-tac-toe and mushroom files: one
    byte per ASCII cell instead of an 8-byte list slot. In the list columns
    that read_csv and from_rows build, the equal cells of a column whose
    cells repeat are one object (_columns), so each costs its slot alone.
    Index or iterate a column to read its cells; `x in column` tests for a
    substring of a str column, and a str column holds no empty cell. Tables
    are equal when their names and cells are, whatever form their columns
    take."""

    names: list[str]
    columns: list[Sequence[str]]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.columns):
            raise DataError("names/columns length mismatch")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate column names")
        widths = {len(c) for c in self.columns}
        if len(widths) > 1:
            raise DataError("ragged columns")

    @property
    def n(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> Sequence[str]:
        return self.columns[self.names.index(name)]

    def __eq__(self, other: object) -> bool:
        """Equal names and equal cells, whichever form each column has."""
        if not isinstance(other, Table):
            return NotImplemented
        return self.names == other.names and all(
            a == b or list(a) == list(b) for a, b in zip(self.columns, other.columns)
        )

    def select_rows(self, rows: Sequence[int]) -> "Table":
        """The table of the given rows; a str column stays a str."""
        # itemgetter of two or more indices gathers a tuple of cells in C;
        # of one it returns the bare cell, and of none it cannot be made.
        get = itemgetter(*rows) if len(rows) > 1 else lambda c: [c[i] for i in rows]
        picked = [
            "".join(get(c)) if isinstance(c, str) else list(get(c)) for c in self.columns
        ]
        return Table(list(self.names), picked)

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Sequence[str]]) -> "Table":
        """The table of the stripped cells of rows, in list columns, read as
        _columns says."""
        return cls(list(names), _columns(rows, len(names), []))

    @classmethod
    def read_csv(cls, path: str) -> "Table":
        """Read a comma-separated file of UTF-8 text with a header row; a leading
        byte-order mark, which spreadsheet exports often write, is dropped.
        A line the csv module rejects, or bytes that are not UTF-8, is a
        DataError naming the file and the line; the first error in row
        order is reported.

        While every cell is one character, the rows after the header are
        read as raw lines, READ_BLOCK at a time (_narrow_lines), and the csv
        module parses only the header. A file read to its end that way is
        held as str columns; from the first block that is not narrow on, the
        csv module parses the rest of the file, and the table is held as
        list columns."""
        try:
            return cls._read_csv(path, "strict")
        except UnicodeDecodeError:
            # The text layer decodes in chunks ahead of the reader, so its
            # error names no line and may come before an earlier row's
            # error. Read again with the bad bytes escaped, and raise at the
            # first line that holds one.
            return cls._read_csv(path, "surrogateescape")

    @classmethod
    def _read_csv(cls, path: str, errors: str) -> "Table":
        with open(path, newline="", encoding="utf-8-sig", errors=errors) as fh:
            lines = fh if errors == "strict" else _utf8_lines(fh, path)
            reader = csv.reader(lines)
            skipped = 0
            try:
                header = next(reader, None)
                if header is None:
                    raise DataError(f"{path}: empty file")
                names = [h.strip() for h in header]
                narrow: list[str] = []
                if errors == "strict":
                    rest, read = _narrow_lines(fh, len(names), narrow)
                    if narrow and not rest:
                        return cls(names, _narrow_columns(narrow, len(names)))
                    # The new reader counts lines from 1 again.
                    skipped = reader.line_num + read
                    reader = csv.reader(chain(rest, fh))
                return cls(names, _columns(reader, len(names), narrow))
            except csv.Error as e:
                raise DataError(f"{path}: line {skipped + reader.line_num}: {e}") from None


def _columns(rows: Iterable[Sequence[str]], width: int, narrow: list[str]) -> list[list[str]]:
    """The list columns of the cells of the narrow blocks already read,
    whose one-character cells narrow holds joined in row order, followed by
    the stripped cells of rows. Each row's width is checked as the row is
    reached, so a ragged row is reported before anything that iterating past
    it would raise. Rows are then transposed READ_BLOCK at a time: one
    C-level step per column and block, not one Python step per cell. A
    column's block none of whose cells holds whitespace is taken as read,
    since str.strip would return every cell unchanged. Columns are probed
    only when the block's first row holds no whitespace, so that a padded
    file, whose first row shows it, pays one row's probe per block.

    Equal cells of a column are held as one object: each cell, narrow or
    stripped, is mapped through the column's dict of the cells seen so far,
    so a categorical column costs an 8-byte list slot per cell instead of a
    str of about 50 bytes. A column whose dict, after a block, holds more
    entries than half its cells stops sharing: the dict is dropped and the
    rest of its cells are kept as read, since mostly distinct cells,
    numbers say, would gain little and pay for the dict."""

    def checked() -> Iterator[Sequence[str]]:
        for row in rows:
            if len(row) != width:
                raise DataError(f"row has {len(row)} cells, expected {width}")
            yield row

    cols: list[list[str]] = [[] for _ in range(width)]
    shared: list[dict[str, str] | None] = [{} for _ in range(width)]
    for c, memo, cells in zip(cols, shared, _narrow_columns(narrow, width)):
        c.extend(map(memo.setdefault, cells, cells))
    blocks = checked()
    while block := list(islice(blocks, READ_BLOCK)):
        probe = _blank_free("".join(block[0]))
        for j, (c, memo, cells) in enumerate(zip(cols, shared, zip(*block))):
            if not (probe and _blank_free("".join(cells))):
                cells = tuple(map(str.strip, cells))
            if memo is None:
                c.extend(cells)
            else:
                c.extend(map(memo.setdefault, cells, cells))
                if 2 * len(memo) > len(c):
                    shared[j] = None
    return cols


def _narrow_lines(lines: Iterator[str], width: int, narrow: list[str]) -> tuple[list[str], int]:
    """Read lines READ_BLOCK at a time while each block is narrow,
    appending its cells, joined in row order, to narrow. Returns the lines
    of the first block that is not ([] at the end of the file) and the
    number of lines read before it.

    A block is narrow when, with each CRLF turned into LF and an LF added
    to a last line that has none, its odd characters are exactly width - 1
    commas and an LF per line, and its even characters, the cells, hold no
    quote, comma, NUL (which the csv module of Python 3.10 rejects) or
    character str.strip removes. The text then ends at its last separator,
    since a further character would be its final LF as a cell. Lines end
    only at CR, LF or CRLF, so each line is one row of the pattern, which
    the csv module reads as its width one-character cells, each of which
    stripping keeps. Any other block is left to the csv module."""
    separators = ("," * (width - 1) + "\n") * READ_BLOCK
    read = 0
    while block := list(islice(lines, READ_BLOCK)):
        text = "".join(block).replace("\r\n", "\n")
        if not text.endswith("\n"):
            text += "\n"
        cells = text[::2]
        if not (
            text[1::2] == separators[: width * len(block)]
            and '"' not in cells
            and "," not in cells
            and "\0" not in cells
            and _blank_free(cells)
        ):
            return block, read
        narrow.append(cells)
        read += len(block)
    return [], read


def _narrow_columns(blocks: list[str], width: int) -> list[str]:
    """The str columns of a table of `width` columns whose one-character
    cells are the characters of blocks in row order. blocks is emptied
    before the columns are cut, so that it and the joined text are not
    both held with them."""
    whole = "".join(blocks)
    blocks.clear()
    return [whole[j::width] for j in range(width)]


def _blank_free(text: str) -> bool:
    """Whether text is nonempty and holds no character str.strip removes.
    str.split() splits at exactly those characters (the ones for which
    str.isspace() holds); with maxsplit=1 it makes at most two pieces, and
    returns [text] itself when it finds none."""
    return text.split(None, 1) == [text]


def _utf8_lines(fh: Iterable[str], path: str) -> Iterator[str]:
    """The lines of a file opened with errors="surrogateescape", which
    decodes each byte that is not UTF-8 to a code point in U+DC80..U+DCFF;
    a DataError at the first line that holds one."""
    for number, line in enumerate(fh, 1):
        if _ESCAPED_BYTE.search(line):
            raise DataError(f"{path}: line {number}: bytes that are not UTF-8")
        yield line


def infer_schema(table: Table, label_column: str) -> dict[str, str]:
    """Guess column kinds: all-numeric cells -> numeric, {0,1} -> binary,
    else categorical. The named column becomes the label."""
    if label_column not in table.names:
        raise SchemaError(f"label column {label_column!r} not in table")
    schema: dict[str, str] = {}
    for name, col in zip(table.names, table.columns):
        if name == label_column:
            schema[name] = LABEL
            continue
        values = set(col)
        if values <= {"0", "1"}:
            schema[name] = BINARY
        elif all(_is_float(v) for v in values):
            schema[name] = NUMERIC
        else:
            schema[name] = CATEGORICAL
    return schema


def _is_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def check_schema(table: Table, schema: dict[str, str]) -> str:
    """Validate schema against table; return the label column name."""
    known = set(table.names)
    for name, kind in schema.items():
        if name not in known:
            raise SchemaError(f"schema names unknown column {name!r}")
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r} for {name!r}")
    for name in table.names:
        if name not in schema:
            raise SchemaError(f"column {name!r} missing from schema")
    labels = [n for n, k in schema.items() if k == LABEL]
    if len(labels) != 1:
        raise SchemaError(f"schema must declare exactly one label column, got {len(labels)}")
    return labels[0]


@dataclass(frozen=True)
class FeatureDescriptor:
    """How one 0/1 feature is computed from a raw column.

    source_column is the column's index in the training table;
    source_name is kept alongside so new tables can be re-encoded even if
    their column order differs.
    """

    name: str
    source_column: int
    source_name: str
    kind: str
    operand: str | float | int

    def __post_init__(self) -> None:
        for attr, value in (("name", self.name), ("source_name", self.source_name)):
            if not isinstance(value, str):
                raise SchemaError(f"feature {attr} must be a string, got {value!r}")
        # Exact type: bool is an int subclass, and True would pass as 1.
        if type(self.source_column) is not int or self.source_column < 0:
            raise SchemaError(
                f"feature source_column must be a nonnegative integer, got {self.source_column!r}"
            )
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.kind in NUMERIC_KINDS and not math.isfinite(float(self.operand)):
            raise SchemaError(f"{self.name}: numeric threshold must be finite")
        # An operand such as True, "1" or 7 would match no cell: all-false.
        binary_ok = type(self.operand) is int and self.operand in (0, 1)
        if self.kind == "raw-binary" and not binary_ok:
            raise SchemaError(f"{self.name}: binary operand must be the integer 0 or 1")
        if self.kind.startswith("categorical") and not isinstance(self.operand, str):
            raise SchemaError(f"{self.name}: categorical operand must be a string")

    def test(self, cell: str) -> bool:
        """Evaluate the feature on one raw cell (the encoder's reference)."""
        if self.kind == "categorical-eq":
            return cell == self.operand
        if self.kind == "categorical-neq":
            return cell != self.operand
        if self.kind == "raw-binary":
            if cell not in ("0", "1"):
                raise DataError(f"{self.source_name}: non-binary value {cell!r}")
            return cell == str(self.operand)
        value = _parse_number(cell, self.source_name)
        if self.kind == "numeric-le":
            return value <= float(self.operand)
        return value > float(self.operand)


def _parse_number(cell: str, column: str) -> float:
    """The cell's value. NaN is rejected because it fails both `<=` and
    `>` tests, while binarize builds `>` as the complement of `<=`, so
    training and serving would encode it differently; infinities are
    rejected because a threshold must be finite."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{column}: non-numeric value {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{column}: non-finite value {cell!r}")
    return value


def _format_number(x: float) -> str:
    """Short form of a threshold for feature names; repr when the short
    form would not round-trip, so distinct thresholds get distinct names."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def decile_cuts(values: Sequence[float]) -> list[float]:
    """Deduplicated sample deciles by sorted-order index ceil(q*n) - 1."""
    ordered = sorted(values)
    n = len(ordered)
    cuts: list[float] = []
    for k in range(1, 10):
        idx = (k * n + 9) // 10 - 1
        c = ordered[idx]
        if not cuts or c != cuts[-1]:
            cuts.append(c)
    return cuts


@dataclass
class BinaryDataset:
    """Binarized samples: one bitset per feature, bit i = sample i."""

    n: int
    columns: list[int]
    labels: int
    descriptors: list[FeatureDescriptor]

    universe: int = field(init=False)
    _pair_plan: list[tuple[int, int, bool]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _class_counts: tuple[list[int], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.descriptors):
            raise DataError("columns/descriptors length mismatch")
        self.universe = all_ones(self.n)
        if self.labels & ~self.universe:
            raise DataError("label bits outside sample range")
        if any(c & ~self.universe for c in self.columns):
            raise DataError("column bits outside sample range")

    @property
    def d(self) -> int:
        return len(self.columns)

    @property
    def positives(self) -> int:
        return self.labels

    @property
    def negatives(self) -> int:
        return self.universe & ~self.labels

    @property
    def n_pos(self) -> int:
        return self.labels.bit_count()

    def feature_names(self) -> list[str]:
        return [f.name for f in self.descriptors]

    def pair_plan(self) -> list[tuple[int, int, bool]]:
        """bits.complement_pairs of the columns, built on first use."""
        if self._pair_plan is None:
            self._pair_plan = complement_pairs(self.columns, self.universe)
        return self._pair_plan

    def class_counts(self) -> tuple[list[int], list[int]]:
        """|positives & col_j| and |negatives & col_j| for every column j,
        counted over the pair plan on first use. Every rule-search instance
        on this dataset reads its empty-cover counts from them."""
        if self._class_counts is None:
            plan = self.pair_plan()
            self._class_counts = (
                plan_counts(self.positives, plan),
                plan_counts(self.negatives, plan),
            )
        return self._class_counts

    @classmethod
    def from_matrix(
        cls,
        rows: Sequence[Sequence[int]],
        labels: Sequence[int],
        names: Sequence[str] | None = None,
    ) -> "BinaryDataset":
        """Build directly from a 0/1 matrix (row-major) and 0/1 labels."""
        if len(rows) != len(labels):
            raise DataError("rows/labels length mismatch")
        d = len(rows[0]) if rows else 0
        if names is None:
            names = [f"f{j}" for j in range(d)]
        descriptors = [
            FeatureDescriptor(
                name=names[j], source_column=j, source_name=names[j],
                kind="raw-binary", operand=1,
            )
            for j in range(d)
        ]
        columns = [pack_bools(row[j] for row in rows) for j in range(d)]
        return cls(
            n=len(rows),
            columns=columns,
            labels=pack_bools(bool(y) for y in labels),
            descriptors=descriptors,
        )


def _label_bits(col: Sequence[str], name: str) -> int:
    bad = set(col) - {"0", "1"}
    if bad:
        raise DataError(f"label column {name!r} must be 0/1, got {sorted(bad)!r}")
    return _digit_bits(col)


def _digit_bits(col: Sequence[str]) -> int:
    """Bitset of a column whose every cell is "0" or "1": the cells are
    its digits, bit 0 first."""
    digits = col if isinstance(col, str) else "".join(col)
    return int(digits[::-1] or "0", 2)


def _parse_numbers(col: Sequence[str], name: str) -> list[float]:
    """The column's values, parsed at C speed; on a bad column, the error
    _parse_number raises on its first bad cell."""
    try:
        values = list(map(float, col))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    return [_parse_number(v, name) for v in col]


def _pack_cuts(values: list[float], cuts: list[float]) -> list[int]:
    """The bitset of `v <= cut` for each cut, sorted and distinct. A cell's
    code is bisect_left over a window of cuts, the number of them below v,
    so v <= window[k] exactly when the code is at most k."""
    out = []
    for start in range(0, len(cuts), CODE_WINDOW):
        window = cuts[start:start + CODE_WINDOW]
        codes = bytes(map(bisect_left, repeat(window), values))
        out += [pack_codes(codes, range(k + 1)) for k in range(len(window))]
    return out


def _pack_operands(col: Sequence[str], operands: list[str]) -> list[int]:
    """The bitset of `cell = z` for each distinct operand z. A cell's code
    is z's index in a window of operands, or the window's length for a cell
    equal to none of them."""
    out = []
    for start in range(0, len(operands), CODE_WINDOW):
        window = operands[start:start + CODE_WINDOW]
        lookup = {z: k for k, z in enumerate(window)}
        codes = bytes(map(lookup.get, col, repeat(len(window))))
        out += [pack_codes(codes, (k,)) for k in range(len(window))]
    return out


def _encode_column(
    col: Sequence[str],
    name: str,
    descriptors: Sequence[FeatureDescriptor],
    universe: int,
    distinct: set[str] | None = None,
    values: list[float] | None = None,
) -> list[int]:
    """One bitset per descriptor, all read from the raw column `col`. Each
    check runs at the first descriptor that needs it, so the error is the
    one FeatureDescriptor.test raises on the first offending cell. The
    first `<=` or `=` descriptor packs every cut or operand of the group.

    distinct, when given, is set(col), and values, when given, is
    _parse_numbers(col, name); binarize has both at hand. Otherwise a
    column with a raw-binary descriptor builds the set here, which its
    check needs anyway, and other list columns scan the cells for "",
    which costs less than building a set. A str column holds no empty
    cell, and `"" in` it would test for a substring."""
    if distinct is None and any(d.kind == "raw-binary" for d in descriptors):
        distinct = set(col)
    scanned = col if distinct is None else distinct
    if not isinstance(scanned, str) and "" in scanned:
        raise DataError(f"{name}: missing values are not supported")
    packed: dict[tuple, int] = {}  # ("<=", cut), ("=", category) or ("binary",)
    out = []
    for desc in descriptors:
        if desc.kind in NUMERIC_KINDS:
            key: tuple = ("<=", float(desc.operand))
            positive = desc.kind == "numeric-le"
            if key not in packed:
                if values is None:
                    values = _parse_numbers(col, name)
                cuts = sorted({float(d.operand) for d in descriptors if d.kind in NUMERIC_KINDS})
                packed.update(zip([("<=", c) for c in cuts], _pack_cuts(values, cuts)))
        elif desc.kind == "raw-binary":
            key, positive = ("binary",), desc.operand == 1
            if key not in packed:
                if not distinct <= {"0", "1"}:
                    bad = next(v for v in col if v not in ("0", "1"))
                    raise DataError(f"{name}: non-binary value {bad!r}")
                packed[key] = _digit_bits(col)
        else:
            key, positive = ("=", desc.operand), desc.kind == "categorical-eq"
            if key not in packed:
                operands = list(dict.fromkeys(
                    d.operand for d in descriptors if d.kind.startswith("categorical")
                ))
                packed.update(zip([("=", z) for z in operands], _pack_operands(col, operands)))
        out.append(packed[key] if positive else universe ^ packed[key])
    return out


def binarize(table: Table, schema: dict[str, str]) -> BinaryDataset:
    """Binarize a raw table under the given column-kind schema.

    Every non-label column yields complementary feature pairs as described
    in the module docstring. Empty cells are rejected; columns with a
    single distinct value are skipped with a warning, as are duplicated
    (bit-identical) derived features, which are kept.
    """
    label_name = check_schema(table, schema)
    if table.n == 0:
        raise DataError("empty table")

    labels = _label_bits(table.column(label_name), label_name)

    universe = all_ones(table.n)
    descriptors: list[FeatureDescriptor] = []
    columns: list[int] = []
    for ci, (name, col) in enumerate(zip(table.names, table.columns)):
        kind = schema[name]
        if kind == LABEL:
            continue
        distinct = set(col)
        if "" in distinct:
            raise DataError(f"{name}: missing values are not supported")
        if len(distinct) < 2:
            warnings.warn(f"column {name!r} is constant; skipped", stacklevel=2)
            continue
        derived: list[FeatureDescriptor] = []
        values = None
        if kind == CATEGORICAL:
            for z in sorted(distinct):
                derived.append(FeatureDescriptor(f"{name} = {z}", ci, name, "categorical-eq", z))
                derived.append(FeatureDescriptor(f"{name} != {z}", ci, name, "categorical-neq", z))
        elif kind == NUMERIC:
            values = _parse_numbers(col, name)
            # A cut is a sample value, so its `<=` feature is never all-false;
            # it is all-true at the maximum, which is dropped.
            top = max(values)
            for cut in (c for c in decile_cuts(values) if c < top):
                text = _format_number(cut)
                derived.append(FeatureDescriptor(f"{name} <= {text}", ci, name, "numeric-le", cut))
                derived.append(FeatureDescriptor(f"{name} > {text}", ci, name, "numeric-gt", cut))
        elif kind == BINARY:
            bad = distinct - {"0", "1"}
            if bad:
                raise DataError(f"{name}: binary column has values {sorted(bad)!r}")
            derived.append(FeatureDescriptor(f"{name} = 1", ci, name, "raw-binary", 1))
            derived.append(FeatureDescriptor(f"{name} = 0", ci, name, "raw-binary", 0))
        descriptors += derived
        columns += _encode_column(col, name, derived, universe, distinct, values)

    duplicates = len(columns) - len(set(columns))
    if duplicates:
        warnings.warn(f"{duplicates} duplicate binary feature(s) kept", stacklevel=2)

    return BinaryDataset(n=table.n, columns=columns, labels=labels, descriptors=descriptors)


def apply_descriptors(
    table: Table,
    descriptors: Sequence[FeatureDescriptor],
    label_column: str | None = None,
) -> BinaryDataset:
    """Encode new rows with features learned elsewhere (e.g. a train fold).

    Descriptors are grouped by source column and each column is encoded
    once, in order of its first descriptor; the output keeps the
    descriptors' order. Label bits are zero when label_column is None or
    absent from the table.
    """
    if table.n == 0:
        raise DataError("empty table")
    by_column: dict[str, list[int]] = {}
    for j, desc in enumerate(descriptors):
        by_column.setdefault(desc.source_name, []).append(j)
    index = {name: i for i, name in enumerate(table.names)}
    universe = all_ones(table.n)
    columns = [0] * len(descriptors)
    for name, positions in by_column.items():
        if name not in index:
            raise SchemaError(f"table lacks column {name!r}")
        group = [descriptors[j] for j in positions]
        bits = _encode_column(table.columns[index[name]], name, group, universe)
        for j, b in zip(positions, bits):
            columns[j] = b
    if label_column is not None and label_column in table.names:
        labels = _label_bits(table.column(label_column), label_column)
    else:
        labels = 0
    return BinaryDataset(
        n=table.n, columns=columns, labels=labels, descriptors=list(descriptors)
    )
