"""Tabular input, schemas, and binarization into bitset features.

A raw table of categorical/numeric/binary columns is turned into a
BinaryDataset: one bitset per derived 0/1 feature plus a label bitset.
Derived features come in complementary pairs so that rules can test both
polarities of every condition:

  categorical column x, category z   ->  [x = z] and [x != z]
  numeric column x, cut point t      ->  [x <= t] and [x > t]
  binary column x                    ->  [x = 1] and [x = 0]

Numeric cut points are the sample deciles (empirical quantiles at
q = 0.1..0.9 by sorted-order index ceil(q*n) - 1, deduplicated).
Constant columns carry no signal and are skipped with a warning.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .bits import all_ones, pack_bools, subset_bits

CATEGORICAL = "categorical"
NUMERIC = "numeric"
BINARY = "binary"
LABEL = "label"
COLUMN_KINDS = (CATEGORICAL, NUMERIC, BINARY, LABEL)

QUANTILES = tuple(k / 10 for k in range(1, 10))

FEATURE_KINDS = (
    "categorical-eq",
    "categorical-neq",
    "numeric-le",
    "numeric-gt",
    "raw-binary",
)


class SchemaError(ValueError):
    """Schema is malformed or inconsistent with the table."""


class DataError(ValueError):
    """Cell values violate the declared column kind."""


@dataclass
class Table:
    """Column-major table of raw string cells."""

    names: list[str]
    columns: list[list[str]]

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

    def column(self, name: str) -> list[str]:
        return self.columns[self.names.index(name)]

    def select_rows(self, rows: Sequence[int]) -> "Table":
        return Table(list(self.names), [[c[i] for i in rows] for c in self.columns])

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Sequence[str]]) -> "Table":
        cols: list[list[str]] = [[] for _ in names]
        for row in rows:
            if len(row) != len(names):
                raise DataError(f"row has {len(row)} cells, expected {len(names)}")
            for c, cell in zip(cols, row):
                c.append(cell.strip())
        return cls(list(names), cols)

    @classmethod
    def read_csv(cls, path: str, delimiter: str = ",") -> "Table":
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            return cls.from_rows([h.strip() for h in header], reader)


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
    for name, kind in schema.items():
        if name not in table.names:
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
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.kind in ("numeric-le", "numeric-gt") and not math.isfinite(float(self.operand)):
            raise SchemaError(f"{self.name}: numeric threshold must be finite")

    def test(self, cell: str) -> bool:
        """Evaluate the feature on one raw cell."""
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

    @property
    def n_neg(self) -> int:
        return self.n - self.n_pos

    def feature_names(self) -> list[str]:
        return [f.name for f in self.descriptors]

    def row_bits(self, i: int) -> list[int]:
        return [(c >> i) & 1 for c in self.columns]

    def subset(self, rows: Sequence[int]) -> "BinaryDataset":
        return BinaryDataset(
            n=len(rows),
            columns=[subset_bits(c, rows) for c in self.columns],
            labels=subset_bits(self.labels, rows),
            descriptors=list(self.descriptors),
        )

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


def _label_bits(col: list[str], name: str) -> int:
    bad = set(col) - {"0", "1"}
    if bad:
        raise DataError(f"label column {name!r} must be 0/1, got {sorted(bad)!r}")
    return pack_bools(v == "1" for v in col)


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

    descriptors: list[FeatureDescriptor] = []
    columns: list[int] = []
    for ci, (name, col) in enumerate(zip(table.names, table.columns)):
        kind = schema[name]
        if kind == LABEL:
            continue
        if any(v == "" for v in col):
            raise DataError(f"{name}: missing values are not supported")
        if len(set(col)) < 2:
            warnings.warn(f"column {name!r} is constant; skipped", stacklevel=2)
            continue
        if kind == CATEGORICAL:
            for z in sorted(set(col)):
                eq = pack_bools(v == z for v in col)
                descriptors.append(
                    FeatureDescriptor(f"{name} = {z}", ci, name, "categorical-eq", z)
                )
                columns.append(eq)
                descriptors.append(
                    FeatureDescriptor(f"{name} != {z}", ci, name, "categorical-neq", z)
                )
                columns.append(all_ones(table.n) ^ eq)
        elif kind == NUMERIC:
            values = [_parse_number(v, name) for v in col]
            for cut in decile_cuts(values):
                le = pack_bools(v <= cut for v in values)
                if le == 0 or le == all_ones(table.n):
                    continue
                text = _format_number(cut)
                descriptors.append(
                    FeatureDescriptor(f"{name} <= {text}", ci, name, "numeric-le", cut)
                )
                columns.append(le)
                descriptors.append(
                    FeatureDescriptor(f"{name} > {text}", ci, name, "numeric-gt", cut)
                )
                columns.append(all_ones(table.n) ^ le)
        elif kind == BINARY:
            bad = set(col) - {"0", "1"}
            if bad:
                raise DataError(f"{name}: binary column has values {sorted(bad)!r}")
            ones = pack_bools(v == "1" for v in col)
            descriptors.append(FeatureDescriptor(f"{name} = 1", ci, name, "raw-binary", 1))
            columns.append(ones)
            descriptors.append(FeatureDescriptor(f"{name} = 0", ci, name, "raw-binary", 0))
            columns.append(all_ones(table.n) ^ ones)

    seen: dict[int, str] = {}
    duplicates = 0
    for desc, bits in zip(descriptors, columns):
        if bits in seen:
            duplicates += 1
        else:
            seen[bits] = desc.name
    if duplicates:
        warnings.warn(f"{duplicates} duplicate binary feature(s) kept", stacklevel=2)

    return BinaryDataset(n=table.n, columns=columns, labels=labels, descriptors=descriptors)


def apply_descriptors(
    table: Table,
    descriptors: Sequence[FeatureDescriptor],
    label_column: str | None = None,
) -> BinaryDataset:
    """Encode new rows with features learned elsewhere (e.g. a train fold).

    Label bits are zero when label_column is None or absent from the table.
    """
    if table.n == 0:
        raise DataError("empty table")
    columns = []
    for desc in descriptors:
        if desc.source_name not in table.names:
            raise SchemaError(f"table lacks column {desc.source_name!r}")
        col = table.column(desc.source_name)
        if any(v == "" for v in col):
            raise DataError(f"{desc.source_name}: missing values are not supported")
        columns.append(pack_bools(desc.test(v) for v in col))
    if label_column is not None and label_column in table.names:
        labels = _label_bits(table.column(label_column), label_column)
    else:
        labels = 0
    return BinaryDataset(
        n=table.n, columns=columns, labels=labels, descriptors=list(descriptors)
    )
