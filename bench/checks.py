"""Output checks that do not trust the code under test.

``raw_predictions`` evaluates a model file's rules directly on the raw CSV
cells. It reads each feature's kind and operand itself and never calls
``FeatureDescriptor.test``, so a serving bug in the program shows up as a
mismatch against the ``prediction`` column that ``predict`` wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _literal(kind: str, operand, cell: str) -> bool:
    if kind == "categorical-eq":
        return cell == operand
    if kind == "categorical-neq":
        return cell != operand
    if kind == "numeric-le":
        return float(cell) <= float(operand)
    if kind == "numeric-gt":
        return float(cell) > float(operand)
    if kind == "raw-binary":
        return cell == str(operand)
    raise CheckFailed(f"model uses unknown feature kind {kind!r}")


def read_csv_columns(path: str) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CheckFailed(f"{path}: empty file")
        columns: list[list[str]] = [[] for _ in header]
        for row in reader:
            for col, cell in zip(columns, row):
                col.append(cell)
    return dict(zip(header, columns))


def raw_predictions(model_path: str, table: dict[str, list[str]]) -> list[str]:
    """0/1 prediction per row, as strings, from the model JSON rules."""
    with open(model_path) as fh:
        doc = json.load(fh)
    features = {f["name"]: f for f in doc["features"]}
    n = len(next(iter(table.values())))
    covered = [False] * n
    for rule in doc["rules"]:
        hits = [True] * n
        for name in rule:
            f = features[name]
            column = table[f["source_name"]]
            kind, operand = f["kind"], f["operand"]
            hits = [h and _literal(kind, operand, c) for h, c in zip(hits, column)]
        covered = [c or h for c, h in zip(covered, hits)]
    return ["1" if c else "0" for c in covered]


def prediction_column(path: str) -> list[str]:
    columns = read_csv_columns(path)
    if list(columns) != ["prediction"]:
        raise CheckFailed(f"{path}: expected one 'prediction' column")
    return columns["prediction"]


def digest(table: dict[str, list[str]], predictions: list[str]) -> str:
    """Hash of the map from row to prediction; the same for any row order."""
    lines = sorted(
        ",".join(row) + "=" + p for row, p in zip(zip(*table.values()), predictions)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def accuracy(predictions: list[str], labels: list[str]) -> float:
    return sum(p == y for p, y in zip(predictions, labels)) / len(labels)


def stderr_field(text: str, key: str) -> str:
    """Value of ``key=value`` on the program's stderr summary line."""
    found = re.findall(rf"(?:^|\s){re.escape(key)}=(\S+)", text)
    if not found:
        raise CheckFailed(f"no {key}= in program output")
    return found[-1]


def same_float(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
