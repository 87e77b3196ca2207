"""Input generators for the benchmark workloads.

The generators live here, not in ``rulecover.datasets``, so that a change
to the program cannot change the benchmark's inputs. Each table comes
back as a header plus rows of strings, ready to be written as CSV.

Each generated table is drawn once from a fixed generator seed; the
workload seed then draws the order of its rows (``shuffled``). Row order
changes the bytes the program reads and every bitset it builds, but not
the learning problem: counts, cut points and feature indices are the
same, so the solver does the same work and learns the same rules for
every seed. Drawing the rows themselves from the workload seed made the
solver's work differ from seed to seed (train time quartiles 34% of the
median apart on mixed), far more than the machine's noise.
"""

from __future__ import annotations

import csv
import json
import random

NOISE = 0.05

# mixed: 10 gaussian columns at 3 decimals, 10 categoricals with 4..13
# levels, labels from a DNF that mixes both column kinds.
MIXED_NUMERIC = 10
MIXED_LEVELS = tuple(range(4, 14))


def _mixed_label(num: list[float], cat: list[int]) -> int:
    return int(
        (num[0] > 0.3 and cat[0] == 1)
        or (num[1] <= -0.5 and num[2] > 0.0 and cat[1] != 0)
        or (cat[2] == 2 and cat[3] == 3)
        or num[3] > 1.0
    )


def mixed_table(n: int) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """n rows of 10 numeric and 10 categorical columns plus label ``y``."""
    rng = random.Random("mixed:0")
    names = [f"n{j}" for j in range(MIXED_NUMERIC)]
    names += [f"c{j}" for j in range(len(MIXED_LEVELS))]
    rows = []
    for _ in range(n):
        num = [round(rng.gauss(0.0, 1.0), 3) for _ in range(MIXED_NUMERIC)]
        cat = [rng.randrange(levels) for levels in MIXED_LEVELS]
        y = _mixed_label(num, cat)
        if rng.random() < NOISE:
            y = 1 - y
        rows.append([f"{x:.3f}" for x in num] + [f"v{c}" for c in cat] + [str(y)])
    schema = {name: "numeric" for name in names[:MIXED_NUMERIC]}
    schema.update({name: "categorical" for name in names[MIXED_NUMERIC:]})
    schema["y"] = "label"
    return names + ["y"], rows, schema


# wide: uniform random bits, labels from five planted three-literal rules.
WIDE_RULES = (
    (3, 141, 517),
    (27, 300, 888),
    (64, 650, 1001),
    (200, 402, 777),
    (5, 512, 960),
)


def wide_table(n: int, d: int) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """n rows of d binary columns plus label ``y``."""
    rules = [tuple(j % d for j in r) for r in WIDE_RULES]
    rng = random.Random("wide:0")
    names = [f"f{j}" for j in range(d)]
    rows = []
    for _ in range(n):
        word = rng.getrandbits(d)
        y = int(any(all((word >> j) & 1 for j in r) for r in rules))
        if rng.random() < NOISE:
            y = 1 - y
        bits = format(word, f"0{d}b")[::-1]
        rows.append(list(bits) + [str(y)])
    schema = {name: "binary" for name in names}
    schema["y"] = "label"
    return names + ["y"], rows, schema


TTT_ROWS = 958
TTT_POSITIVE = 626


def ttt_table() -> tuple[list[str], list[list[str]], dict[str, str]]:
    """The tic-tac-toe endgame table, checked against its known shape."""
    from rulecover.datasets import tic_tac_toe

    table, schema = tic_tac_toe()
    label = table.column("class")
    if table.n != TTT_ROWS or label.count("1") != TTT_POSITIVE:
        raise RuntimeError(
            f"tic-tac-toe table has {table.n} rows and {label.count('1')} "
            f"positives, expected {TTT_ROWS} and {TTT_POSITIVE}"
        )
    rows = [[col[i] for col in table.columns] for i in range(table.n)]
    return list(table.names), rows, dict(schema)


def shuffled(rows: list[list[str]], seed: int) -> list[list[str]]:
    """The rows in the order the workload seed draws."""
    rows = list(rows)
    random.Random(f"order:{seed}").shuffle(rows)
    return rows


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
