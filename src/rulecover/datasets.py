"""Bundled and loadable benchmark datasets.

The tic-tac-toe endgame data is fully determined by the game rules, so it
is generated here instead of shipped: every board reachable by alternating
play from an empty board, stopping when either side completes a line or
the board fills, labeled 1 when x (the first player) has won. The mushroom
data is survey data and must be supplied as a file in the classic
comma-separated 23-field format (class first, 'p' = poisonous = 1).
"""

from __future__ import annotations

import random

from .dataset import CATEGORICAL, LABEL, Table

TTT_CELLS = (
    "top-left",
    "top-middle",
    "top-right",
    "middle-left",
    "middle-middle",
    "middle-right",
    "bottom-left",
    "bottom-middle",
    "bottom-right",
)

TTT_LINES = (
    (0, 1, 2),
    (3, 4, 5),
    (6, 7, 8),
    (0, 3, 6),
    (1, 4, 7),
    (2, 5, 8),
    (0, 4, 8),
    (2, 4, 6),
)

MUSHROOM_COLUMNS = (
    "cap_shape",
    "cap_surface",
    "cap_color",
    "bruises",
    "odor",
    "gill_attachment",
    "gill_spacing",
    "gill_size",
    "gill_color",
    "stalk_shape",
    "stalk_root",
    "stalk_surface_above_ring",
    "stalk_surface_below_ring",
    "stalk_color_above_ring",
    "stalk_color_below_ring",
    "veil_type",
    "veil_color",
    "ring_number",
    "ring_type",
    "spore_print_color",
    "population",
    "habitat",
)


def _winner(board: tuple[str, ...], player: str) -> bool:
    return any(all(board[i] == player for i in line) for line in TTT_LINES)


def tic_tac_toe() -> tuple[Table, dict[str, str]]:
    """All terminal boards of alternating play, labeled 1 when x wins."""
    terminal: set[tuple[str, ...]] = set()
    seen: set[tuple[str, ...]] = set()

    def walk(board: tuple[str, ...], player: str) -> None:
        if board in seen:
            return
        seen.add(board)
        if _winner(board, "x") or _winner(board, "o") or "b" not in board:
            terminal.add(board)
            return
        nxt = "o" if player == "x" else "x"
        for i, cell in enumerate(board):
            if cell == "b":
                walk(board[:i] + (player,) + board[i + 1 :], nxt)

    walk(("b",) * 9, "x")

    rows = [list(b) + ["1" if _winner(b, "x") else "0"] for b in sorted(terminal)]
    names = list(TTT_CELLS) + ["class"]
    schema = {c: CATEGORICAL for c in TTT_CELLS}
    schema["class"] = LABEL
    return Table.from_rows(names, rows), schema


def load_mushroom(path: str) -> tuple[Table, dict[str, str]]:
    """Read the classic mushroom file: class,cap-shape,...,habitat."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 23:
                raise ValueError(f"{path}: expected 23 fields, got {len(fields)}")
            label = "1" if fields[0] == "p" else "0"
            rows.append(fields[1:] + [label])
    names = list(MUSHROOM_COLUMNS) + ["class"]
    schema = {c: CATEGORICAL for c in MUSHROOM_COLUMNS}
    schema["class"] = LABEL
    return Table.from_rows(names, rows), schema


def planted_rules_table(
    n: int,
    d: int,
    rules: list[tuple[int, ...]],
    noise: float,
    seed: int,
) -> tuple[Table, dict[str, str]]:
    """Random binary table labeled by a planted rule set, with label noise."""
    rng = random.Random(seed)
    names = [f"f{j}" for j in range(d)] + ["class"]
    rows = []
    for _ in range(n):
        bits = [rng.randint(0, 1) for _ in range(d)]
        y = int(any(all(bits[j] for j in r) for r in rules))
        if rng.random() < noise:
            y = 1 - y
        rows.append([str(b) for b in bits] + [str(y)])
    schema = {f"f{j}": "binary" for j in range(d)}
    schema["class"] = LABEL
    return Table.from_rows(names, rows), schema
