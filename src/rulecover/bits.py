"""Bit-vector helpers.

Sample sets are Python ints used as bitsets: bit i is sample i. Arbitrary
precision makes AND + popcount over thousands of rows a single interpreter
op, which is what the solver hot loops need.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def all_ones(n: int) -> int:
    """Bitset containing samples 0..n-1."""
    return (1 << n) - 1


def pack_bools(flags: Iterable[bool]) -> int:
    """Bitset with bit i set iff flags[i] is truthy. One base-2 int() of the
    reversed digit string, which is linear in the length, instead of one
    shift-and-or per set bit."""
    return int("".join(["1" if f else "0" for f in flags])[::-1] or "0", 2)


def pack_codes(codes: bytes, hits: Iterable[int]) -> int:
    """Bitset with bit i set iff codes[i] is one of the byte values in hits.
    One bytes.translate of the codes to "1"/"0" digits, then one base-2
    int() as in pack_bools, so no Python code runs per element."""
    table = bytearray(b"0" * 256)
    for code in hits:
        table[code] = 49  # ord("1")
    return int(codes.translate(table)[::-1] or b"0", 2)


def complement_pairs(columns: Sequence[int], universe: int) -> list[tuple[int, int, bool]]:
    """Pair plan of a column list: entries (j, columns[j], paired), read left
    to right. paired means columns[j + 1] == universe ^ columns[j]; the
    pair then has one entry, and the next entry starts at j + 2.

    For a mask m within universe, |m & columns[j + 1]| = |m| - |m &
    columns[j]| exactly, so a scan over the plan counts both columns of a
    pair with one AND.
    """
    plan = []
    d = len(columns)
    j = 0
    while j < d:
        col = columns[j]
        paired = j + 1 < d and columns[j + 1] == universe ^ col
        plan.append((j, col, paired))
        j += 2 if paired else 1
    return plan


def plan_counts(mask: int, plan: Sequence[tuple[int, int, bool]]) -> list[int]:
    """|mask & columns[j]| for every column j of a pair plan, for a mask
    within the plan's universe: one AND per entry, and a paired column
    j + 1 gets |mask| - |mask & columns[j]|, the same integer."""
    total = mask.bit_count()
    out = []
    for _, col, paired in plan:
        kept = (mask & col).bit_count()
        out.append(kept)
        if paired:
            out.append(total - kept)
    return out


def intersect_all(columns: Iterable[int], universe: int) -> int:
    cover = universe
    for col in columns:
        cover &= col
    return cover
