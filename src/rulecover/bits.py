"""Bit-vector helpers.

Sample sets are Python ints used as bitsets: bit i is sample i. Arbitrary
precision makes AND + popcount over thousands of rows a single interpreter
op, which is what the solver hot loops need.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def all_ones(n: int) -> int:
    """Bitset containing samples 0..n-1."""
    return (1 << n) - 1


def pack_bools(flags: Iterable[bool]) -> int:
    """Bitset with bit i set iff flags[i] is truthy. One base-2 int() of the
    reversed digit string, which is linear in the length, instead of one
    shift-and-or per set bit."""
    return int("".join(["1" if f else "0" for f in flags])[::-1] or "0", 2)


def bit_indices(x: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def subset_bits(x: int, rows: Iterable[int]) -> int:
    """Re-index x onto the given rows: new bit i = old bit rows[i]."""
    out = 0
    for i, r in enumerate(rows):
        if (x >> r) & 1:
            out |= 1 << i
    return out


def intersect_all(columns: Iterable[int], universe: int) -> int:
    cover = universe
    for col in columns:
        cover &= col
    return cover
