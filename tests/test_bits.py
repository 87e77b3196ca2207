"""Tests for the integer bit-vector helpers."""

import random

from conftest import bit_indices
from rulecover.bits import all_ones, intersect_all, pack_bools, pack_codes


def test_all_ones_small_values():
    assert all_ones(0) == 0
    assert all_ones(1) == 0b1
    assert all_ones(3) == 0b111
    assert all_ones(64) == (1 << 64) - 1


def test_pack_bools_matches_manual_encoding():
    flags = [True, False, False, True, True]
    x = pack_bools(flags)
    assert x == 0b11001
    assert [bool(x >> i & 1) for i in range(5)] == flags


def _pack_bools_by_shifts(flags):
    # The former pack_bools: one shift-and-or per set bit.
    bits = 0
    for i, f in enumerate(flags):
        if f:
            bits |= 1 << i
    return bits


def test_pack_bools_matches_shift_and_or_loop():
    rng = random.Random(11)
    cases = [[], [False] * 13, [True] * 13, [True], [False]]
    cases += [[rng.random() < 0.5 for _ in range(n)] for n in (1, 7, 9, 15, 17, 63, 65)]
    cases.append([rng.random() < 0.5 for _ in range(10_000)])
    for flags in cases:
        expect = _pack_bools_by_shifts(flags)
        assert pack_bools(flags) == expect
        assert pack_bools(f for f in flags) == expect
    assert pack_bools([]) == 0
    assert pack_bools([False] * 13) == 0
    assert pack_bools([True] * 13) == all_ones(13)


def test_bit_indices_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 300)
        rows = sorted(rng.sample(range(n), rng.randrange(0, n)))
        x = sum(1 << i for i in rows)
        assert list(bit_indices(x)) == rows


def test_bit_indices_empty():
    assert list(bit_indices(0)) == []


def test_intersect_all_empty_is_universe():
    assert intersect_all([], 0b1111) == 0b1111


def test_intersect_all_matches_loop():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 80)
        universe = all_ones(n)
        cols = [rng.getrandbits(n) for _ in range(rng.randrange(0, 5))]
        expect = universe
        for c in cols:
            expect &= c
        assert intersect_all(cols, universe) == expect


def test_pack_codes_matches_pack_bools_of_membership():
    rng = random.Random(8)
    assert pack_codes(b"", (0,)) == 0
    assert pack_codes(b"\x00\xff", ()) == 0
    for _ in range(100):
        codes = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 300)))
        hits = {codes[0], *rng.sample(range(256), rng.randrange(0, 20))}
        assert pack_codes(codes, hits) == pack_bools(c in hits for c in codes)
