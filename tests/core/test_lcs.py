"""Tests for LCS and Myers diff machinery."""

import random

import pytest

from repro.core.lcs import lcs_length, lcs_pairs, myers_opcodes


def apply_opcodes(a, b, opcodes):
    """Reconstruct b from a using the opcodes (test oracle)."""
    out = []
    for tag, i1, i2, j1, j2 in opcodes:
        if tag == "equal":
            assert list(a[i1:i2]) == list(b[j1:j2])
            out.extend(a[i1:i2])
        elif tag == "insert":
            out.extend(b[j1:j2])
        elif tag == "delete":
            pass
        else:  # pragma: no cover
            raise AssertionError(tag)
    return out


def opcodes_cover(a, b, opcodes):
    """Opcodes must tile both sequences without gaps or overlaps."""
    i = j = 0
    for tag, i1, i2, j1, j2 in opcodes:
        assert i1 == i and j1 == j
        i, j = i2, j2
    assert i == len(a) and j == len(b)


class TestLcsPairs:
    def test_simple(self):
        pairs = lcs_pairs("ABCBDAB", "BDCABA")
        assert len(pairs) == 4  # classic example: LCS length 4

    def test_pairs_are_increasing_and_equal(self):
        a, b = "XMJYAUZ", "MZJAWXU"
        pairs = lcs_pairs(a, b)
        assert len(pairs) == 4
        last_i = last_j = -1
        for i, j in pairs:
            assert a[i] == b[j]
            assert i > last_i and j > last_j
            last_i, last_j = i, j

    def test_empty(self):
        assert lcs_pairs("", "abc") == []
        assert lcs_pairs("abc", "") == []

    def test_identical(self):
        assert lcs_pairs("abc", "abc") == [(0, 0), (1, 1), (2, 2)]

    def test_custom_equality(self):
        pairs = lcs_pairs([1, 2, 3], [10, 30], equal=lambda x, y: x * 10 == y)
        assert pairs == [(0, 0), (2, 1)]

    def test_matches_lcs_length(self):
        rng = random.Random(7)
        for _ in range(25):
            a = [rng.randint(0, 5) for _ in range(rng.randint(0, 20))]
            b = [rng.randint(0, 5) for _ in range(rng.randint(0, 20))]
            assert len(lcs_pairs(a, b)) == lcs_length(a, b)


class TestLcsLength:
    def test_known(self):
        assert lcs_length("ABCBDAB", "BDCABA") == 4

    def test_disjoint(self):
        assert lcs_length("abc", "xyz") == 0

    def test_empty(self):
        assert lcs_length("", "") == 0


class TestMyers:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("abc", "abc"),
            ("abcabba", "cbabac"),
            ("kitten", "sitting"),
            ("abcdef", "abdf"),
            ("x", "y"),
        ],
    )
    def test_reconstruction(self, a, b):
        opcodes = myers_opcodes(a, b)
        assert "".join(apply_opcodes(a, b, opcodes)) == b
        if a or b:
            opcodes_cover(a, b, opcodes)

    def test_equal_runs_coalesced(self):
        opcodes = myers_opcodes("aaaa", "aaaa")
        assert opcodes == [("equal", 0, 4, 0, 4)]

    def test_edit_distance_is_minimal(self):
        # D = deleted + inserted symbols must equal len(a)+len(b)-2*LCS.
        rng = random.Random(42)
        for _ in range(40):
            a = [rng.randint(0, 4) for _ in range(rng.randint(0, 18))]
            b = [rng.randint(0, 4) for _ in range(rng.randint(0, 18))]
            opcodes = myers_opcodes(a, b)
            deleted = sum(i2 - i1 for t, i1, i2, _, _ in opcodes if t == "delete")
            inserted = sum(j2 - j1 for t, _, _, j1, j2 in opcodes if t == "insert")
            expected = len(a) + len(b) - 2 * lcs_length(a, b)
            assert deleted + inserted == expected

    def test_random_sequences_roundtrip(self):
        rng = random.Random(3)
        for _ in range(60):
            a = [rng.randint(0, 6) for _ in range(rng.randint(0, 40))]
            b = list(a)
            # mutate b a little
            for _ in range(rng.randint(0, 6)):
                if b and rng.random() < 0.5:
                    b.pop(rng.randrange(len(b)))
                else:
                    b.insert(rng.randint(0, len(b)), rng.randint(0, 6))
            opcodes = myers_opcodes(a, b)
            assert apply_opcodes(a, b, opcodes) == b

    def test_trace_memory_stays_small(self):
        # 300 substitutions in 2,000 items: D = 600 edit rounds.  The
        # backtrack trace holds one flat row of furthest-reaching x per
        # round, about 1.8 MB traced here.
        import tracemalloc

        rng = random.Random(1)
        a = list(range(2000))
        b = list(a)
        for position in rng.sample(range(2000), 300):
            b[position] = -position - 1
        tracemalloc.start()
        try:
            opcodes = myers_opcodes(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_000_000
        assert apply_opcodes(a, b, opcodes) == b
        edits = sum(
            (i2 - i1) + (j2 - j1) for t, i1, i2, j1, j2 in opcodes if t != "equal"
        )
        assert edits == 600
