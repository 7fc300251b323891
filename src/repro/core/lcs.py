"""Longest-common-subsequence algorithms.

Three related tools used across the library:

- :func:`myers_opcodes` — Myers' O((N+M)·D) greedy diff, the same algorithm
  family as GNU/Unix ``diff``.  It powers the :mod:`repro.baselines.unixdiff`
  comparator of Figure 6 and the DiffMK-style baseline.
- :func:`lcs_pairs` — classic O(N·M) dynamic program with a pluggable
  equality predicate, used by the LaDiff baseline (which needs LCS over
  *similar*, not equal, nodes) and as an oracle in tests.
- :func:`lcs_length` — length-only variant (linear space).
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional, Sequence

__all__ = ["lcs_length", "lcs_pairs", "myers_opcodes"]

Opcode = tuple[str, int, int, int, int]


def lcs_pairs(
    a: Sequence,
    b: Sequence,
    equal: Optional[Callable] = None,
) -> list[tuple[int, int]]:
    """Index pairs of one longest common subsequence of ``a`` and ``b``.

    Args:
        a, b: Arbitrary sequences.
        equal: Optional predicate ``equal(x, y) -> bool``; defaults to ``==``.

    Returns:
        Pairs ``(i, j)`` with ``a[i]`` ~ ``b[j]``, strictly increasing in
        both components.  O(len(a)·len(b)) time and space.
    """
    if equal is None:
        equal = lambda x, y: x == y  # noqa: E731 - tiny local default
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    # lengths[i][j] = LCS length of a[i:], b[j:]
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = lengths[i]
        below = lengths[i + 1]
        a_i = a[i]
        for j in range(m - 1, -1, -1):
            if equal(a_i, b[j]):
                row[j] = below[j + 1] + 1
            else:
                below_j = below[j]
                right = row[j + 1]
                row[j] = below_j if below_j >= right else right
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if equal(a[i], b[j]):
            pairs.append((i, j))
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Length of the LCS of two sequences in O(N·M) time, O(M) space."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    previous = [0] * (m + 1)
    for i in range(n):
        current = [0] * (m + 1)
        a_i = a[i]
        for j in range(m):
            if a_i == b[j]:
                current[j + 1] = previous[j] + 1
            else:
                current[j + 1] = max(previous[j + 1], current[j])
        previous = current
    return previous[m]


def myers_opcodes(a: Sequence, b: Sequence) -> list[Opcode]:
    """Myers' greedy diff as difflib-style opcodes.

    Returns a list of ``(tag, i1, i2, j1, j2)`` with ``tag`` one of
    ``"equal"``, ``"delete"`` (a[i1:i2] removed), ``"insert"``
    (b[j1:j2] added).  Runs in O((N+M)·D) where D is the edit distance —
    near-linear on documents with few changes, which is precisely the
    regime the paper's evaluation emphasizes.
    """
    n, m = len(a), len(b)
    if n == 0 and m == 0:
        return []
    if n == 0:
        return [("insert", 0, 0, 0, m)]
    if m == 0:
        return [("delete", 0, n, 0, 0)]

    # Forward pass.  Round d reaches diagonals k = -d, -d+2, ..., d; its
    # furthest x per diagonal is one flat row, row[(k + d) // 2], so
    # diagonal k's neighbours k-1 and k+1 sit at i-1 and i of the
    # previous row.  Every row but the last is kept for the backtrack.
    rows: list[array] = []
    previous = [0]  # round -1: diagonal 1 at x = 0
    for d in range(n + m + 1):
        row = [0] * (d + 1)
        for i in range(d + 1):
            if i == 0 or (i != d and previous[i - 1] < previous[i]):
                x = previous[i]
            else:
                x = previous[i - 1] + 1
            y = x - (2 * i - d)
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            row[i] = x
            if x >= n and y >= m:
                break
        if x >= n and y >= m:
            break
        rows.append(array("q", row))
        previous = row
    found_d = d

    # Backtrack from (n, m) to (0, 0), collecting elementary steps.
    steps: list[tuple[str, int, int]] = []  # ("equal"|"delete"|"insert", i, j)
    x, y = n, m
    for d in range(found_d, 0, -1):
        v = rows[d - 1]
        k = x - y
        i = (k + d) // 2
        down = i == 0 or (i != d and v[i - 1] < v[i])
        prev_k = k + 1 if down else k - 1
        prev_x = v[i] if down else v[i - 1]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            steps.append(("equal", x - 1, y - 1))
            x -= 1
            y -= 1
        if down:
            steps.append(("insert", x, y - 1))
            y -= 1
        else:
            steps.append(("delete", x - 1, y))
            x -= 1
    while x > 0 and y > 0:
        steps.append(("equal", x - 1, y - 1))
        x -= 1
        y -= 1

    steps.reverse()

    # Coalesce elementary steps into ranged opcodes.
    opcodes: list[Opcode] = []
    for tag, i, j in steps:
        if tag == "equal":
            if opcodes and opcodes[-1][0] == "equal" and opcodes[-1][2] == i:
                last = opcodes[-1]
                opcodes[-1] = ("equal", last[1], i + 1, last[3], j + 1)
            else:
                opcodes.append(("equal", i, i + 1, j, j + 1))
        elif tag == "delete":
            if opcodes and opcodes[-1][0] == "delete" and opcodes[-1][2] == i:
                last = opcodes[-1]
                opcodes[-1] = ("delete", last[1], i + 1, last[3], last[4])
            else:
                opcodes.append(("delete", i, i + 1, j, j))
        else:  # insert
            if opcodes and opcodes[-1][0] == "insert" and opcodes[-1][4] == j:
                last = opcodes[-1]
                opcodes[-1] = ("insert", last[1], last[2], last[3], j + 1)
            else:
                opcodes.append(("insert", i, i, j, j + 1))
    return opcodes
