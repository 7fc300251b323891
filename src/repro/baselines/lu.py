"""Lu's tree-to-tree algorithm in Selkow's variant (Section 3 baseline).

Selkow's variant of the tree edit problem restricts insertion and deletion
to whole subtrees (leaves, recursively), which matches XML well: objects
are added or removed wholesale, and a node never changes level without its
subtree.  Lu's algorithm solves it by recursing: two nodes may match only
if their labels agree, and the cost of matching them is the cost of an
optimal *edit-distance alignment* of their child sequences, where aligning
two children costs their recursive distance and skipping a child costs its
subtree size.

The result is an optimal order-preserving matching under these costs in
``O(|D1| · |D2|)`` time — the quadratic baseline the paper's complexity
comparison (Section 3) is made against.  It supports no moves: a relocated
subtree is paid for twice (delete + insert), which is exactly the
behavioural difference the benchmarks exhibit against BULD.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.core.matching import Matching
from repro.xmlkit.model import Document, Node, postorder

__all__ = ["LuResult", "lu_match"]

_INFINITY = math.inf


@dataclass
class LuResult:
    """Matching plus the optimal edit cost that produced it."""

    matching: Matching
    cost: float


def _compatible(old: Node, new: Node) -> bool:
    if old.kind != new.kind:
        return False
    if old.kind == "element":
        return old.label == new.label
    if old.kind == "pi":
        return old.target == new.target
    return True


class _LuSolver:
    def __init__(self, old_document: Document, new_document: Document):
        self.sizes: dict[Node, int] = {}
        for document in (old_document, new_document):
            for node in postorder(document):
                self.sizes[node] = 1 + sum(
                    self.sizes[child] for child in node.children
                )
        self._distance_memo: dict[tuple[int, int], float] = {}
        self._keepalive = (old_document, new_document)

    # -- distances -----------------------------------------------------------

    def distance(self, old: Node, new: Node) -> float:
        """Optimal Selkow edit cost of turning ``old`` into ``new``."""
        if not _compatible(old, new):
            return _INFINITY
        key = (id(old), id(new))
        cached = self._distance_memo.get(key)
        if cached is not None:
            return cached
        if old.kind == "element":
            own = _attribute_cost(old, new)
        else:
            own = 0.0 if old.value == new.value else 1.0
        total = own + self._children_alignment_cost(old, new)
        self._distance_memo[key] = total
        return total

    def _children_table(self, old: Node, new: Node) -> list[list[float]]:
        """Edit-distance DP table over the two child sequences."""
        old_children = old.children
        new_children = new.children
        n, m = len(old_children), len(new_children)
        table = [[0.0] * (m + 1) for _ in range(n + 1)]
        for i in range(1, n + 1):
            table[i][0] = table[i - 1][0] + self.sizes[old_children[i - 1]]
        for j in range(1, m + 1):
            table[0][j] = table[0][j - 1] + self.sizes[new_children[j - 1]]
        for i in range(1, n + 1):
            old_child = old_children[i - 1]
            delete_cost = self.sizes[old_child]
            for j in range(1, m + 1):
                new_child = new_children[j - 1]
                best = table[i - 1][j] + delete_cost
                insert = table[i][j - 1] + self.sizes[new_child]
                if insert < best:
                    best = insert
                match = self.distance(old_child, new_child)
                if match < _INFINITY:
                    match += table[i - 1][j - 1]
                    if match < best:
                        best = match
                table[i][j] = best
        return table

    def _children_alignment_cost(self, old: Node, new: Node) -> float:
        return self._children_table(old, new)[len(old.children)][
            len(new.children)
        ]

    # -- matching extraction ----------------------------------------------------

    def extract(self, old: Node, new: Node, matching: Matching) -> None:
        """Record the pairs of one optimal alignment into ``matching``."""
        stack = [(old, new)]
        while stack:
            old_node, new_node = stack.pop()
            if matching.can_match(old_node, new_node):
                matching.add(old_node, new_node)
            table = self._children_table(old_node, new_node)
            old_children = old_node.children
            new_children = new_node.children
            i, j = len(old_children), len(new_children)
            while i > 0 and j > 0:
                here = table[i][j]
                old_child = old_children[i - 1]
                new_child = new_children[j - 1]
                match = self.distance(old_child, new_child)
                if (
                    match < _INFINITY
                    and here == table[i - 1][j - 1] + match
                ):
                    stack.append((old_child, new_child))
                    i -= 1
                    j -= 1
                elif here == table[i - 1][j] + self.sizes[old_child]:
                    i -= 1
                else:
                    j -= 1


def _attribute_cost(old: Node, new: Node) -> float:
    """Number of attribute edits between two same-label elements."""
    cost = 0.0
    for name, value in old.attributes.items():
        other = new.attributes.get(name)
        if other is None or other != value:
            cost += 1.0
    for name in new.attributes:
        if name not in old.attributes:
            cost += 1.0
    return cost


def lu_match(old_document: Document, new_document: Document) -> LuResult:
    """Optimal order-preserving matching between two documents.

    Returns the matching and its Selkow edit cost.  The matching always
    pairs the two document nodes; the root elements pair only when their
    labels agree (otherwise the whole tree is delete + insert).
    """
    limit = sys.getrecursionlimit()
    depth_bound = 4 * max(
        _tree_depth(old_document), _tree_depth(new_document)
    ) + 100
    if depth_bound > limit:
        sys.setrecursionlimit(depth_bound)
    solver = _LuSolver(old_document, new_document)
    matching = Matching()
    matching.add(old_document, new_document)
    cost = solver._children_alignment_cost(old_document, new_document)
    solver.extract(old_document, new_document, matching)
    return LuResult(matching=matching, cost=cost)


def _tree_depth(document: Document) -> int:
    depth = 0
    stack = [(document, 0)]
    while stack:
        node, level = stack.pop()
        if level > depth:
            depth = level
        for child in node.children:
            stack.append((child, level + 1))
    return depth
