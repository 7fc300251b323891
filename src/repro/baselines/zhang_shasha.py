"""Zhang–Shasha ordered tree edit distance (exact quality reference).

The paper recalls (Section 3) that minimal tree edit scripts are the
territory of Tai / Zhang–Shasha style algorithms, with costs polynomial
but far above linear.  We implement the classic Zhang–Shasha dynamic
program (unit costs) to serve as the *optimality yardstick* in the quality
benchmarks: on trees small enough to afford it, the number of nodes BULD
deletes + inserts + updates can be compared against the true edit distance
(which allows no moves — a script with moves may legitimately beat it).

Complexity: ``O(n1·n2·min(depth1, leaves1)·min(depth2, leaves2))`` time,
``O(n1·n2)`` space — quadratic-plus, exactly why the paper avoids it.
"""

from __future__ import annotations

from repro.xmlkit.model import Node, postorder

__all__ = ["tree_edit_distance"]


def _node_value(node: Node) -> tuple:
    kind = node.kind
    if kind == "element":
        return ("element", node.label)
    if kind == "pi":
        return ("pi", node.target, node.value)
    return (kind, node.value)


def _rename_cost(a: Node, b: Node) -> float:
    return 0.0 if _node_value(a) == _node_value(b) else 1.0


class _ZsTree:
    """Postorder arrays + leftmost-leaf/keyroot precomputation."""

    def __init__(self, root: Node):
        self.nodes: list[Node] = [
            node for node in postorder(root) if node.kind != "document"
        ]
        index_of = {id(node): i for i, node in enumerate(self.nodes)}
        # leftmost leaf descendant of each node (postorder indexes)
        self.leftmost: list[int] = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            current = node
            while current.children:
                current = current.children[0]
            self.leftmost[i] = index_of[id(current)]
        # keyroots: nodes with no left sibling on their root path —
        # the last (highest-postorder) node for each leftmost value.
        seen: dict[int, int] = {}
        for i in range(len(self.nodes)):
            seen[self.leftmost[i]] = i
        self.keyroots = sorted(seen.values())

    def __len__(self):
        return len(self.nodes)


def tree_edit_distance(old_root, new_root) -> float:
    """Exact ordered tree edit distance between two (sub)trees.

    Args:
        old_root / new_root: Any model nodes (documents use their content).

    Returns:
        The minimal number of node deletions, insertions and renames
        turning the old tree into the new one (no move operation exists in
        this model).  Every operation costs 1, and a rename of a node to
        an equal one (same kind and label or value) costs 0.
    """
    t1 = _ZsTree(old_root)
    t2 = _ZsTree(new_root)
    n1, n2 = len(t1), len(t2)
    if n1 == 0:
        return float(n2)
    if n2 == 0:
        return float(n1)

    treedist = [[0.0] * n2 for _ in range(n1)]

    l1, l2 = t1.leftmost, t2.leftmost
    nodes1, nodes2 = t1.nodes, t2.nodes

    for k1 in t1.keyroots:
        for k2 in t2.keyroots:
            _forest_distance(k1, k2, l1, l2, nodes1, nodes2, treedist)
    return treedist[n1 - 1][n2 - 1]


def _forest_distance(k1, k2, l1, l2, nodes1, nodes2, treedist):
    """Fill treedist for the keyroot pair (k1, k2) — the classic inner DP."""
    first1 = l1[k1]
    first2 = l2[k2]
    rows = k1 - first1 + 2
    cols = k2 - first2 + 2
    forest = [[0.0] * cols for _ in range(rows)]
    for i in range(1, rows):
        forest[i][0] = forest[i - 1][0] + 1.0
    for j in range(1, cols):
        forest[0][j] = forest[0][j - 1] + 1.0
    for i in range(1, rows):
        node1 = nodes1[first1 + i - 1]
        for j in range(1, cols):
            node2 = nodes2[first2 + j - 1]
            if l1[first1 + i - 1] == first1 and l2[first2 + j - 1] == first2:
                # both forests are whole trees: record a tree distance
                cost = min(
                    forest[i - 1][j] + 1.0,
                    forest[i][j - 1] + 1.0,
                    forest[i - 1][j - 1] + _rename_cost(node1, node2),
                )
                forest[i][j] = cost
                treedist[first1 + i - 1][first2 + j - 1] = cost
            else:
                # general forests: reuse the stored subtree distance
                sub1 = l1[first1 + i - 1] - first1  # rows consumed by tree i
                sub2 = l2[first2 + j - 1] - first2
                forest[i][j] = min(
                    forest[i - 1][j] + 1.0,
                    forest[i][j - 1] + 1.0,
                    forest[sub1][sub2]
                    + treedist[first1 + i - 1][first2 + j - 1],
                )
