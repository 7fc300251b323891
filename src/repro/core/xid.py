"""Persistent node identification (XIDs) and XID-maps.

The change model (Section 4 of the paper, detailed in Marian et al. VLDB'01)
rests on *persistent identifiers*: every node of the first version of a
document receives a unique integer XID (we use its postorder position,
exactly as the paper's example does).  When a new version arrives, the diff
matches nodes between versions; matched nodes inherit their XID, unmatched
(new) nodes draw fresh XIDs from a monotonic per-document allocator.  XIDs
never get reused, which is what makes deltas invertible and aggregatable.

An **XID-map** is the compact string attached to a subtree in a delta that
lists the XIDs of the subtree's nodes in postorder, e.g. ``(3-7)`` for the
five nodes of a product entry.  Because initial assignment is postorder,
contiguous subtrees compress to single ranges.

The document node itself always carries the reserved XID ``0`` so operations
on the root element have a parent to refer to.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.xmlkit.errors import DeltaError
from repro.xmlkit.model import Document, Node, postorder

__all__ = [
    "DOCUMENT_XID",
    "XidAllocator",
    "assign_initial_xids",
    "format_xid_map",
    "has_xids",
    "max_xid",
    "parse_xid_map",
    "subtree_xids",
    "xid_index",
    "xid_map_of",
    "xid_map_runs",
]

#: Reserved persistent identifier of the document node itself.
DOCUMENT_XID = 0


class XidAllocator:
    """Monotonic source of fresh XIDs for one document's history.

    The allocator's state (``next_xid``) is the only piece of information a
    version store must persist alongside a document to keep identifiers
    stable across an arbitrary number of versions.
    """

    def __init__(self, next_xid: int = 1):
        if next_xid < 1:
            raise ValueError("next_xid must be >= 1")
        self.next_xid = next_xid

    def allocate(self) -> int:
        """Return a fresh, never-before-used XID."""
        xid = self.next_xid
        self.next_xid += 1
        return xid

    def reserve(self, up_to: int) -> None:
        """Ensure future allocations are strictly greater than ``up_to``."""
        if up_to >= self.next_xid:
            self.next_xid = up_to + 1

    def __repr__(self):
        return f"XidAllocator(next_xid={self.next_xid})"


def assign_initial_xids(document: Document) -> XidAllocator:
    """Assign postorder XIDs ``1..n`` to every node of a first version.

    The document node receives the reserved XID 0.  Returns an allocator
    positioned just past the last assigned identifier.

    Any pre-existing XIDs are overwritten: initial assignment is only
    meaningful for the first version of a document.
    """
    counter = 0
    for node in postorder(document):
        if node is document:
            continue
        counter += 1
        node.xid = counter
    document.xid = DOCUMENT_XID
    return XidAllocator(counter + 1)


def max_xid(document: Document) -> int:
    """Largest XID present in the document (0 for an unlabelled tree)."""
    best = 0
    for node in postorder(document):
        if node.xid is not None and node.xid > best:
            best = node.xid
    return best


def has_xids(document: Document) -> bool:
    """Whether any node carries an XID above the document's own ``0``.

    The same test as ``max_xid(document) > 0``, but it stops at the
    first labelled node instead of walking the whole tree.
    """
    stack = [document]
    pop = stack.pop
    push_all = stack.extend
    while stack:
        node = pop()
        xid = node.xid
        if xid is not None and xid > 0:
            return True
        children = node.children
        if children:
            push_all(children)
    return False


def xid_index(document: Document) -> dict[int, Node]:
    """Map every labelled node of the document by its XID.

    Raises:
        DeltaError: if two nodes carry the same XID (corrupt labelling).
    """
    index: dict[int, Node] = {}
    for node in postorder(document):
        if node.xid is None:
            continue
        if node.xid in index:
            raise DeltaError(f"duplicate XID {node.xid} in document")
        index[node.xid] = node
    return index


def subtree_xids(node: Node) -> list[int]:
    """XIDs of the subtree rooted at ``node``, in postorder.

    Raises:
        DeltaError: if any node in the subtree is unlabelled.
    """
    xids = []
    for descendant in postorder(node):
        if descendant.xid is None:
            raise DeltaError("subtree contains a node without an XID")
        xids.append(descendant.xid)
    return xids


def format_xid_map(xids: Iterable[int]) -> str:
    """Render a postorder XID sequence compactly, e.g. ``(3-7;9;12-13)``.

    Consecutive ascending runs compress to ``first-last`` ranges.  An empty
    sequence renders as ``()``.
    """
    parts: list[str] = []
    run_start: Optional[int] = None
    previous: Optional[int] = None
    for xid in xids:
        if run_start is None:
            run_start = previous = xid
            continue
        if xid == previous + 1:
            previous = xid
            continue
        parts.append(_format_run(run_start, previous))
        run_start = previous = xid
    if run_start is not None:
        parts.append(_format_run(run_start, previous))
    return "(" + ";".join(parts) + ")"


def _format_run(start: int, end: int) -> str:
    return str(start) if start == end else f"{start}-{end}"


def parse_xid_map(text: str) -> list[int]:
    """Parse the output of :func:`format_xid_map` back to an XID list.

    Raises:
        DeltaError: on malformed input.
    """
    xids: list[int] = []
    for run in xid_map_runs(text):
        xids.extend(run)
    return xids


def xid_map_runs(text: str) -> list[range]:
    """The runs of an XID-map as ranges, in order, without expanding them.

    Raises:
        DeltaError: on malformed input.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    if not stripped:
        return []
    runs: list[range] = []
    for part in stripped.split(";"):
        first, dash, last = part.strip().partition("-")
        if not first.isdecimal() or (dash and not last.isdecimal()):
            raise DeltaError(f"malformed XID-map component {part!r}")
        start = int(first)
        end = int(last) if dash else start
        if end < start:
            raise DeltaError(f"descending XID range {part!r}")
        runs.append(range(start, end + 1))
    return runs


def xid_map_of(node: Node) -> str:
    """The XID-map string of the subtree rooted at ``node``."""
    return format_xid_map(subtree_xids(node))
