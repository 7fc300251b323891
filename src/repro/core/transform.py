"""Delta transformations: alternative representations of the same change.

The paper's conclusion suggests exploring "the benefits of intentionally
missing move operations for children that stay within the same parent" —
i.e. spending delta size (delete + insert) to save the work of computing
and applying moves.  This module implements those rewrites so the
trade-off can be measured instead of argued:

- :func:`moves_to_edits` — replace move operations by equivalent
  delete + insert pairs (all moves, or only intra-parent ones).  The
  rewritten delta transforms the same base into the same target; node
  *identity* is what changes: a converted subtree is reborn under fresh
  XIDs, exactly the information loss the paper's move support avoids.
- :func:`strip_metadata` — drop version bookkeeping for size comparisons.

The ABL table's ``moves-vs-edits`` row (``python -m benchmarks.report
ABL``) compares the delta sizes of both representations.
"""

from __future__ import annotations

from typing import Optional

from repro.core.delta import Delete, Delta, Insert, Move, Operation
from repro.core.xid import XidAllocator, max_xid, xid_index
from repro.xmlkit.errors import DeltaError
from repro.xmlkit.model import Document, postorder

__all__ = ["moves_to_edits", "strip_metadata"]


def moves_to_edits(
    delta: Delta,
    old_document: Document,
    *,
    allocator: Optional[XidAllocator] = None,
) -> Delta:
    """Rewrite move operations as delete + insert pairs.

    Args:
        delta: A delta applicable to ``old_document``.
        old_document: The base version (provides the moved subtrees'
            content, which a delete+insert representation must carry).
        allocator: XID source for the re-inserted subtrees; defaults to
            continuing after every XID visible in the document and delta.

    Returns:
        A new delta with the same effect on content.  Converted subtrees
        lose their persistent identity (fresh XIDs) — measurably worse
        for temporal queries, which is the paper's argument *for* moves.

    Raises:
        DeltaError: when a moved XID cannot be found in the old document.
    """
    index = xid_index(old_document)
    # Only *simple* moves convert safely: if any other operation touches a
    # node inside the moved subtree (an update to its text, a nested move,
    # an insert under it), delete+insert with fresh XIDs would break those
    # references.  Such moves stay moves.
    moves = [
        operation
        for operation in delta.by_kind("move")
        if _is_simple_move(operation, delta, index)
    ]
    if not moves:
        return Delta(
            list(delta.operations),
            base_version=delta.base_version,
            target_version=delta.target_version,
            next_xid_before=delta.next_xid_before,
            next_xid_after=delta.next_xid_after,
        )

    if allocator is None:
        top = max_xid(old_document)
        for operation in delta.operations:
            if operation.kind in ("delete", "insert"):
                for node in postorder(operation.subtree):
                    if node.xid is not None and node.xid > top:
                        top = node.xid
        allocator = XidAllocator(top + 1)

    converted: list[Operation] = []
    kept: list[Operation] = []
    move_set = {id(operation) for operation in moves}
    for operation in delta.operations:
        if id(operation) not in move_set:
            kept.append(operation)
    for operation in moves:
        node = index.get(operation.xid)
        if node is None:
            raise DeltaError(
                f"move {operation.xid}: node not found in the old document"
            )
        old_payload = node.clone(keep_xids=True)
        converted.append(
            Delete(
                operation.xid,
                operation.from_parent_xid,
                operation.from_position,
                old_payload,
            )
        )
        new_payload = node.clone(keep_xids=True)
        for reborn in postorder(new_payload):
            reborn.xid = allocator.allocate()
        converted.append(
            Insert(
                new_payload.xid,
                operation.to_parent_xid,
                operation.to_position,
                new_payload,
            )
        )
    return Delta(
        kept + converted,
        base_version=delta.base_version,
        target_version=delta.target_version,
        next_xid_before=delta.next_xid_before,
        next_xid_after=allocator.next_xid,
    )


def _is_simple_move(move: Move, delta: Delta, index) -> bool:
    node = index.get(move.xid)
    if node is None:
        return False
    subtree = {
        descendant.xid
        for descendant in postorder(node)
        if descendant.xid is not None
    }
    for operation in delta.operations:
        if operation is move:
            continue
        kind = operation.kind
        if kind in ("update", "attr-insert", "attr-delete", "attr-update"):
            if operation.xid in subtree:
                return False
        elif kind == "move":
            if (
                operation.xid in subtree
                or operation.to_parent_xid in subtree
                or operation.from_parent_xid in subtree
            ):
                return False
        elif kind == "insert":
            if operation.parent_xid in subtree:
                return False
        elif kind == "delete":
            if operation.xid in subtree or operation.parent_xid in subtree:
                return False
            # A move *out of* a region this delta deletes relies on the
            # moves-detach-first guarantee; converted to a delete it
            # would race the enclosing delete.  It must stay a move.
            payload = set(
                descendant.xid
                for descendant in postorder(operation.subtree)
                if descendant.xid is not None
            )
            if move.from_parent_xid in payload:
                return False
    return True


def strip_metadata(delta: Delta) -> Delta:
    """A copy of the delta without version/allocator bookkeeping."""
    return Delta(list(delta.operations))
