"""Delta construction from a matching (Phase 5 of the paper).

Given two documents and a matching between their nodes, this module derives
the complete set of operations:

1. **Inserts / Deletes / Updates** — maximal unmatched subtrees become
   insert or delete operations (with XID-labelled subtree payloads, holes
   where matched descendants moved across the boundary); matched leaf nodes
   whose value changed become updates; matched elements contribute
   attribute operations.
2. **Moves** — matched nodes whose parents do not match each other moved
   across parents; among children that stayed with the same parent, a
   heaviest order-preserving subsequence is kept in place and the remaining
   children become intra-parent moves (see :mod:`repro.core.moves`).
3. The operations are emitted in a deterministic order and wrapped in a
   :class:`~repro.core.delta.Delta`.

The builder is deliberately independent of *how* the matching was obtained:
the BULD algorithm uses it, the baselines can use it, and delta
*aggregation* uses it with the trivial "same XID" matching.  Only the
matching's settled regions (see :mod:`repro.core.matching`) change how
much it walks: their interiors carry no operation and already carry
their XIDs, so every pass skips them and iterates the loose pairs.  A
matching without settled regions is walked whole.
"""

from __future__ import annotations

from typing import Optional

from repro.core.delta import (
    AttributeDelete,
    AttributeInsert,
    AttributeUpdate,
    Delete,
    Delta,
    Insert,
    Move,
    Operation,
    Update,
)
from repro.core.matching import Matching, pruned_postorder, pruned_preorder
from repro.core.moves import (
    DEFAULT_BLOCK_LENGTH,
    chunked_increasing_subsequence,
    heaviest_increasing_subsequence,
)
from repro.core.xid import (
    DOCUMENT_XID,
    XidAllocator,
    assign_initial_xids,
    has_xids,
    max_xid,
)
from repro.xmlkit.errors import DeltaError
from repro.xmlkit.model import Document, Node, postorder, preorder

__all__ = ["build_delta"]


def build_delta(
    old_document: Document,
    new_document: Document,
    matching: Matching,
    *,
    allocator: Optional[XidAllocator] = None,
    assign_new_xids: bool = True,
    weights: Optional[dict[Node, float]] = None,
    exact_move_threshold: int = DEFAULT_BLOCK_LENGTH,
    move_block_length: int = DEFAULT_BLOCK_LENGTH,
) -> Delta:
    """Derive the delta implied by a matching.

    Args:
        old_document: The base version.  Must carry XIDs on every node
            (assign with :func:`~repro.core.xid.assign_initial_xids`); if
            completely unlabelled, initial postorder XIDs are assigned here.
        new_document: The target version.  With ``assign_new_xids`` (the
            default) its nodes receive XIDs: matched nodes inherit their
            partner's, unmatched nodes draw fresh ones from ``allocator``.
        matching: Node correspondence; the document nodes are matched
            implicitly if the caller did not do so.
        allocator: XID source for inserted nodes; defaults to
            ``max_xid(old) + 1`` onwards.
        assign_new_xids: Pass ``False`` when the new document already
            carries correct XIDs (e.g. during delta aggregation).
        weights: Optional node -> weight map (new-document nodes) steering
            which children the move detector keeps in place; defaults to
            subtree sizes.
        exact_move_threshold: Child-list length up to which the exact
            heaviest-increasing-subsequence is used; longer lists use the
            paper's chunked heuristic.
        move_block_length: Block length of the chunked heuristic.

    Returns:
        The completed :class:`Delta` transforming old into new.
    """
    settled_new = matching.settled_new
    if old_document.xid is None and not has_xids(old_document):
        assign_initial_xids(old_document)
        # Settled regions copied the labels the old tree had before.
        settled_new = set()
    old_document.xid = DOCUMENT_XID
    new_document.xid = DOCUMENT_XID
    if matching.old_of(new_document) is None:
        matching.add(old_document, new_document)

    if assign_new_xids:
        if allocator is None:
            allocator = XidAllocator(max_xid(old_document) + 1)
        next_xid_before = allocator.next_xid
        _assign_new_document_xids(
            new_document, matching, allocator, settled_new
        )
        next_xid_after = allocator.next_xid
    else:
        next_xid_before = next_xid_after = None
        _check_new_document_xids(new_document)

    operations: list[Operation] = []
    operations.extend(_update_operations(matching))
    operations.extend(_delete_operations(old_document, matching))
    operations.extend(_insert_operations(new_document, matching))
    operations.extend(
        _move_operations(
            old_document,
            new_document,
            matching,
            weights,
            exact_move_threshold,
            move_block_length,
        )
    )

    return Delta(
        operations,
        next_xid_before=next_xid_before,
        next_xid_after=next_xid_after,
    )


# ---------------------------------------------------------------------------
# XID management
# ---------------------------------------------------------------------------


def _assign_new_document_xids(
    new_document: Document,
    matching: Matching,
    allocator: XidAllocator,
    settled_new: set,
) -> None:
    for node in pruned_postorder(new_document, settled_new):
        if node is new_document:
            continue
        partner = matching.old_of(node)
        if partner is not None:
            if partner.xid is None:
                raise DeltaError("matched old node has no XID")
            node.xid = partner.xid
        else:
            node.xid = allocator.allocate()


def _check_new_document_xids(new_document: Document) -> None:
    for node in preorder(new_document):
        if node is not new_document and node.xid is None:
            raise DeltaError(
                "assign_new_xids=False requires a fully XID-labelled "
                "new document"
            )


# ---------------------------------------------------------------------------
# Updates and attribute operations
# ---------------------------------------------------------------------------


def _update_operations(matching: Matching) -> list[Operation]:
    operations: list[Operation] = []
    for old, new in matching.loose_pairs():
        kind = old.kind
        if kind in ("text", "comment", "pi"):
            if old.value != new.value:
                operations.append(Update(old.xid, old.value, new.value))
        elif kind == "element":
            if old.attributes != new.attributes:
                operations.extend(_attribute_operations(old, new))
    return operations


def _attribute_operations(old, new) -> list[Operation]:
    operations: list[Operation] = []
    old_attributes = old.attributes
    new_attributes = new.attributes
    for name in old_attributes:
        if name not in new_attributes:
            operations.append(
                AttributeDelete(old.xid, name, old_attributes[name])
            )
        elif old_attributes[name] != new_attributes[name]:
            operations.append(
                AttributeUpdate(
                    old.xid, name, old_attributes[name], new_attributes[name]
                )
            )
    for name in new_attributes:
        if name not in old_attributes:
            operations.append(
                AttributeInsert(old.xid, name, new_attributes[name])
            )
    return operations


# ---------------------------------------------------------------------------
# Deletes and inserts (maximal unmatched subtrees, with move holes)
# ---------------------------------------------------------------------------


def _clone_excluding_matched(root: Node, is_matched) -> Node:
    """Clone ``root``'s subtree, skipping matched descendants entirely.

    Matched descendants inside an unmatched region travel via their own
    move operations; the recorded payload keeps a hole where they were.
    """
    clone_root = root._shallow_clone(True)
    stack = [(root, clone_root)]
    while stack:
        original, clone = stack.pop()
        for child in original.children:
            if is_matched(child):
                continue
            child_clone = clone.append(child._shallow_clone(True))
            stack.append((child, child_clone))
    return clone_root


def _delete_operations(
    old_document: Document, matching: Matching
) -> list[Operation]:
    operations: list[Operation] = []
    positions = _PositionCache()
    for node in pruned_preorder(old_document, matching.settled_old):
        if node is old_document or matching.has_old(node):
            continue
        parent = node.parent
        if not matching.has_old(parent):
            continue  # not maximal: an ancestor's delete covers it
        subtree = _clone_excluding_matched(node, matching.has_old)
        operations.append(
            Delete(node.xid, parent.xid, positions.position(node), subtree)
        )
    return operations


def _insert_operations(
    new_document: Document, matching: Matching
) -> list[Operation]:
    operations: list[Operation] = []
    positions = _PositionCache()
    for node in pruned_preorder(new_document, matching.settled_new):
        if node is new_document or matching.has_new(node):
            continue
        parent = node.parent
        if not matching.has_new(parent):
            continue
        subtree = _clone_excluding_matched(node, matching.has_new)
        operations.append(
            Insert(node.xid, parent.xid, positions.position(node), subtree)
        )
    return operations


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


class _PositionCache:
    """Per-parent child position maps, built lazily and at most once."""

    __slots__ = ("_cache",)

    def __init__(self):
        self._cache: dict[Node, dict[Node, int]] = {}

    def position(self, node: Node) -> int:
        parent = node.parent
        positions = self._cache.get(parent)
        if positions is None:
            positions = {
                child: index for index, child in enumerate(parent.children)
            }
            self._cache[parent] = positions
        return positions[node]


def _move_operations(
    old_document: Document,
    new_document: Document,
    matching: Matching,
    weights: Optional[dict[Node, float]],
    exact_move_threshold: int,
    move_block_length: int,
) -> list[Operation]:
    operations: list[Operation] = []
    old_positions = _PositionCache()
    new_positions_cache = _PositionCache()
    if weights is None:
        weights = _subtree_sizes(new_document)

    # Inter-parent moves: matched nodes whose parents do not correspond.
    for old, new in matching.loose_pairs():
        if old.kind == "document":
            continue
        old_parent = old.parent
        new_parent = new.parent
        if matching.new_of(old_parent) is not new_parent:
            operations.append(
                Move(
                    old.xid,
                    old_parent.xid,
                    old_positions.position(old),
                    new_parent.xid,
                    new_positions_cache.position(new),
                )
            )

    # Intra-parent moves: reordered children of corresponding parents.
    # A settled region root's children are all in place.
    settled_new = matching.settled_new
    new_of = matching.new_of
    for old_parent, new_parent in matching.loose_pairs():
        if not old_parent.children or new_parent in settled_new:
            continue
        new_positions = {
            child: index for index, child in enumerate(new_parent.children)
        }
        stable: list[tuple[Node, Node, int, int]] = []  # old, new, old_pos, new_pos
        for old_position, child in enumerate(old_parent.children):
            partner = new_of(child)
            # A partner under another parent moved there (emitted above).
            new_position = new_positions.get(partner)
            if new_position is not None:
                stable.append((child, partner, old_position, new_position))
        if len(stable) < 2:
            continue
        values = [entry[3] for entry in stable]
        if all(left < right for left, right in zip(values, values[1:])):
            # Already in order: every weight is >= 1, so the whole
            # sequence is the unique heaviest one and nothing moves.
            continue
        entry_weights = [weights.get(entry[1], 1.0) for entry in stable]
        if len(stable) <= exact_move_threshold:
            _, kept = heaviest_increasing_subsequence(values, entry_weights)
        else:
            _, kept = chunked_increasing_subsequence(
                values, entry_weights, move_block_length
            )
        kept_set = set(kept)
        for index, (child, partner, old_position, new_position) in enumerate(stable):
            if index in kept_set:
                continue
            operations.append(
                Move(
                    child.xid,
                    old_parent.xid,
                    old_position,
                    new_parent.xid,
                    new_position,
                )
            )
    return operations


def _subtree_sizes(document: Document) -> dict[Node, int]:
    """Every node's subtree size, from one postorder pass."""
    sizes: dict[Node, int] = {}
    for node in postorder(document):
        size = 1
        for child in node.children:
            size += sizes[child]
        sizes[node] = size
    return sizes
