"""Applying, inverting and aggregating deltas.

Application contract (mirrors the position semantics documented in
:mod:`repro.core.delta`):

1. **Updates** (value and attribute changes) are applied first; they are
   addressed purely by XID and never affect positions.  New attributes
   go in after every attribute removal, in ascending position, so each
   lands at its recorded index (one without a position is appended).
2. **Detach phase** — everything that leaves its parent is detached:
   moves first (a subtree may move *out of* a region that is about to be
   deleted), then deletes.  Detaching is by XID, so ordering inside each
   group is irrelevant.
3. **Attach phase** — insert payloads are materialized (registering their
   XIDs), then all arrivals (inserted roots and moved nodes) are grouped by
   target parent and attached in ascending final position.  Because every
   arriving child of a parent is an attach operation and the remaining
   children keep their relative order, inserting at index = final position
   is exact (see the induction argument in the module docstring of
   :mod:`repro.core.delta`).

Backward application is forward application of the inverted delta — that is
the point of completed deltas.

**Aggregation** composes consecutive deltas.  Completed deltas are
XID-addressed, so once the base version is at hand the composition is exact
and heuristic-free: apply the chain, then *join the two versions on XIDs* —
nodes sharing an XID are the same persistent node — and rebuild a delta from
that perfect matching.  The result is guaranteed minimal-in-matching (it
never misses that a node survived) and is what the version store uses to
answer "what changed between version i and version j".
"""

from __future__ import annotations

from repro.core.builder import build_delta
from repro.core.delta import Delta
from repro.core.matching import Matching
from repro.core.xid import DOCUMENT_XID, xid_index
from repro.xmlkit.errors import ApplyError
from repro.xmlkit.model import Document, Node, postorder

__all__ = ["aggregate", "apply_backward", "apply_delta", "invert"]


def apply_delta(
    delta: Delta,
    document: Document,
    *,
    in_place: bool = False,
    verify: bool = False,
    lenient: bool = False,
) -> Document:
    """Apply a delta to (a clone of) its base document.

    Args:
        delta: The delta to replay.
        document: The base version; must carry the XIDs the delta refers to.
        in_place: Mutate ``document`` instead of cloning it.
        verify: Cross-check the redundant information of the completed
            delta against the document (old values of updates, content of
            deleted subtrees, source parents of moves).  Catches
            delta/document mismatches at a modest constant-factor cost.
        lenient: Clamp attach positions into the valid range instead of
            raising.  Used by the three-way merger, where the second
            delta's positions were computed against the base version and
            may be stale after the first delta moved things around.

    Returns:
        The new version.

    Raises:
        ApplyError: when the delta does not fit the document.
    """
    target = document if in_place else document.clone()
    if target.xid is None:
        target.xid = DOCUMENT_XID
    index = xid_index(target)

    _apply_value_operations(delta, index, verify, forward=True)

    # Detach phase: moves out first, then deletes.
    moves = delta.by_kind("move")
    deletes = delta.by_kind("delete")
    inserts = delta.by_kind("insert")

    moved_nodes: dict[int, Node] = {}
    for operation in moves:
        node = _lookup(index, operation.xid, "move")
        if verify:
            parent = node.parent
            if parent is None or parent.xid != operation.from_parent_xid:
                raise ApplyError(
                    f"move {operation.xid}: source parent mismatch"
                )
        node.detach()
        moved_nodes[operation.xid] = node

    for operation in deletes:
        node = _lookup(index, operation.xid, "delete")
        parent = node.parent
        if parent is None:
            raise ApplyError(f"delete {operation.xid}: node already detached")
        if verify and parent.xid != operation.parent_xid:
            raise ApplyError(f"delete {operation.xid}: parent mismatch")
        node.detach()
        if verify and not node.deep_equal(operation.subtree):
            raise ApplyError(
                f"delete {operation.xid}: document content does not match "
                "the recorded subtree"
            )
        for descendant in postorder(node):
            if descendant.xid is not None:
                index.pop(descendant.xid, None)

    # Materialize insert payloads and register their XIDs.
    insert_roots: dict[int, Node] = {}
    for operation in inserts:
        clone = operation.subtree.clone(keep_xids=True)
        for descendant in postorder(clone):
            if descendant.xid is None:
                raise ApplyError(
                    f"insert {operation.xid}: payload node without XID"
                )
            if descendant.xid in index:
                raise ApplyError(
                    f"insert {operation.xid}: XID {descendant.xid} already "
                    "present in the document"
                )
            index[descendant.xid] = descendant
        insert_roots[operation.xid] = clone

    # Attach phase: group all arrivals per parent, ascending final position.
    arrivals: dict[int, list[tuple[int, Node]]] = {}
    for operation in inserts:
        arrivals.setdefault(operation.parent_xid, []).append(
            (operation.position, insert_roots[operation.xid])
        )
    for operation in moves:
        arrivals.setdefault(operation.to_parent_xid, []).append(
            (operation.to_position, moved_nodes[operation.xid])
        )
    for parent_xid, batch in arrivals.items():
        parent = _lookup(index, parent_xid, "attach")
        if parent.kind not in ("element", "document"):
            raise ApplyError(
                f"attach target {parent_xid} is a {parent.kind} node"
            )
        batch.sort(key=lambda item: item[0])
        for position, node in batch:
            size = len(parent.children)
            if not 0 <= position <= size:
                if not lenient:
                    raise ApplyError(
                        f"attach position {position} out of range for parent "
                        f"{parent_xid} (currently {size} children)"
                    )
                position = max(0, min(position, size))
            if parent.kind == "element":
                parent.insert(position, node)
            else:
                parent.children.insert(position, node)
                node.parent = parent

    return target


def apply_backward(
    delta: Delta,
    document: Document,
    *,
    in_place: bool = False,
    verify: bool = False,
) -> Document:
    """Reconstruct the base version from the new version and the delta."""
    return apply_delta(
        delta.inverted(), document, in_place=in_place, verify=verify
    )


def invert(delta: Delta) -> Delta:
    """The inverse delta (alias for :meth:`Delta.inverted`)."""
    return delta.inverted()


def _apply_value_operations(delta, index, verify, forward):
    attribute_inserts = []
    for operation in delta.operations:
        kind = operation.kind
        if kind == "update":
            node = _lookup(index, operation.xid, "update")
            if node.kind not in ("text", "comment", "pi"):
                raise ApplyError(
                    f"update {operation.xid}: target is a {node.kind} node"
                )
            if verify and node.value != operation.old_value:
                raise ApplyError(
                    f"update {operation.xid}: old value mismatch"
                )
            node.value = operation.new_value
        elif kind == "attr-insert":
            attribute_inserts.append(operation)
        elif kind == "attr-delete":
            element = _element(index, operation.xid, kind)
            if operation.name not in element.attributes:
                raise ApplyError(
                    f"attr-delete {operation.xid}: {operation.name!r} missing"
                )
            if verify and element.attributes[operation.name] != operation.old_value:
                raise ApplyError(
                    f"attr-delete {operation.xid}: old value mismatch"
                )
            del element.attributes[operation.name]
        elif kind == "attr-update":
            element = _element(index, operation.xid, kind)
            if operation.name not in element.attributes:
                raise ApplyError(
                    f"attr-update {operation.xid}: {operation.name!r} missing"
                )
            if verify and element.attributes[operation.name] != operation.old_value:
                raise ApplyError(
                    f"attr-update {operation.xid}: old value mismatch"
                )
            element.set_attribute(operation.name, operation.new_value)
    attribute_inserts.sort(
        key=lambda op: (op.position is None, op.position or 0)
    )
    for operation in attribute_inserts:
        element = _element(index, operation.xid, "attr-insert")
        if verify and operation.name in element.attributes:
            raise ApplyError(
                f"attr-insert {operation.xid}: {operation.name!r} exists"
            )
        attributes = element.attributes
        if operation.position is None or operation.position >= len(attributes):
            element.set_attribute(operation.name, operation.value)
        else:
            items = list(attributes.items())
            items.insert(operation.position, (operation.name, operation.value))
            element.attributes = dict(items)


def _lookup(index: dict[int, Node], xid: int, context: str) -> Node:
    node = index.get(xid)
    if node is None:
        raise ApplyError(f"{context}: XID {xid} not found in document")
    return node


def _element(index, xid, context):
    node = _lookup(index, xid, context)
    if node.kind != "element":
        raise ApplyError(f"{context} {xid}: target is a {node.kind} node")
    return node


def aggregate(
    deltas: list[Delta],
    base_document: Document,
    *,
    verify: bool = False,
) -> Delta:
    """Compose consecutive deltas into one delta (base -> final version).

    Args:
        deltas: Deltas ``d1, d2, ..., dk`` such that ``d1`` applies to
            ``base_document``, ``d2`` to the result, and so on.
        base_document: The version ``d1`` applies to (the version store
            always has one at hand).
        verify: Forwarded to :func:`apply_delta` while replaying the chain.

    Returns:
        A single completed delta equivalent to applying the whole chain.
        Computed exactly — no diff heuristics — by joining the base and
        final versions on their persistent XIDs.
    """
    if not deltas:
        return Delta([])
    final_document = base_document
    for step, delta in enumerate(deltas):
        final_document = apply_delta(
            delta, final_document, in_place=step > 0, verify=verify
        )
    return delta_by_xid_join(base_document, final_document)


def delta_by_xid_join(
    old_document: Document, new_document: Document
) -> Delta:
    """Exact delta between two fully XID-labelled versions.

    Nodes sharing an XID are the same persistent node; joining on XIDs
    therefore yields a *perfect* matching and the delta builder does the
    rest.  Used by aggregation and by the change simulator's ground truth.
    """
    matching = Matching()
    new_by_xid = {
        node.xid: node
        for node in postorder(new_document)
        if node.xid is not None and node is not new_document
    }
    for node in postorder(old_document):
        if node is old_document or node.xid is None:
            continue
        partner = new_by_xid.get(node.xid)
        if partner is not None:
            matching.add(node, partner)
    return build_delta(
        old_document, new_document, matching, assign_new_xids=False
    )
