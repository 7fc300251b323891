"""The paper's change simulator (Section 6.1), rebuilt faithfully.

The simulator applies controlled random changes to a document and returns
both versions, XID-labelled, from which
:meth:`SimulationResult.perfect_delta` builds the **perfect delta** — the
ground truth the diff's output is compared against in the quality
experiments (Figure 5).  Most callers only want the new version, so the
ground truth is built only on request.

The three phases follow the paper:

1. **[delete]** — every node is deleted, with its entire subtree, with the
   configured probability (nested selections collapse into the outermost).
   Deleted subtrees go into a pool from which later *moves* draw.
2. **[update]** — each surviving text node is updated with fresh "original"
   text built from a word corpus plus a counter.  Because the first phase
   shrank the document, the probability is recomputed to compensate
   (``p' = p · n_original / n_remaining``), exactly as the paper notes.
3. **[insert/move]** — surviving elements receive a new child with the
   (compensated) insert+move probability.  With the move share, the child
   is a previously deleted subtree — which the ground truth then records
   as a *move*; otherwise it is original data.  Inserted data respects the
   document's style: element labels are copied from a sibling, cousin or
   ancestor (preserving the label distribution, "one of the specificities
   of XML trees"), and a text node is never inserted next to another text
   node (the two would merge on reparse).

The ground truth needs no bookkeeping: the simulator works on a clone that
keeps persistent XIDs, so joining the versions on XIDs yields the exact
edit script (:func:`repro.core.apply.delta_by_xid_join`).  That join is
only exact while both versions keep the simulator's labels: diffing a
version relabels the XIDs of its new side, so take the perfect delta
first, or diff clones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.apply import delta_by_xid_join
from repro.core.delta import Delta
from repro.core.xid import (
    DOCUMENT_XID,
    XidAllocator,
    assign_initial_xids,
    max_xid,
)
from repro.simulator.words import make_text
from repro.xmlkit.model import Document, Element, Node, Text, postorder, preorder

__all__ = ["SimulationResult", "SimulatorConfig", "simulate_changes"]


@dataclass
class SimulatorConfig:
    """Per-node change probabilities (the paper's experiments use 10% each).

    Attributes:
        delete_probability: Chance a node (and its subtree) is deleted.
        update_probability: Chance a surviving text node is updated.
        insert_probability: Chance a surviving element receives new data.
        move_probability: Chance a surviving element receives a previously
            deleted subtree instead (a move in the ground truth).
        seed: RNG seed; simulations are fully deterministic.
    """

    delete_probability: float = 0.1
    update_probability: float = 0.1
    insert_probability: float = 0.1
    move_probability: float = 0.1
    seed: int = 0

    def validate(self) -> "SimulatorConfig":
        for name in (
            "delete_probability",
            "update_probability",
            "insert_probability",
            "move_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        return self


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        old_document: The input document, XID-labelled (it is labelled in
            place if it was not already).
        new_document: The mutated clone, fully XID-labelled; nodes it
            shares with ``old_document`` carry the same XIDs.
        counts: Performed operations: ``deleted_subtrees``,
            ``deleted_nodes``, ``updates``, ``inserts``, ``moves``.
    """

    old_document: Document
    new_document: Document
    counts: dict[str, int] = field(default_factory=dict)

    def perfect_delta(self) -> Delta:
        """The exact ground-truth delta old -> new, built on every call.

        Call it before either document changes: the delta is a join on
        XIDs, and a diff relabels the XIDs of its new side.
        """
        return delta_by_xid_join(self.old_document, self.new_document)


def simulate_changes(
    document: Document, config: SimulatorConfig | None = None
) -> SimulationResult:
    """Apply random changes to (a clone of) ``document``.

    The input document itself is never structurally modified; it only
    receives initial XIDs when it has none yet.  No delta is built here:
    :meth:`SimulationResult.perfect_delta` builds the ground truth when
    a caller asks for it.
    """
    if config is None:
        config = SimulatorConfig()
    config.validate()
    rng = random.Random(config.seed)

    if max_xid(document) == 0:
        assign_initial_xids(document)
    document.xid = DOCUMENT_XID  # the clone inherits it
    allocator = XidAllocator(max_xid(document) + 1)

    working = document.clone()
    counts = {
        "deleted_subtrees": 0,
        "deleted_nodes": 0,
        "updates": 0,
        "inserts": 0,
        "moves": 0,
    }

    original_count = working.subtree_size() - 1  # sans document node

    deleted_pool = _phase_delete(working, config, rng, counts)
    remaining_count = working.subtree_size() - 1
    compensation = (
        original_count / remaining_count if remaining_count else 1.0
    )

    counter = _phase_update(working, config, rng, counts, compensation)
    _phase_insert_move(
        working,
        config,
        rng,
        counts,
        compensation,
        deleted_pool,
        allocator,
        counter,
    )

    return SimulationResult(
        old_document=document, new_document=working, counts=counts
    )


def _phase_delete(working, config, rng, counts) -> list[Node]:
    """Delete random subtrees; return them as the pool for later moves.

    One pre-order walk that does not enter a deleted subtree: every other
    node below the root element draws once, in document order.
    """
    pool: list[Node] = []
    if config.delete_probability <= 0:
        return pool
    root = working.root
    stack = list(reversed(working.children))
    while stack:
        node = stack.pop()
        if node is not root and rng.random() < config.delete_probability:
            if not _deletion_leaves_adjacent_text(node):
                counts["deleted_subtrees"] += 1
                counts["deleted_nodes"] += node.subtree_size()
                node.detach()
                pool.append(node)
                continue
            # removing this node would leave two text siblings touching —
            # not XML-representable; the paper's simulator avoids
            # merged-on-reparse data, so we skip this pick.
        children = node.children
        if children:
            stack.extend(reversed(children))
    return pool


def _deletion_leaves_adjacent_text(node: Node) -> bool:
    siblings = node.parent.children
    position = next(
        index for index, child in enumerate(siblings) if child is node
    )
    before = siblings[position - 1] if position > 0 else None
    after = siblings[position + 1] if position + 1 < len(siblings) else None
    return (
        before is not None
        and after is not None
        and before.kind == "text"
        and after.kind == "text"
    )


def _phase_update(working, config, rng, counts, compensation) -> int:
    counter = 0
    probability = min(config.update_probability * compensation, 1.0)
    if probability <= 0:
        return counter
    for node in postorder(working):
        if node.kind != "text":
            continue
        if rng.random() < probability:
            counter += 1
            counts["updates"] += 1
            node.value = make_text(rng, 2, 10, counter)
    return counter


def _phase_insert_move(
    working,
    config,
    rng,
    counts,
    compensation,
    deleted_pool,
    allocator,
    counter,
):
    insert_p = min(config.insert_probability * compensation, 1.0)
    move_p = min(config.move_probability * compensation, 1.0)
    total_p = min(insert_p + move_p, 1.0)
    if total_p <= 0:
        return
    move_share = move_p / (insert_p + move_p) if insert_p + move_p else 0.0

    elements = [
        node
        for node in preorder(working)
        if node.kind == "element"
    ]
    for element in elements:
        if rng.random() >= total_p:
            continue
        position = rng.randint(0, len(element.children))
        wants_move = deleted_pool and rng.random() < move_share
        if wants_move:
            subtree = deleted_pool.pop(rng.randrange(len(deleted_pool)))
            if subtree.kind == "text" and _text_adjacent(element, position):
                deleted_pool.append(subtree)  # cannot place it here
                continue
            element.insert(position, subtree)
            counts["moves"] += 1
        else:
            child = _make_original_child(
                element, position, rng, allocator, counter + counts["inserts"]
            )
            if child is None:
                continue
            element.insert(position, child)
            counts["inserts"] += 1


def _text_adjacent(element: Element, position: int) -> bool:
    children = element.children
    before = children[position - 1] if position > 0 else None
    after = children[position] if position < len(children) else None
    return (before is not None and before.kind == "text") or (
        after is not None and after.kind == "text"
    )


def _make_original_child(element, position, rng, allocator, counter):
    """Create fresh data matching the document's local style."""
    insert_text = rng.random() < 0.5 and not _text_adjacent(element, position)
    if insert_text:
        node = Text(make_text(rng, 2, 8, counter))
        node.xid = allocator.allocate()
        return node
    label = _copy_label(element, rng)
    if label is None:
        return None
    child = Element(label)
    child.xid = None  # assigned after the text child for postorder order
    text = Text(make_text(rng, 1, 6, counter))
    text.xid = allocator.allocate()
    child.append(text)
    child.xid = allocator.allocate()
    return child


def _copy_label(element: Element, rng) -> str | None:
    """Label from a sibling, cousin, or ancestor — preserving distribution."""
    # siblings (children of this element)
    labels = [c.label for c in element.children if c.kind == "element"]
    if not labels and element.parent is not None:
        # cousins: element children of the parent (and of grandparent)
        parent = element.parent
        labels = [
            c.label
            for c in parent.children
            if c.kind == "element" and c is not element
        ]
        if not labels and parent.parent is not None:
            labels = [
                c.label
                for c in parent.parent.children
                if c.kind == "element"
            ]
    if not labels:
        # ancestors
        labels = [
            ancestor.label
            for ancestor in element.ancestors()
            if ancestor.kind == "element"
        ]
    if not labels:
        labels = [element.label]
    return rng.choice(labels) if labels else None
