"""The matching between two document versions.

A matching is a partial one-to-one correspondence between nodes of the old
document and nodes of the new document.  Producing a good matching is "the
first role" of the diff (Section 1); everything else — XID inheritance,
delta construction — follows mechanically from it.

Validity rules enforced here:

- one-to-one: a node participates in at most one pair;
- kind-preserving: elements match elements, text matches text, ...;
- label-preserving: matched elements have equal labels (updates never
  relabel an element — that is a delete + insert);
- lock-respecting: a node locked by the ID-attribute phase (it carries an
  ID whose value does not exist on the other side) can never be matched.

**Settled regions.**  :meth:`Matching.add_identical` pairs two subtrees
whose exact subtree numbers are equal (Phase 3) without checking kind
and label node by node, and copies each old XID onto its new partner.
When every node of the pair of subtrees was free, the region is
*settled*: its interior holds no update, delete, insert or move, so
Phase 4's walks and the delta builder skip it (:func:`pruned_preorder`,
:func:`pruned_postorder` and :meth:`Matching.loose_pairs`).  The two
region roots are ordinary pairs: each may still have moved as a child
of its parent.  A matching that was never given an identical pair
(other engines, aggregation) or that reports to a provenance recorder
has no settled region, and every walk covers the whole tree.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.xmlkit.model import Node, postorder, preorder

__all__ = ["Matching", "MatchingError", "pruned_postorder", "pruned_preorder"]


class MatchingError(ValueError):
    """Raised on an attempt to create an invalid matching pair."""


class Matching:
    """Bidirectional node correspondence between an old and a new tree.

    An optional *recorder* (see :mod:`repro.obs.provenance`) is notified
    after every accepted :meth:`add` and :meth:`lock`, and of every pair
    :meth:`add_identical` makes.  Recording is
    observational only — the recorder cannot veto or alter a pair — and
    with the default ``recorder=None`` the mutation paths are exactly
    the unrecorded ones.

    The point queries are the containers' own bound methods, so the hot
    loops of every phase call them without a Python frame (the
    containers are never replaced, so the bindings stay valid):

    - ``has_old(old)`` / ``has_new(new)``: whether the node is matched;
    - ``is_locked(node)``: whether the ID-attribute phase locked it;
    - ``new_of(old)`` / ``old_of(new)``: the partner, or ``None``.
    """

    __slots__ = (
        "_old_to_new",
        "_new_to_old",
        "_locked",
        "_recorder",
        "_interiors",
        "settled_old",
        "settled_new",
        "settled_nodes",
        "has_old",
        "has_new",
        "is_locked",
        "new_of",
        "old_of",
    )

    def __init__(self, recorder=None):
        self._old_to_new: dict[Node, Node] = {}
        self._new_to_old: dict[Node, Node] = {}
        self._locked: set[Node] = set()
        self._recorder = recorder
        self.has_old = self._old_to_new.__contains__
        self.has_new = self._new_to_old.__contains__
        self.is_locked = self._locked.__contains__
        self.new_of = self._old_to_new.get
        self.old_of = self._new_to_old.get
        #: ``(first, count)`` per settled region: the pairs of its
        #: interior sit at insertion positions ``first .. first+count-1``.
        self._interiors: list[tuple[int, int]] = []
        #: Old and new roots of the settled regions.
        self.settled_old: set[Node] = set()
        self.settled_new: set[Node] = set()
        #: Pairs inside settled regions, their roots not counted.
        self.settled_nodes = 0

    # -- mutation ------------------------------------------------------------

    def add(self, old: Node, new: Node) -> None:
        """Record the pair ``old <-> new``.

        Raises:
            MatchingError: if either node is already matched or locked, or
                the pair violates kind/label preservation.
        """
        if old.kind != new.kind:
            raise MatchingError(
                f"cannot match {old.kind} with {new.kind}"
            )
        if old.kind == "element" and old.label != new.label:
            raise MatchingError(
                f"cannot match element {old.label!r} with {new.label!r}"
            )
        if old.kind == "pi" and old.target != new.target:
            raise MatchingError("cannot match processing instructions with "
                                f"targets {old.target!r} and {new.target!r}")
        if old in self._old_to_new:
            raise MatchingError("old node is already matched")
        if new in self._new_to_old:
            raise MatchingError("new node is already matched")
        if old in self._locked or new in self._locked:
            raise MatchingError("node is locked by the ID-attribute phase")
        self._old_to_new[old] = new
        self._new_to_old[new] = old
        if self._recorder is not None:
            self._recorder.record_match(old, new)

    def add_identical(self, old_root: Node, new_root: Node) -> None:
        """Pair two identical subtrees node by node, copying XIDs.

        The caller guarantees that the subtrees are identical (equal
        exact subtree numbers), so kind, label and shape are not checked
        again.  A node already matched or locked is skipped together
        with its subtree, exactly as :meth:`add` pairs would be refused;
        the resulting holes surface later as moves.  With no node
        skipped and more than one pair, the region is settled (module
        docstring).  Pairs are added in the order the stack of a
        per-node :meth:`add` loop would add them.  A recorder hears of
        every pair, and then no region is settled: its report covers
        the pairs of every walk.
        """
        old_to_new = self._old_to_new
        new_to_old = self._new_to_old
        locked = self._locked
        recorder = self._recorder
        first = len(old_to_new)
        complete = True
        stack = [(old_root, new_root)]
        pop = stack.pop
        push_all = stack.extend
        while stack:
            old, new = pop()
            if (
                old in old_to_new
                or new in new_to_old
                or (locked and (old in locked or new in locked))
            ):
                complete = False
                continue
            old_to_new[old] = new
            new_to_old[new] = old
            new.xid = old.xid
            if recorder is not None:
                recorder.record_match(old, new)
            children = old.children
            if children:
                push_all(zip(children, new.children))
        interior = len(old_to_new) - first - 1
        if complete and interior and recorder is None:
            self._interiors.append((first + 1, interior))
            self.settled_old.add(old_root)
            self.settled_new.add(new_root)
            self.settled_nodes += interior

    def lock(self, node: Node) -> None:
        """Forbid the node from ever being matched (ID-attribute rule)."""
        if node in self._old_to_new or node in self._new_to_old:
            raise MatchingError("cannot lock a matched node")
        self._locked.add(node)
        if self._recorder is not None:
            self._recorder.record_lock(node)

    # -- queries -------------------------------------------------------------

    def can_match(self, old: Node, new: Node) -> bool:
        """Whether :meth:`add` would accept the pair."""
        if old.kind != new.kind:
            return False
        if old.kind == "element" and old.label != new.label:
            return False
        if old.kind == "pi" and old.target != new.target:
            return False
        if old in self._old_to_new or new in self._new_to_old:
            return False
        if old in self._locked or new in self._locked:
            return False
        return True

    def pairs(self) -> Iterator[tuple[Node, Node]]:
        """Iterate over all ``(old, new)`` pairs (insertion order)."""
        return iter(self._old_to_new.items())

    def loose_pairs(self) -> Iterator[tuple[Node, Node]]:
        """The pairs outside settled interiors, in insertion order.

        Settled region roots are included.  Without a settled region
        this is :meth:`pairs`.
        """
        if not self._interiors:
            return iter(self._old_to_new.items())
        return self._skip_interiors()

    def _skip_interiors(self) -> Iterator[tuple[Node, Node]]:
        items = iter(self._old_to_new.items())
        position = 0
        for first, count in self._interiors:
            yield from islice(items, first - position)
            # Consume the interior's pairs without yielding them.
            next(islice(items, count, count), None)
            position = first + count
        yield from items

    def __len__(self) -> int:
        return len(self._old_to_new)

    def __repr__(self):
        return f"<Matching pairs={len(self)} locked={len(self._locked)}>"


def pruned_preorder(root: Node, skip: set) -> Iterator[Node]:
    """Pre-order over ``root``'s subtree without the subtrees of ``skip``.

    A node in ``skip`` is left out together with its descendants; with
    an empty ``skip`` this is :func:`~repro.xmlkit.model.preorder`.
    """
    if not skip:
        yield from preorder(root)
        return
    stack = [root]
    pop = stack.pop
    push_all = stack.extend
    while stack:
        node = pop()
        if node in skip:
            continue
        yield node
        children = node.children
        if children:
            push_all(reversed(children))


def pruned_postorder(root: Node, skip: set) -> list[Node]:
    """Post-order over ``root``'s subtree without the subtrees of ``skip``.

    Like :func:`pruned_preorder`, as a list built before the caller
    sees it.
    """
    if not skip:
        return postorder(root)
    order = []
    visit = order.append
    stack = [root]
    pop = stack.pop
    push_all = stack.extend
    while stack:
        node = pop()
        if node in skip:
            continue
        visit(node)
        children = node.children
        if children:
            push_all(children)
    order.reverse()
    return order
