"""Completed deltas: the change representation of Section 4.

A delta is a *set* of elementary operations describing how one version of a
document becomes the next:

- :class:`Delete` — removal of a whole subtree;
- :class:`Insert` — insertion of a whole subtree;
- :class:`Update` — new value for a text / comment / PI node;
- :class:`Move` — relocation of a subtree, including reorderings among the
  children of a single parent;
- :class:`AttributeInsert` / :class:`AttributeDelete` /
  :class:`AttributeUpdate` — attribute changes, addressed by the owning
  element's XID plus the attribute name (attributes have no XIDs of their
  own: at most one per label and no meaningful order — Section 5.2,
  *Other XML features*).

Deltas are **completed**: every operation carries enough redundant
information (old *and* new values, full subtrees with their XID-maps, both
endpoints of each move) that the delta also describes the inverse
transformation.  That redundancy is what buys the nice algebra the paper
relies on — reconstruct any version from any neighbouring version, invert,
aggregate.

Position semantics (the documented contract the applier and builder share):

- ``Delete.position`` and ``Move.from_position`` are indices in the **old**
  document's original child list of the respective parent.
- ``Insert.position`` and ``Move.to_position`` are indices in the **new**
  document's final child list.

With all positions expressed in their document's *final* coordinates, the
applier can replay any delta deterministically: detach everything that
leaves (moves first, then deletes), then attach everything that arrives in
ascending final position per parent (see :mod:`repro.core.apply`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.xid import format_xid_map, subtree_xids
from repro.xmlkit.canonical import canonical_bytes
from repro.xmlkit.errors import DeltaError
from repro.xmlkit.model import Node

__all__ = [
    "AttributeDelete",
    "AttributeInsert",
    "AttributeUpdate",
    "Delete",
    "Delta",
    "Insert",
    "Move",
    "Operation",
    "Update",
]


class Operation:
    """Base class for delta operations."""

    kind = "operation"

    def inverted(self) -> "Operation":
        """The operation that undoes this one."""
        raise NotImplementedError

    def _identity(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


def _subtree_identity(subtree: Node) -> tuple:
    return (canonical_bytes(subtree), tuple(subtree_xids(subtree)))


class Delete(Operation):
    """Deletion of the subtree rooted at ``xid``.

    ``subtree`` is a detached, XID-labelled clone of the removed content —
    minus any descendant that *moved out* (those travel via their own
    :class:`Move` operations).  The clone makes the delta completed: the
    inverse operation can re-insert the exact content.
    """

    __slots__ = ("xid", "parent_xid", "position", "subtree")

    kind = "delete"

    def __init__(self, xid: int, parent_xid: int, position: int, subtree: Node):
        if subtree.xid != xid:
            raise DeltaError(
                f"delete subtree root has XID {subtree.xid}, expected {xid}"
            )
        self.xid = xid
        self.parent_xid = parent_xid
        self.position = position
        self.subtree = subtree

    @property
    def xid_map(self) -> str:
        return format_xid_map(subtree_xids(self.subtree))

    def inverted(self) -> "Insert":
        return Insert(self.xid, self.parent_xid, self.position, self.subtree)

    def _identity(self) -> tuple:
        return (
            "delete",
            self.xid,
            self.parent_xid,
            self.position,
            _subtree_identity(self.subtree),
        )

    def __repr__(self):
        return (
            f"Delete(xid={self.xid}, parent={self.parent_xid}, "
            f"pos={self.position}, map={self.xid_map})"
        )


class Insert(Operation):
    """Insertion of the subtree rooted at ``xid`` (same shape as Delete)."""

    __slots__ = ("xid", "parent_xid", "position", "subtree")

    kind = "insert"

    def __init__(self, xid: int, parent_xid: int, position: int, subtree: Node):
        if subtree.xid != xid:
            raise DeltaError(
                f"insert subtree root has XID {subtree.xid}, expected {xid}"
            )
        self.xid = xid
        self.parent_xid = parent_xid
        self.position = position
        self.subtree = subtree

    @property
    def xid_map(self) -> str:
        return format_xid_map(subtree_xids(self.subtree))

    def inverted(self) -> "Delete":
        return Delete(self.xid, self.parent_xid, self.position, self.subtree)

    def _identity(self) -> tuple:
        return (
            "insert",
            self.xid,
            self.parent_xid,
            self.position,
            _subtree_identity(self.subtree),
        )

    def __repr__(self):
        return (
            f"Insert(xid={self.xid}, parent={self.parent_xid}, "
            f"pos={self.position}, map={self.xid_map})"
        )


class Move(Operation):
    """Relocation of the subtree rooted at ``xid``.

    ``move(m, n, o, p, q)`` in the paper's notation: node ``o`` moves from
    being the ``n``-th child of ``m`` to being the ``q``-th child of ``p``.
    Intra-parent reorderings use ``from_parent_xid == to_parent_xid``.
    """

    __slots__ = (
        "xid",
        "from_parent_xid",
        "from_position",
        "to_parent_xid",
        "to_position",
    )

    kind = "move"

    def __init__(
        self,
        xid: int,
        from_parent_xid: int,
        from_position: int,
        to_parent_xid: int,
        to_position: int,
    ):
        self.xid = xid
        self.from_parent_xid = from_parent_xid
        self.from_position = from_position
        self.to_parent_xid = to_parent_xid
        self.to_position = to_position

    def inverted(self) -> "Move":
        return Move(
            self.xid,
            self.to_parent_xid,
            self.to_position,
            self.from_parent_xid,
            self.from_position,
        )

    def _identity(self) -> tuple:
        return (
            "move",
            self.xid,
            self.from_parent_xid,
            self.from_position,
            self.to_parent_xid,
            self.to_position,
        )

    def __repr__(self):
        return (
            f"Move(xid={self.xid}, from={self.from_parent_xid}"
            f"[{self.from_position}], to={self.to_parent_xid}"
            f"[{self.to_position}])"
        )


class Update(Operation):
    """Value change of a text, comment or processing-instruction node."""

    __slots__ = ("xid", "old_value", "new_value")

    kind = "update"

    def __init__(self, xid: int, old_value: str, new_value: str):
        self.xid = xid
        self.old_value = old_value
        self.new_value = new_value

    def inverted(self) -> "Update":
        return Update(self.xid, self.new_value, self.old_value)

    def _identity(self) -> tuple:
        return ("update", self.xid, self.old_value, self.new_value)

    def __repr__(self):
        return f"Update(xid={self.xid})"


class AttributeInsert(Operation):
    """A new attribute on an existing (matched) element.

    ``position`` is its index among the element's attributes after the
    change, kept only when it is not the last one; ``None`` appends it.
    Attribute order carries no meaning, but a version's bytes do.
    """

    __slots__ = ("xid", "name", "value", "position")

    kind = "attr-insert"

    def __init__(
        self, xid: int, name: str, value: str, position: Optional[int] = None
    ):
        self.xid = xid
        self.name = name
        self.value = value
        self.position = position

    def inverted(self) -> "AttributeDelete":
        return AttributeDelete(self.xid, self.name, self.value, self.position)

    def _identity(self) -> tuple:
        return ("attr-insert", self.xid, self.name, self.value, self.position)

    def __repr__(self):
        return f"AttributeInsert(xid={self.xid}, name={self.name!r})"


class AttributeDelete(Operation):
    """Removal of an attribute (old value retained for invertibility).

    ``position`` is its index among the element's attributes before the
    change, kept only when it was not the last one, so the inverse puts
    it back where it was.
    """

    __slots__ = ("xid", "name", "old_value", "position")

    kind = "attr-delete"

    def __init__(
        self,
        xid: int,
        name: str,
        old_value: str,
        position: Optional[int] = None,
    ):
        self.xid = xid
        self.name = name
        self.old_value = old_value
        self.position = position

    def inverted(self) -> "AttributeInsert":
        return AttributeInsert(
            self.xid, self.name, self.old_value, self.position
        )

    def _identity(self) -> tuple:
        return (
            "attr-delete", self.xid, self.name, self.old_value, self.position
        )

    def __repr__(self):
        return f"AttributeDelete(xid={self.xid}, name={self.name!r})"


class AttributeUpdate(Operation):
    """Value change of an attribute on a matched element."""

    __slots__ = ("xid", "name", "old_value", "new_value")

    kind = "attr-update"

    def __init__(self, xid: int, name: str, old_value: str, new_value: str):
        self.xid = xid
        self.name = name
        self.old_value = old_value
        self.new_value = new_value

    def inverted(self) -> "AttributeUpdate":
        return AttributeUpdate(self.xid, self.name, self.new_value, self.old_value)

    def _identity(self) -> tuple:
        return ("attr-update", self.xid, self.name, self.old_value, self.new_value)

    def __repr__(self):
        return f"AttributeUpdate(xid={self.xid}, name={self.name!r})"


class Delta:
    """An ordered collection of operations plus version bookkeeping.

    Attributes:
        operations: The elementary operations (order is not semantically
            significant — application groups and sorts as needed — but a
            stable order keeps serialization deterministic).
        base_version / target_version: Optional version labels maintained
            by the version store.
        next_xid_before / next_xid_after: The XID allocator state around
            this delta, letting a store resume allocation without rescans.
    """

    __slots__ = (
        "operations",
        "base_version",
        "target_version",
        "next_xid_before",
        "next_xid_after",
    )

    def __init__(
        self,
        operations: Optional[list[Operation]] = None,
        *,
        base_version: Optional[int] = None,
        target_version: Optional[int] = None,
        next_xid_before: Optional[int] = None,
        next_xid_after: Optional[int] = None,
    ):
        self.operations: list[Operation] = list(operations or [])
        self.base_version = base_version
        self.target_version = target_version
        self.next_xid_before = next_xid_before
        self.next_xid_after = next_xid_after

    # -- algebra ---------------------------------------------------------------

    def inverted(self) -> "Delta":
        """The delta transforming the new version back into the old one."""
        return Delta(
            [operation.inverted() for operation in self.operations],
            base_version=self.target_version,
            target_version=self.base_version,
            next_xid_before=self.next_xid_after,
            next_xid_after=self.next_xid_before,
        )

    # -- inspection --------------------------------------------------------------

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def is_empty(self) -> bool:
        return not self.operations

    def by_kind(self, kind: str) -> list[Operation]:
        """All operations of one kind (``"insert"``, ``"move"``, ...)."""
        return [op for op in self.operations if op.kind == kind]

    def summary(self) -> dict[str, int]:
        """Operation counts per kind; handy for logs and experiments."""
        counts: dict[str, int] = {}
        for operation in self.operations:
            counts[operation.kind] = counts.get(operation.kind, 0) + 1
        return counts

    def __eq__(self, other) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        # Set semantics: the paper defines a delta as a *set* of operations.
        return sorted(
            op._identity() for op in self.operations
        ) == sorted(op._identity() for op in other.operations)

    def __hash__(self):  # pragma: no cover - deltas are not meant as keys
        return hash(tuple(sorted(op._identity() for op in self.operations)))

    def __repr__(self):
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.summary().items())
        )
        return f"<Delta {summary or 'empty'}>"
