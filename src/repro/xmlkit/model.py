"""Ordered-tree document model for XML.

This is the in-memory representation every other part of the library works
on.  It mirrors the simple model of the paper (Section 4): ordered trees
whose nodes carry a *value* — a label plus attributes for element nodes, a
character string for text nodes — and, once a document has been versioned,
a persistent identifier (XID) per node.

The model is deliberately small and explicit:

- :class:`Element` — label, attribute map, ordered children; most
  elements have no attributes or no children, so both containers are
  allocated on the first write.
- :class:`Text` — character data leaf.
- :class:`Comment` / :class:`ProcessingInstruction` — carried through
  faithfully but treated like opaque leaves by the diff.
- :class:`Document` — the tree root container; also records which
  ``(element label, attribute name)`` pairs the DTD declared as ``ID``,
  which BULD Phase 1 consumes.

A tree is owned top-down: a parent holds its children strongly, and a
child reaches its parent through a weak back-link (``parent`` reads it).
A dropped tree is therefore no reference cycle; reference counting frees
it at once instead of leaving it to the cycle collector.  The rule that
follows: keep a node's document (or the root of its detached subtree)
for as long as you walk upward from the node.  Once the tree above it is
dropped, ``parent`` reads ``None`` and the node acts as a detached root;
``orphaned`` tells it apart from a detached node, and the path helpers
raise on it instead of returning a shortened path.

``children`` is a plain slot on elements and documents, and a class
attribute holding the shared empty tuple on every leaf, so reading it
costs no call.  Write children only through :meth:`Element.append`,
:meth:`Element.insert`, :meth:`Element.remove` and :meth:`Node.detach`
(or :meth:`Document.append`): they keep the weak back-links right.
A parsed or cloned element stores its children as one exact-size
tuple; the first structural write (:meth:`Element.insert`,
:meth:`Node.detach`, :func:`coalesce_text`) turns it into the element's
own list.  Every node also carries an optional integer ``xid``
(persistent identifier).
Traversals are iterative so arbitrarily deep trees never hit Python's
recursion limit.

Because a tree holds no reference cycle, the cycle collector has
nothing to find in one, yet every node allocated counts towards its
next run, and each run over the oldest generation walks every live
node.  Code that builds trees in bulk (the parser, :meth:`Node.clone`,
the simulator) therefore runs inside :func:`bulk`, which pauses the
collector while it works.
"""

from __future__ import annotations

import gc
import threading
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence
from weakref import ref

__all__ = [
    "Comment",
    "Document",
    "Element",
    "Node",
    "ProcessingInstruction",
    "Text",
    "bulk",
    "coalesce_text",
    "normalized_size",
    "postorder",
    "preorder",
]


class _Gone:
    __slots__ = ("__weakref__",)


#: The back-link of a detached node: a weak reference whose target is
#: already gone, so calling it returns ``None`` like any dead link.
_NO_PARENT = ref(_Gone())

# Shared by every node that has none: an immutable empty child sequence
# and a read-only empty attribute mapping.  A write through either raises
# instead of changing every other node that shares it.
_NO_CHILDREN: tuple = ()
_NO_ATTRIBUTES: Mapping[str, str] = MappingProxyType({})

# Allocates a node without running its constructor; clone() fills the
# slots itself.
_new = object.__new__


class _CollectorPause:
    """The process-wide state behind :func:`bulk`.

    ``depth`` counts the scopes open in any thread.  The first entry
    records whether the collector was enabled and disables it; the last
    exit restores exactly that state.  Scopes that overlap in several
    threads therefore never re-enable the collector under each other,
    and a caller that had switched the collector off finds it off.
    """

    __slots__ = ("depth", "was_enabled", "lock")

    def __init__(self):
        self.depth = 0
        self.was_enabled = False
        self.lock = threading.Lock()

    def __enter__(self) -> None:
        with self.lock:
            if not self.depth:
                self.was_enabled = gc.isenabled()
                gc.disable()
            self.depth += 1

    def __exit__(self, *exc_info) -> None:
        with self.lock:
            self.depth -= 1
            if not self.depth and self.was_enabled:
                gc.enable()


_PAUSE = _CollectorPause()


def bulk() -> _CollectorPause:
    """A scope in which the cyclic garbage collector does not run.

    Tree builders run inside it: trees are acyclic (children reach
    their parent through a weak link), so a collection while one is
    built frees nothing and only walks the live nodes.  Scopes nest and
    may overlap across threads; the collector is disabled while any is
    open and put back as the outermost scope found it, also when the
    scope ends with an exception.  Reference counting still frees every
    acyclic object at once; only cyclic garbage made inside a scope
    waits for the next collection after it.  Keep scopes to bulk
    building, which makes no cyclic garbage.
    """
    return _PAUSE


class Node:
    """Abstract base for all tree nodes.

    Attributes:
        parent: The owning :class:`Element` or :class:`Document`, or ``None``
            for a detached node or one whose tree above was dropped.
        xid: Persistent identifier, or ``None`` when the node has not been
            registered with a version history yet.

    ``_up`` holds the weak back-link; only this module and the parser
    touch it.  Code elsewhere reads ``parent``.  Each concrete
    constructor sets both slots itself.
    """

    __slots__ = ("_up", "xid")

    kind = "node"

    #: Child sequence: the shared empty tuple on every leaf.  Elements
    #: and documents shadow it with a slot of their own.
    children: Sequence["Node"] = _NO_CHILDREN

    @property
    def parent(self) -> Optional["Node"]:
        return self._up()

    @parent.setter
    def parent(self, value: Optional["Node"]) -> None:
        # Raises TypeError for a leaf: only elements and documents can
        # be weakly referenced, and only they have children.
        self._up = _NO_PARENT if value is None else ref(value)

    # -- structure ---------------------------------------------------------

    @property
    def is_element(self) -> bool:
        return self.kind == "element"

    @property
    def is_text(self) -> bool:
        return self.kind == "text"

    @property
    def is_leaf(self) -> bool:
        return True

    def position(self) -> int:
        """Index of this node in its parent's child list.

        Raises:
            ValueError: if the node is detached.
        """
        parent = self._up()
        if parent is None:
            raise ValueError("detached node has no position")
        siblings = parent.children
        # Identity search: structural equality would find the wrong twin.
        for index, sibling in enumerate(siblings):
            if sibling is self:
                return index
        raise ValueError("node not found among its parent's children")

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when already detached)."""
        parent = self._up()
        if parent is not None:
            siblings = parent._own_children()
            for index, sibling in enumerate(siblings):
                if sibling is self:
                    del siblings[index]
                    break
            self._up = _NO_PARENT
        return self

    @property
    def orphaned(self) -> bool:
        """Whether the tree above this node was dropped.

        Such a node reads ``parent`` as ``None`` like a detached one, but
        its place in the document is lost rather than removed: callers
        that report a position (see :mod:`repro.xmlkit.path`) raise here.
        """
        up = self._up
        return up is not _NO_PARENT and up() is None

    def ancestors(self) -> Iterator["Node"]:
        """Yield parent, grandparent, ... up to (and including) the document."""
        node = self._up()
        while node is not None:
            yield node
            node = node._up()

    def depth(self) -> int:
        """Number of ancestors (root element has depth 1 under a document)."""
        return sum(1 for _ in self.ancestors())

    def document(self) -> Optional["Document"]:
        """The owning :class:`Document`, or ``None`` for detached subtrees."""
        node = self
        parent = node._up()
        while parent is not None:
            node = parent
            parent = node._up()
        return node if isinstance(node, Document) else None

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (>= 1)."""
        nodes = 0
        stack = [self]
        pop = stack.pop
        push_all = stack.extend
        while stack:
            node = pop()
            nodes += 1
            children = node.children
            if children:
                push_all(children)
        return nodes

    # -- content -----------------------------------------------------------

    def deep_equal(self, other: "Node") -> bool:
        """Structural equality: same kinds, values, attributes, child shapes.

        XIDs are deliberately ignored — two documents are "the same version"
        when their content matches, whatever identifiers they carry.
        """
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.kind != b.kind:
                return False
            if not a._shallow_equal(b):
                return False
            a_children = a.children
            b_children = b.children
            if len(a_children) != len(b_children):
                return False
            stack.extend(zip(a_children, b_children))
        return True

    def _shallow_equal(self, other: "Node") -> bool:
        raise NotImplementedError

    def clone(self, *, keep_xids: bool = True) -> "Node":
        """Deep copy of the subtree rooted here; the copy is detached.

        Elements and text, nearly every node of a tree, are copied
        inline by kind, with their slots set directly.  A copy with
        children is built inside :func:`bulk`.
        """
        copy_root = self._shallow_clone(keep_xids)
        if not self.children:
            return copy_root
        stack = [(self, copy_root)]
        pop = stack.pop
        push = stack.append
        with bulk():
            while stack:
                original, copy = pop()
                up = ref(copy)
                copies = []
                add = copies.append
                for child in original.children:
                    kind = child.kind
                    if kind == "element":
                        twin = _new(Element)
                        twin.label = child.label
                        attributes = child.attributes
                        twin.attributes = (
                            dict(attributes) if attributes else _NO_ATTRIBUTES
                        )
                        twin.children = _NO_CHILDREN
                        if child.children:
                            push((child, twin))
                    elif kind == "text":
                        twin = _new(Text)
                        twin.value = child.value
                    else:
                        twin = child._shallow_clone(keep_xids)
                    twin._up = up
                    twin.xid = child.xid if keep_xids else None
                    add(twin)
                # One exact-size tuple per element, as the parser builds
                # it; a document keeps its list (documents always own one).
                copy.children = (
                    tuple(copies) if copy.kind == "element" else copies
                )
        return copy_root

    def _shallow_clone(self, keep_xids: bool) -> "Node":
        raise NotImplementedError

    def text_content(self) -> str:
        """Concatenation of all descendant text values, document order."""
        parts = []
        for node in preorder(self):
            if node.kind == "text":
                parts.append(node.value)
        return "".join(parts)


class Element(Node):
    """An element node: a label, an attribute map, and ordered children.

    ``attributes`` is read-only while empty, and ``children`` while empty
    or as parsed: write through :meth:`set_attribute`, :meth:`append` and
    :meth:`insert`, which make the element's own ``dict`` or ``list`` on
    first use.
    """

    __slots__ = ("label", "attributes", "children", "__weakref__")

    kind = "element"

    def __init__(self, label: str, attributes: Optional[Mapping] = None):
        self._up = _NO_PARENT
        self.xid: Optional[int] = None
        self.label = label
        self.attributes: Mapping[str, str] = (
            dict(attributes) if attributes else _NO_ATTRIBUTES
        )
        self.children: Sequence[Node] = _NO_CHILDREN

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- mutation ----------------------------------------------------------

    def append(self, child: Node) -> Node:
        """Attach ``child`` as the last child (detaching it first if needed).

        A child of this element moves to the end.
        """
        if child._up() is not None:
            child.detach()
        children = self.children
        if children.__class__ is not list:
            children = self._own_children()
        children.append(child)
        child._up = ref(self)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Attach ``child`` at position ``index`` (supports ``len(children)``)."""
        if child._up() is not None:
            child.detach()
        size = len(self.children)
        if not 0 <= index <= size:
            raise IndexError(f"insert position {index} out of range 0..{size}")
        self._own_children().insert(index, child)
        child._up = ref(self)
        return child

    def _own_children(self) -> list[Node]:
        """The element's own child list, copied from a shared or parsed tuple."""
        children = self.children
        if children.__class__ is not list:
            children = self.children = list(children)
        return children

    def set_attribute(self, name: str, value: str) -> None:
        """Set one attribute, allocating the element's own map on first use."""
        if self.attributes is _NO_ATTRIBUTES:
            self.attributes = {name: value}
        else:
            self.attributes[name] = value

    def remove(self, child: Node) -> Node:
        """Detach a direct child (identity match)."""
        if child.parent is not self:
            raise ValueError("node is not a child of this element")
        return child.detach()

    def replace(self, old: Node, new: Node) -> Node:
        """Swap direct child ``old`` for ``new`` at the same position."""
        index = old.position()
        old.detach()
        return self.insert(index, new)

    # -- queries -----------------------------------------------------------

    def find(self, label: str) -> Optional["Element"]:
        """First direct child element with the given label, or ``None``."""
        for child in self.children:
            if child.kind == "element" and child.label == label:
                return child
        return None

    def find_all(self, label: str) -> list["Element"]:
        """All direct child elements with the given label, in order."""
        return [
            child
            for child in self.children
            if child.kind == "element" and child.label == label
        ]

    def get(self, name: str, default=None):
        """Attribute lookup with a default, mirroring ``dict.get``."""
        return self.attributes.get(name, default)

    def child_elements(self) -> Iterator["Element"]:
        for child in self.children:
            if child.kind == "element":
                yield child

    # -- Node protocol -----------------------------------------------------

    def _shallow_equal(self, other: Node) -> bool:
        return self.label == other.label and self.attributes == other.attributes

    def _shallow_clone(self, keep_xids: bool) -> "Element":
        copy = Element(self.label, self.attributes)
        if keep_xids:
            copy.xid = self.xid
        return copy

    def __repr__(self):
        xid = f" xid={self.xid}" if self.xid is not None else ""
        return f"<Element {self.label!r}{xid} children={len(self.children)}>"


class Text(Node):
    """A text (character data) leaf node."""

    __slots__ = ("value",)

    kind = "text"

    def __init__(self, value: str):
        self._up = _NO_PARENT
        self.xid: Optional[int] = None
        self.value = value

    def _shallow_equal(self, other: Node) -> bool:
        return self.value == other.value

    def _shallow_clone(self, keep_xids: bool) -> "Text":
        copy = Text(self.value)
        if keep_xids:
            copy.xid = self.xid
        return copy

    def __repr__(self):
        preview = self.value if len(self.value) <= 24 else self.value[:21] + "..."
        xid = f" xid={self.xid}" if self.xid is not None else ""
        return f"<Text {preview!r}{xid}>"


class Comment(Node):
    """An XML comment, preserved verbatim but opaque to the diff."""

    __slots__ = ("value",)

    kind = "comment"

    def __init__(self, value: str):
        self._up = _NO_PARENT
        self.xid: Optional[int] = None
        self.value = value

    def _shallow_equal(self, other: Node) -> bool:
        return self.value == other.value

    def _shallow_clone(self, keep_xids: bool) -> "Comment":
        copy = Comment(self.value)
        if keep_xids:
            copy.xid = self.xid
        return copy

    def __repr__(self):
        return f"<Comment {self.value!r}>"


class ProcessingInstruction(Node):
    """A processing instruction ``<?target value?>``."""

    __slots__ = ("target", "value")

    kind = "pi"

    def __init__(self, target: str, value: str = ""):
        self._up = _NO_PARENT
        self.xid: Optional[int] = None
        self.target = target
        self.value = value

    def _shallow_equal(self, other: Node) -> bool:
        return self.target == other.target and self.value == other.value

    def _shallow_clone(self, keep_xids: bool) -> "ProcessingInstruction":
        copy = ProcessingInstruction(self.target, self.value)
        if keep_xids:
            copy.xid = self.xid
        return copy

    def __repr__(self):
        return f"<PI {self.target!r}>"


class Document(Node):
    """The tree root: prolog nodes plus exactly one root element.

    Attributes:
        doctype_name: Root element name from the ``<!DOCTYPE ...>``
            declaration, if one was present.
        id_attributes: Set of ``(element_label, attribute_name)`` pairs the
            DTD declared with type ``ID`` — the XML-specific knowledge BULD
            Phase 1 exploits.
    """

    __slots__ = ("children", "doctype_name", "id_attributes", "__weakref__")

    kind = "document"

    def __init__(self, root: Optional[Element] = None):
        self._up = _NO_PARENT
        self.xid: Optional[int] = None
        self.children: list[Node] = []
        self.doctype_name: Optional[str] = None
        self.id_attributes: set[tuple[str, str]] = set()
        if root is not None:
            self.append(root)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def _own_children(self) -> list[Node]:
        return self.children

    @property
    def root(self) -> Optional[Element]:
        """The single root element, or ``None`` for an empty document."""
        for child in self.children:
            if child.kind == "element":
                return child
        return None

    def append(self, child: Node) -> Node:
        if child.kind == "element" and self.root is not None:
            raise ValueError("document already has a root element")
        if child._up() is not None:
            child.detach()
        self.children.append(child)
        child._up = ref(self)
        return child

    def _shallow_equal(self, other: Node) -> bool:
        # Doctype/id metadata is not content; equality is about the tree.
        return True

    def _shallow_clone(self, keep_xids: bool) -> "Document":
        copy = Document()
        copy.doctype_name = self.doctype_name
        copy.id_attributes = set(self.id_attributes)
        if keep_xids:
            copy.xid = self.xid
        return copy

    def clone(self, *, keep_xids: bool = True) -> "Document":
        return super().clone(keep_xids=keep_xids)  # narrowed return type

    def __repr__(self):
        root = self.root
        label = root.label if root is not None else None
        return f"<Document root={label!r}>"


def coalesce_text(root: Node) -> int:
    """Merge adjacent text siblings and drop empty text nodes in a subtree.

    Both are legal in the tree model but cannot survive an XML
    serialization round trip: adjacent text nodes parse back as one
    node, and an empty one as none.  Anything that persists documents
    (the version store) or must produce serializable output (the merger)
    normalizes with this first.  Values concatenate onto the first node
    of each run, which keeps its XID.

    Returns:
        The number of text nodes removed.
    """
    removed = 0
    for node in preorder(root):
        children = node.children
        index = 0
        while index < len(children):
            current = children[index]
            if current.kind != "text" or (
                current.value and (index == 0 or children[index - 1].kind != "text")
            ):
                index += 1
                continue
            if current.value:
                children[index - 1].value += current.value
            current._up = _NO_PARENT
            children = node._own_children()
            del children[index]
            removed += 1
    return removed


def normalized_size(root: Node) -> tuple[int, bool]:
    """Count a subtree's nodes and tell whether it is already normalized.

    Returns ``(nodes, normalized)``: ``nodes`` counts ``root`` and every
    node below it, and ``normalized`` is true when :func:`coalesce_text`
    would leave the subtree unchanged (no empty text node, no adjacent
    text siblings).  The walk only reads, so a caller can decide from it
    whether a tree needs a normalized copy at all.
    """
    nodes = 0
    normalized = True
    stack = [root]
    pop = stack.pop
    push_all = stack.extend
    while stack:
        node = pop()
        nodes += 1
        children = node.children
        if not children:
            continue
        push_all(children)
        if normalized:
            after_text = False
            for child in children:
                if child.kind == "text":
                    if after_text or not child.value:
                        normalized = False
                        break
                    after_text = True
                else:
                    after_text = False
    return nodes, normalized


def preorder(node: Node) -> Iterator[Node]:
    """Iterative pre-order traversal (node before its children)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        children = current.children
        if children:
            stack.extend(reversed(children))


def postorder(node: Node) -> list[Node]:
    """Post-order traversal (children before their parent), as a list.

    The list is the reverse of a preorder that visits children right to
    left, built before the caller sees it: a caller may set values and
    XIDs while it iterates, but must not change the tree's structure.
    """
    order = []
    visit = order.append
    stack = [node]
    pop = stack.pop
    push_all = stack.extend
    while stack:
        current = pop()
        visit(current)
        children = current.children
        if children:
            push_all(children)
    order.reverse()
    return order
