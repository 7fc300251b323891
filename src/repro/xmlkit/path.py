"""Simple node paths and label-pattern matching.

Two related facilities live here:

- **Absolute paths** like ``/catalog/product[2]/name`` — a human-readable
  address of one node, used by the examples, the CLI and error messages.
  ``[k]`` is the 1-based index among same-label element siblings and may be
  omitted when the node is the only such child.
- **Label patterns** like ``/catalog//product/name`` or ``/*/discount`` —
  a small glob dialect the subscription system (:mod:`repro.versioning.alerter`)
  matches against the label path of changed nodes.  ``*`` matches any one
  label, ``//`` matches any (possibly empty) sequence of labels.

This is intentionally *not* XPath; the paper's system predates widespread
XPath engines and needs only structural addressing.
"""

from __future__ import annotations

import re
from repro.xmlkit.errors import PathError
from repro.xmlkit.model import Document, Node

__all__ = [
    "LabelPattern",
    "label_path_of",
    "node_at_path",
    "path_of",
]

_STEP_RE = re.compile(r"^([^\[\]/]+)(?:\[(\d+)\])?$")


def _parent(node: Node):
    """``node.parent``, raising when the tree above ``node`` was dropped.

    A node only reaches its parent through a weak link (see
    :mod:`repro.xmlkit.model`); a path read after its document is gone
    would silently start below the lost ancestors.
    """
    parent = node.parent
    if parent is None and node.orphaned:
        raise PathError(
            "the tree above this node was dropped; keep its document "
            "while reading its path"
        )
    return parent


def path_of(node: Node) -> str:
    """Absolute path of a node inside its document.

    Text nodes address as ``text()[k]`` among their text siblings.
    """
    if node.kind == "document":
        return "/"
    steps: list[str] = []
    current = node
    while current is not None and current.kind != "document":
        parent = _parent(current)
        if parent is None:
            raise PathError("node is detached; no absolute path")
        if current.kind == "element":
            same = [
                child
                for child in parent.children
                if child.kind == "element" and child.label == current.label
            ]
            name = current.label
        elif current.kind == "text":
            same = [child for child in parent.children if child.kind == "text"]
            name = "text()"
        elif current.kind == "comment":
            same = [child for child in parent.children if child.kind == "comment"]
            name = "comment()"
        else:
            same = [child for child in parent.children if child.kind == "pi"]
            name = "pi()"
        if len(same) == 1:
            steps.append(name)
        else:
            index = next(i for i, child in enumerate(same) if child is current)
            steps.append(f"{name}[{index + 1}]")
        current = parent
    return "/" + "/".join(reversed(steps))


def node_at_path(document: Document, path: str) -> Node:
    """Resolve an absolute path produced by :func:`path_of`.

    Raises:
        PathError: if the path does not resolve to a node.
    """
    if not path.startswith("/"):
        raise PathError(f"path must be absolute: {path!r}")
    if path == "/":
        return document
    current: Node = document
    for raw_step in path[1:].split("/"):
        match = _STEP_RE.match(raw_step)
        if match is None:
            raise PathError(f"malformed path step {raw_step!r} in {path!r}")
        name, index_text = match.group(1), match.group(2)
        index = int(index_text) - 1 if index_text else 0
        if name == "text()":
            same = [child for child in current.children if child.kind == "text"]
        elif name == "comment()":
            same = [child for child in current.children if child.kind == "comment"]
        elif name == "pi()":
            same = [child for child in current.children if child.kind == "pi"]
        else:
            same = [
                child
                for child in current.children
                if child.kind == "element" and child.label == name
            ]
        if not 0 <= index < len(same):
            raise PathError(f"step {raw_step!r} does not resolve in {path!r}")
        current = same[index]
    return current


def label_path_of(node: Node) -> str:
    """Label-only path (no indexes), e.g. ``/catalog/product/name``.

    Text and other non-element nodes contribute their parent's path plus a
    ``#text`` / ``#comment`` / ``#pi`` tail, so patterns can target them.
    A detached subtree reads from its own root.

    Raises:
        PathError: if the tree above the node was dropped.
    """
    if node.kind == "document":
        return "/"
    tail: list[str] = []
    current = node
    if current.kind != "element":
        tail.append("#" + ("text" if current.kind == "text" else current.kind))
        current = _parent(current)
    while current is not None and current.kind == "element":
        tail.append(current.label)
        current = _parent(current)
    return "/" + "/".join(reversed(tail))


class LabelPattern:
    """Compiled glob-style pattern over label paths.

    Syntax: ``/``-separated labels; ``*`` matches exactly one label;
    ``//`` (an empty segment) matches any number of labels, including none.
    A pattern without a leading slash is treated as ``//pattern`` —
    "anywhere in the document".

    Examples::

        LabelPattern("/catalog/product")        # direct child of catalog
        LabelPattern("product/name")            # any product/name anywhere
        LabelPattern("/catalog//price")         # price at any depth
        LabelPattern("/*/discount")             # discount under any root
    """

    def __init__(self, pattern: str):
        self.pattern = pattern
        if not pattern.startswith("/"):
            pattern = "//" + pattern
        regex_parts = ["^"]
        segments = pattern.split("/")
        # pattern "/a//b" -> ["", "a", "", "b"]; leading "" is the root slash.
        for segment in segments[1:]:
            if segment == "":
                regex_parts.append("(?:/[^/]+)*")
            elif segment == "*":
                regex_parts.append("/[^/]+")
            else:
                regex_parts.append("/" + re.escape(segment))
        regex_parts.append("$")
        self._regex = re.compile("".join(regex_parts))

    def matches(self, label_path: str) -> bool:
        """Whether the pattern matches a label path string."""
        return self._regex.match(label_path) is not None

    def matches_node(self, node: Node) -> bool:
        """Whether the pattern matches a node's label path."""
        return self.matches(label_path_of(node))

    def __repr__(self):
        return f"LabelPattern({self.pattern!r})"


def find_all(scope: Node, pattern: str) -> list[Node]:
    """All descendant nodes of ``scope`` whose label path matches ``pattern``.

    The nodes reach their ancestors only while the caller keeps the tree
    alive: keep ``scope``'s document to read their paths afterwards
    (``find_all(parse(text), ...)`` drops it, and :func:`label_path_of`
    on a result then raises :class:`PathError`).
    """
    from repro.xmlkit.model import preorder  # local import to avoid cycle noise

    compiled = LabelPattern(pattern)
    return [node for node in preorder(scope) if compiled.matches_node(node)]
