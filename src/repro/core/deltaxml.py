"""Deltas as XML documents.

"The diff output is stored as an XML document, namely a delta" (Section 2)
— which is what makes change queries ordinary document queries in Xyleme.
This module converts between :class:`~repro.core.delta.Delta` and its XML
form, faithfully round-tripping every operation:

.. code-block:: xml

    <delta baseVersion="1" targetVersion="2">
      <delete xid="7" xidMap="(3-7)" parentXid="8" pos="1">
        <Product><Name>tx123</Name><Price>$499</Price></Product>
      </delete>
      <insert xid="20" xidMap="(16-20)" parentXid="14" pos="1">...</insert>
      <move xid="13" fromParent="14" fromPos="1" toParent="8" toPos="1"/>
      <update xid="11"><oldval>$799</oldval><newval>$699</newval></update>
      <attr-update xid="4" name="status">
        <oldval>new</oldval><newval>sale</newval>
      </attr-update>
      <attr-delete xid="4" name="color" oldValue="red" pos="0"/>
    </delta>

An ``attr-insert`` or ``attr-delete`` carries ``pos`` only when its
attribute is not the element's last one (after the insert, before the
delete), so replay in either direction restores attribute order.

Payload subtrees (the content of deletes/inserts) are embedded verbatim;
non-element payload roots are wrapped in ``xy:text`` / ``xy:comment`` /
``xy:pi`` markers so they survive the trip.  Node XIDs ride in the
``xidMap`` attribute (postorder, compressed ranges).

Delta documents are always serialized **compactly**: inside payloads,
whitespace is content, so pretty-printing would corrupt them.

There is one writer, :func:`serialize_delta`, which walks the payloads
in place; :func:`delta_to_document` parses its output.  The reader,
:func:`delta_from_document`, moves the payload subtrees out of the
parsed document instead of copying them.
"""

from __future__ import annotations

import io
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
from repro.core.xid import parse_xid_map
from repro.xmlkit.errors import DeltaError
from repro.xmlkit.model import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    postorder,
)
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import escape_attribute, escape_text, serialize

__all__ = [
    "delta_byte_size",
    "delta_from_document",
    "delta_to_document",
    "parse_delta",
    "serialize_delta",
]

_WRAP_TEXT = "xy:text"
_WRAP_COMMENT = "xy:comment"
_WRAP_PI = "xy:pi"

#: Start-tag attributes of each operation element: (XML name, field).
_PAYLOAD_ATTRIBUTES = (
    ("xid", "xid"),
    ("xidMap", "xid_map"),
    ("parentXid", "parent_xid"),
    ("pos", "position"),
)
_OPERATION_ATTRIBUTES = {
    "delete": _PAYLOAD_ATTRIBUTES,
    "insert": _PAYLOAD_ATTRIBUTES,
    "move": (
        ("xid", "xid"),
        ("fromParent", "from_parent_xid"),
        ("fromPos", "from_position"),
        ("toParent", "to_parent_xid"),
        ("toPos", "to_position"),
    ),
    "update": (("xid", "xid"),),
    "attr-insert": (
        ("xid", "xid"),
        ("name", "name"),
        ("value", "value"),
        ("pos", "position"),
    ),
    "attr-delete": (
        ("xid", "xid"),
        ("name", "name"),
        ("oldValue", "old_value"),
        ("pos", "position"),
    ),
    "attr-update": (("xid", "xid"), ("name", "name")),
}


# ---------------------------------------------------------------------------
# Delta -> XML
# ---------------------------------------------------------------------------


def serialize_delta(delta: Delta) -> str:
    """Compact XML string of the delta (whitespace-safe).

    The one delta writer.  It writes straight from the operations: each
    payload is serialized in place, never copied, and the ``xy:*``
    wrapping is decided as the payload is walked.
    """
    attributes = _attributes(
        (name, value)
        for name, value in (
            ("baseVersion", delta.base_version),
            ("targetVersion", delta.target_version),
            ("nextXidBefore", delta.next_xid_before),
            ("nextXidAfter", delta.next_xid_after),
        )
        if value is not None
    )
    if not delta.operations:
        return f"<delta{attributes}/>"
    out = io.StringIO()
    write = out.write
    write(f"<delta{attributes}>")
    for operation in delta.operations:
        _write_operation(write, operation)
    write("</delta>")
    return out.getvalue()


def delta_to_document(delta: Delta) -> Document:
    """Render a delta as an XML document (the parsed delta XML)."""
    return parse(serialize_delta(delta), strip_whitespace=False)


def _attributes(items) -> str:
    """The `` name="value"`` pairs of a start tag."""
    return "".join(
        f' {name}="{escape_attribute(str(value))}"' for name, value in items
    )


def _write_operation(write, operation: Operation) -> None:
    kind = operation.kind
    fields = _OPERATION_ATTRIBUTES.get(kind)
    if fields is None:
        raise DeltaError(f"cannot serialize operation kind {kind!r}")
    # An attribute operation's position is written only when it has one.
    attributes = _attributes(
        (name, value)
        for name, field in fields
        if (value := getattr(operation, field)) is not None
    )
    if kind in ("delete", "insert"):
        write(f"<{kind}{attributes}>")
        _write_payload(write, operation.subtree)
        write(f"</{kind}>")
    elif kind in ("update", "attr-update"):
        write(f"<{kind}{attributes}>")
        _write_values(write, operation.old_value, operation.new_value)
        write(f"</{kind}>")
    else:
        write(f"<{kind}{attributes}/>")


def _write_values(write, old_value: str, new_value: str) -> None:
    for label, value in (("oldval", old_value), ("newval", new_value)):
        if value:
            write(f"<{label}>{escape_text(value)}</{label}>")
        else:
            write(f"<{label}/>")


def _wrapped_leaf(leaf: Node) -> str:
    """An ``xy:*`` marker element carrying a leaf's value as text."""
    kind = leaf.kind
    if kind == "text":
        label, attributes = _WRAP_TEXT, ""
    elif kind == "comment":
        label, attributes = _WRAP_COMMENT, ""
    else:
        label = _WRAP_PI
        attributes = f' target="{escape_attribute(leaf.target)}"'
    if not leaf.value:
        return f"<{label}{attributes}/>"
    return f"<{label}{attributes}>{escape_text(leaf.value)}</{label}>"


def _write_payload(write, subtree: Node) -> None:
    """Write a payload subtree, wrapping nodes XML cannot carry verbatim.

    Non-element roots always need a marker element.  *Inside* the payload,
    two cases would not survive a serialize/parse round trip and are
    wrapped too: empty text nodes (serialize to nothing) and text nodes
    adjacent to a preceding text sibling (payload "holes" left by moved
    descendants — adjacent text merges on reparse).  Element names in the
    ``xy:`` prefix are reserved for these markers.
    """
    if subtree.kind in ("text", "comment", "pi"):
        write(_wrapped_leaf(subtree))
        return
    if subtree.kind != "element":
        raise DeltaError(f"cannot embed payload of kind {subtree.kind!r}")
    # Work stack of nodes plus finished markup strings (closing tags and
    # wrapped text), written verbatim when popped.
    stack: list = [subtree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            write(node)
            continue
        kind = node.kind
        if kind == "element":
            label = node.label
            attributes = _attributes(node.attributes.items())
            children = node.children
            if not children:
                write(f"<{label}{attributes}/>")
                continue
            write(f"<{label}{attributes}>")
            stack.append(f"</{label}>")
            items = []
            previous_raw_text = False
            for child in children:
                if child.kind == "text" and (
                    previous_raw_text or not child.value
                ):
                    items.append(_wrapped_leaf(child))
                    previous_raw_text = False
                else:
                    items.append(child)
                    previous_raw_text = child.kind == "text"
            stack.extend(reversed(items))
        elif kind == "text":
            write(escape_text(node.value))
        else:  # comments and PIs inside a payload are written verbatim
            write(serialize(node))


# ---------------------------------------------------------------------------
# XML -> Delta
# ---------------------------------------------------------------------------


def delta_from_document(document: Document) -> Delta:
    """Rebuild a delta from its XML form, consuming the document.

    Payload subtrees are detached from ``document`` and become the
    operations' subtrees, not copied: pass a document the caller owns
    and no longer needs (:func:`parse_delta` parses a fresh one).

    Raises:
        DeltaError: when the document is not a well-formed delta.
    """
    root = document.root
    if root is None or root.label != "delta":
        raise DeltaError("not a delta document (root must be <delta>)")
    delta = Delta(
        base_version=_int_attribute(root, "baseVersion"),
        target_version=_int_attribute(root, "targetVersion"),
        next_xid_before=_int_attribute(root, "nextXidBefore"),
        next_xid_after=_int_attribute(root, "nextXidAfter"),
    )
    for child in root.children:
        if child.kind == "text" and not child.value.strip():
            continue  # indentation between operations
        if child.kind != "element":
            raise DeltaError(f"unexpected {child.kind} node inside <delta>")
        delta.operations.append(_operation_from_element(child))
    return delta


def _operation_from_element(element: Element) -> Operation:
    label = element.label
    if label in ("delete", "insert"):
        xid = _required_int(element, "xid")
        parent_xid = _required_int(element, "parentXid")
        position = _required_int(element, "pos")
        payload = _unwrap_payload(element)
        _relabel_payload(payload, element.get("xidMap"), xid)
        if label == "delete":
            return Delete(xid, parent_xid, position, payload)
        return Insert(xid, parent_xid, position, payload)
    if label == "move":
        return Move(
            _required_int(element, "xid"),
            _required_int(element, "fromParent"),
            _required_int(element, "fromPos"),
            _required_int(element, "toParent"),
            _required_int(element, "toPos"),
        )
    if label == "update":
        old_value, new_value = _old_and_new_values(element)
        return Update(_required_int(element, "xid"), old_value, new_value)
    if label == "attr-insert":
        return AttributeInsert(
            _required_int(element, "xid"),
            _required_attr(element, "name"),
            element.get("value", ""),
            _int_attribute(element, "pos"),
        )
    if label == "attr-delete":
        return AttributeDelete(
            _required_int(element, "xid"),
            _required_attr(element, "name"),
            element.get("oldValue", ""),
            _int_attribute(element, "pos"),
        )
    if label == "attr-update":
        old_value, new_value = _old_and_new_values(element)
        return AttributeUpdate(
            _required_int(element, "xid"),
            _required_attr(element, "name"),
            old_value,
            new_value,
        )
    raise DeltaError(f"unknown delta operation <{label}>")


def _unwrap_payload(op_element: Element) -> Node:
    payload_nodes = [
        child
        for child in op_element.children
        if not (child.kind == "text" and not child.value.strip())
    ]
    if len(payload_nodes) != 1:
        raise DeltaError(
            f"<{op_element.label}> must contain exactly one payload subtree"
        )
    payload = payload_nodes[0]
    if payload.kind != "element":
        raise DeltaError("payload root must be an element or a wrapper")
    unwrapped = _collapse_wrapper(payload)
    if unwrapped is not payload:
        return unwrapped
    payload.detach()
    _collapse_wrapped_descendants(payload)
    return payload


def _collapse_wrapper(element: Element) -> Node:
    """Turn an xy:* marker element back into its leaf node (or return
    the element unchanged when it is not a marker)."""
    if element.label == _WRAP_TEXT:
        return Text(element.text_content())
    if element.label == _WRAP_COMMENT:
        return Comment(element.text_content())
    if element.label == _WRAP_PI:
        return ProcessingInstruction(
            element.get("target", ""), element.text_content()
        )
    return element


def _collapse_wrapped_descendants(root: Element) -> None:
    stack = [root]
    while stack:
        element = stack.pop()
        for index, child in enumerate(tuple(element.children)):
            if child.kind != "element":
                continue
            collapsed = _collapse_wrapper(child)
            if collapsed is not child:
                collapsed.parent = element
                element._own_children()[index] = collapsed
            else:
                stack.append(child)


def _relabel_payload(payload: Node, xid_map: Optional[str], root_xid: int) -> None:
    if xid_map is None:
        raise DeltaError("payload is missing its xidMap attribute")
    xids = parse_xid_map(xid_map)
    nodes = list(postorder(payload))
    if len(xids) != len(nodes):
        raise DeltaError(
            f"xidMap lists {len(xids)} XIDs for a payload of {len(nodes)} nodes"
        )
    for node, xid in zip(nodes, xids):
        node.xid = xid
    if payload.xid != root_xid:
        raise DeltaError(
            f"payload root XID {payload.xid} disagrees with xid={root_xid}"
        )


def _old_and_new_values(element: Element) -> tuple[str, str]:
    old_element = element.find("oldval")
    new_element = element.find("newval")
    if old_element is None or new_element is None:
        raise DeltaError(
            f"<{element.label}> needs <oldval> and <newval> children"
        )
    return old_element.text_content(), new_element.text_content()


def _int_attribute(element: Element, name: str) -> Optional[int]:
    value = element.get(name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise DeltaError(f"attribute {name}={value!r} is not an integer") from exc


def _required_int(element: Element, name: str) -> int:
    value = _int_attribute(element, name)
    if value is None:
        raise DeltaError(f"<{element.label}> is missing attribute {name!r}")
    return value


def _required_attr(element: Element, name: str) -> str:
    value = element.get(name)
    if value is None:
        raise DeltaError(f"<{element.label}> is missing attribute {name!r}")
    return value


# ---------------------------------------------------------------------------
# convenience
# ---------------------------------------------------------------------------


def parse_delta(text) -> Delta:
    """Parse a string produced by :func:`serialize_delta`."""
    return delta_from_document(parse(text, strip_whitespace=False))


def delta_byte_size(delta: Delta) -> int:
    """UTF-8 byte size of the delta's XML form — the paper's size metric."""
    return len(serialize_delta(delta).encode("utf-8"))
