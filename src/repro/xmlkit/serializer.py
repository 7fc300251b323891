"""Serialization of model trees back to XML text.

The serializer is intentionally symmetric with the parser: for any document
``d``, ``parse(serialize(d), strip_whitespace=False)`` reproduces ``d``
structurally.  Byte sizes reported by the paper's experiments (delta sizes,
Unix-diff comparisons) are measured on this serializer's output.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.xmlkit.errors import XmlSerializeError
from repro.xmlkit.model import Element, Node

__all__ = [
    "escape_attribute",
    "escape_text",
    "serialize",
    "serialize_bytes",
    "write_file",
]

# A parser normalizes a raw carriage return to a line feed everywhere,
# and a raw tab or line feed inside an attribute value to a space, so
# those characters are written as character references.
_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "\t": "&#9;",
    "\n": "&#10;",
    "\r": "&#13;",
}


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for raw, escaped in _TEXT_ESCAPES.items():
        if raw in value:
            value = value.replace(raw, escaped)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for raw, escaped in _ATTR_ESCAPES.items():
        if raw in value:
            value = value.replace(raw, escaped)
    return value


def _attributes_string(element: Element, sort_attributes: bool) -> str:
    items = element.attributes.items()
    if sort_attributes:
        items = sorted(items)
    return "".join(
        f' {name}="{escape_attribute(str(value))}"' for name, value in items
    )


def serialize(
    node: Node,
    *,
    indent: Optional[int] = None,
    xml_declaration: bool = False,
    sort_attributes: bool = False,
) -> str:
    """Serialize a node (or whole document) to an XML string.

    Args:
        node: Any model node; documents serialize their prolog + root.
        indent: ``None`` for compact output (round-trip safe), or a number
            of spaces per nesting level for human-readable output.  Indented
            output inserts whitespace text and is therefore only identical
            to the source modulo whitespace.
        xml_declaration: Prefix output with ``<?xml version="1.0"?>``.
        sort_attributes: Emit attributes in sorted-name order (used by the
            canonical form); default preserves insertion order.

    Returns:
        The XML string.
    """
    out = io.StringIO()
    if xml_declaration:
        out.write('<?xml version="1.0" encoding="UTF-8"?>')
        if indent is not None:
            out.write("\n")

    if node.kind == "document":
        top_level = list(node.children)
    else:
        top_level = [node]

    for index, top in enumerate(top_level):
        if indent is not None and index > 0 and not out.getvalue().endswith("\n"):
            out.write("\n")
        _write_node(out, top, indent, 0, sort_attributes)
    result = out.getvalue()
    if indent is not None and not result.endswith("\n"):
        result += "\n"
    return result


def _write_node(out, node: Node, indent, level, sort_attributes) -> None:
    """Iteratively write one top-level node and its subtree."""
    pad = "" if indent is None else " " * (indent * level)
    # Work stack of (node, level) plus sentinel strings for closing tags.
    stack: list = [(node, level)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            out.write(entry)
            continue
        current, depth = entry
        pad = "" if indent is None else " " * (indent * depth)
        kind = current.kind
        if kind == "element":
            attrs = _attributes_string(current, sort_attributes)
            children = current.children
            if not children:
                out.write(f"{pad}<{current.label}{attrs}/>")
                if indent is not None and depth >= 0:
                    out.write("\n")
                continue
            # Mixed content must stay inline: indentation whitespace would
            # become part of the text on reparse.  depth < 0 marks a node
            # inside mixed content — everything below stays inline too.
            has_text = any(child.kind == "text" for child in children)
            if indent is None or has_text or depth < 0:
                out.write(f"{pad}<{current.label}{attrs}>")
                closing = f"</{current.label}>"
                if indent is not None and depth >= 0:
                    closing += "\n"
                stack.append(closing)
                for child in reversed(children):
                    # Inline children: no indentation inside mixed content.
                    stack.append((child, -1) if indent is not None else (child, 0))
            else:
                out.write(f"{pad}<{current.label}{attrs}>\n")
                stack.append(f"{pad}</{current.label}>\n")
                for child in reversed(children):
                    stack.append((child, depth + 1))
        elif kind == "text":
            out.write(escape_text(current.value))
        elif kind == "comment":
            if "--" in current.value or current.value.endswith("-"):
                raise XmlSerializeError(
                    "comment contains '--' or ends with '-'"
                )
            out.write(f"{pad}<!--{current.value}-->")
            if indent is not None and depth >= 0:
                out.write("\n")
        elif kind == "pi":
            if "?>" in current.value:
                raise XmlSerializeError("processing instruction contains '?>'")
            data = f" {current.value}" if current.value else ""
            out.write(f"{pad}<?{current.target}{data}?>")
            if indent is not None and depth >= 0:
                out.write("\n")
        elif kind == "document":
            for child in reversed(current.children):
                stack.append((child, depth))
        else:  # pragma: no cover - model has no other kinds
            raise XmlSerializeError(f"cannot serialize node kind {kind!r}")


def serialize_bytes(node: Node, **kwargs) -> bytes:
    """Serialize to UTF-8 bytes (the unit the paper's size figures use)."""
    return serialize(node, **kwargs).encode("utf-8")


def write_file(node: Node, path, **kwargs) -> int:
    """Serialize to a file; returns the number of bytes written."""
    data = serialize_bytes(node, **kwargs)
    if hasattr(path, "write"):
        path.write(data)
    else:
        with io.open(path, "wb") as handle:
            handle.write(data)
    return len(data)


def document_byte_size(node: Node) -> int:
    """Byte size of the compact serialization (used by benchmarks)."""
    return len(serialize_bytes(node))
