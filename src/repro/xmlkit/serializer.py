"""Serialization of model trees back to XML text.

The serializer is intentionally symmetric with the parser: for any document
``d``, ``parse(serialize(d), strip_whitespace=False)`` reproduces ``d``
structurally.  Byte sizes reported by the paper's experiments (delta sizes,
Unix-diff comparisons) are measured on this serializer's output.
"""

from __future__ import annotations

import io
import re
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


#: Finds a character its context must escape; a value without one is
#: returned as it is.
_TEXT_SPECIAL = re.compile("[" + re.escape("".join(_TEXT_ESCAPES)) + "]")
_ATTR_SPECIAL = re.compile("[" + re.escape("".join(_ATTR_ESCAPES)) + "]")


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    if _TEXT_SPECIAL.search(value) is None:
        return value
    for raw, escaped in _TEXT_ESCAPES.items():
        if raw in value:
            value = value.replace(raw, escaped)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    if _ATTR_SPECIAL.search(value) is None:
        return value
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
    sort_attributes: bool = False,
) -> str:
    """Serialize a node (or whole document) to an XML string.

    Args:
        node: Any model node; documents serialize their prolog + root.
        indent: ``None`` for compact output (round-trip safe), or a number
            of spaces per nesting level for human-readable output.  Indented
            output inserts whitespace text and is therefore only identical
            to the source modulo whitespace.
        sort_attributes: Emit attributes in sorted-name order (used by the
            canonical form); default preserves insertion order.

    Returns:
        The XML string.
    """
    if node.kind == "document":
        top_level = list(node.children)
    else:
        top_level = [node]
    if indent is None:
        parts: list[str] = []
        _write_compact(parts, top_level, sort_attributes)
        return "".join(parts)

    out = io.StringIO()
    for index, top in enumerate(top_level):
        if index > 0 and not out.getvalue().endswith("\n"):
            out.write("\n")
        _write_node(out, top, indent, 0, sort_attributes)
    result = out.getvalue()
    if not result.endswith("\n"):
        result += "\n"
    return result


def _write_compact(parts: list, top_level, sort_attributes: bool) -> None:
    """Append the compact form of ``top_level`` and its subtrees to
    ``parts``, in one iterative pass that handles any depth."""
    append = parts.append
    # Work stack of nodes plus closing tags, written when popped.
    stack = list(reversed(top_level))
    pop = stack.pop
    push = stack.append
    extend = stack.extend
    while stack:
        current = pop()
        if current.__class__ is str:
            append(current)
            continue
        kind = current.kind
        if kind == "text":
            append(escape_text(current.value))
        elif kind == "element":
            label = current.label
            if current.attributes:
                tag = label + _attributes_string(current, sort_attributes)
            else:
                tag = label
            children = current.children
            if children:
                append(f"<{tag}>")
                push(f"</{label}>")
                extend(reversed(children))
            else:
                append(f"<{tag}/>")
        elif kind == "document":
            extend(reversed(current.children))
        else:
            append(_leaf_markup(current, ""))


def _leaf_markup(node: Node, pad: str) -> str:
    """Markup of a comment or processing instruction."""
    kind = node.kind
    if kind == "comment":
        if "--" in node.value or node.value.endswith("-"):
            raise XmlSerializeError("comment contains '--' or ends with '-'")
        return f"{pad}<!--{node.value}-->"
    if kind == "pi":
        if "?>" in node.value:
            raise XmlSerializeError("processing instruction contains '?>'")
        data = f" {node.value}" if node.value else ""
        return f"{pad}<?{node.target}{data}?>"
    raise XmlSerializeError(f"cannot serialize node kind {kind!r}")


def _write_node(out, node: Node, indent: int, level, sort_attributes) -> None:
    """Iteratively write one top-level node and its subtree, indented."""
    # Work stack of (node, level) plus sentinel strings for closing tags.
    stack: list = [(node, level)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            out.write(entry)
            continue
        current, depth = entry
        pad = " " * (indent * depth)
        kind = current.kind
        if kind == "element":
            attrs = _attributes_string(current, sort_attributes)
            children = current.children
            if not children:
                out.write(f"{pad}<{current.label}{attrs}/>")
                if depth >= 0:
                    out.write("\n")
                continue
            # Mixed content must stay inline: indentation whitespace would
            # become part of the text on reparse.  depth < 0 marks a node
            # inside mixed content — everything below stays inline too.
            has_text = any(child.kind == "text" for child in children)
            if has_text or depth < 0:
                out.write(f"{pad}<{current.label}{attrs}>")
                closing = f"</{current.label}>"
                if depth >= 0:
                    closing += "\n"
                stack.append(closing)
                for child in reversed(children):
                    # Inline children: no indentation inside mixed content.
                    stack.append((child, -1))
            else:
                out.write(f"{pad}<{current.label}{attrs}>\n")
                stack.append(f"{pad}</{current.label}>\n")
                for child in reversed(children):
                    stack.append((child, depth + 1))
        elif kind == "text":
            out.write(escape_text(current.value))
        elif kind == "document":
            for child in reversed(current.children):
                stack.append((child, depth))
        else:
            out.write(_leaf_markup(current, pad))
            if depth >= 0:
                out.write("\n")


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
