"""XML parser building :mod:`repro.xmlkit.model` trees.

The parser is a thin event layer over the stdlib ``expat`` bindings — the
same parser family the original XyDiff used via Xerces.  It produces the
ordered-tree model, merges adjacent character data into single
:class:`~repro.xmlkit.model.Text` nodes, and harvests DTD ``ATTLIST``
declarations so the document knows its ID-typed attributes.

Whitespace policy
-----------------
Pretty-printed XML is full of whitespace-only text nodes that carry no
information and would dominate a diff.  By default those nodes are dropped
(``strip_whitespace=True``); pass ``False`` to preserve the document
byte-for-byte, e.g. for round-trip tests.
"""

from __future__ import annotations

import io
import os
from typing import Optional, Union
from weakref import ref
from xml.parsers import expat

from repro.xmlkit.dtd import Dtd
from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.model import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    bulk,
)

__all__ = ["parse", "parse_file"]


class _TreeBuilder:
    """Collects expat events into a :class:`Document`.

    Each open element gathers its children in a plain list; when it
    closes, they become one exact-size tuple and share one weak
    back-link to it (see :mod:`repro.xmlkit.model`).  An element keeps
    the attribute dict expat hands over (a fresh one per start tag)
    instead of copying it, and buffered text is flushed only when some
    is pending.
    """

    def __init__(self, strip_whitespace: bool):
        self.document = Document()
        self._strip_whitespace = strip_whitespace
        # Open nodes, outermost first, each with the children seen so far.
        self._open: list[tuple] = [(self.document, [])]
        self._text_parts: list[str] = []

    def finish(self) -> Document:
        """Attach the top-level nodes to the document and return it."""
        document, children = self._open[0]
        for child in children:
            document.append(child)
        return document

    # -- text buffering ------------------------------------------------------

    def _flush_text(self) -> None:
        """Turn the pending text into a node (callers check there is some)."""
        value = "".join(self._text_parts)
        self._text_parts.clear()
        if len(self._open) == 1:
            # Only whitespace is legal between top-level constructs.
            return
        if self._strip_whitespace and not value.strip():
            return
        self._open[-1][1].append(Text(value))

    # -- expat handlers --------------------------------------------------------

    def start_element(self, name: str, attributes: dict) -> None:
        if self._text_parts:
            self._flush_text()
        element = Element(name)
        if attributes:
            element.attributes = attributes
        self._open[-1][1].append(element)
        self._open.append((element, []))

    def end_element(self, name: str) -> None:
        if self._text_parts:
            self._flush_text()
        element, children = self._open.pop()
        if children:
            up = ref(element)
            for child in children:
                child._up = up
            element.children = tuple(children)

    def character_data(self, data: str) -> None:
        self._text_parts.append(data)

    def comment(self, data: str) -> None:
        if self._text_parts:
            self._flush_text()
        self._open[-1][1].append(Comment(data))

    def processing_instruction(self, target: str, data: str) -> None:
        if self._text_parts:
            self._flush_text()
        self._open[-1][1].append(ProcessingInstruction(target, data))

    def start_doctype(self, name, system_id, public_id, has_internal_subset):
        self.document.doctype_name = name

    def attlist_decl(self, element, attribute, attr_type, default, required):
        if attr_type == "ID":
            self.document.id_attributes.add((element, attribute))


def _make_parser(builder: _TreeBuilder) -> expat.XMLParserType:
    parser = expat.ParserCreate()
    parser.buffer_text = True  # coalesce character data where expat can
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    parser.CommentHandler = builder.comment
    parser.ProcessingInstructionHandler = builder.processing_instruction
    parser.StartDoctypeDeclHandler = builder.start_doctype
    parser.AttlistDeclHandler = builder.attlist_decl
    return parser


def parse(
    source: Union[str, bytes],
    *,
    strip_whitespace: bool = True,
    dtd: Optional[Dtd] = None,
    id_attributes: Optional[set[tuple[str, str]]] = None,
    origin: Optional[str] = None,
) -> Document:
    """Parse XML text into a :class:`Document`.

    Args:
        source: XML as ``str`` or encoded ``bytes``.
        strip_whitespace: Drop whitespace-only text nodes (default True).
        dtd: Optional pre-parsed external DTD whose ID declarations are
            merged into the document's ``id_attributes``.
        id_attributes: Extra ``(element, attribute)`` pairs to treat as
            ID-typed even without a DTD (a common deployment shortcut).
        origin: Name of where the text came from (a file path, a URL);
            attached to any :class:`XmlParseError` as its ``source`` so
            tooling can print ``file:line:column`` diagnostics.

    Returns:
        The parsed :class:`Document`.

    Raises:
        XmlParseError: on malformed input.
    """
    builder = _TreeBuilder(strip_whitespace)
    parser = _make_parser(builder)
    try:
        # expat takes ``str`` and ``bytes`` alike; the tree is built
        # with the cycle collector paused (see ``model.bulk``).
        with bulk():
            parser.Parse(source, True)
    except expat.ExpatError as exc:
        # expat's offset is 0-based; report the conventional 1-based column.
        offset = getattr(exc, "offset", None)
        raise XmlParseError(
            expat.errors.messages[exc.code]
            if 0 <= exc.code < len(expat.errors.messages)
            else str(exc),
            line=getattr(exc, "lineno", None),
            column=offset + 1 if offset is not None else None,
            source=origin,
        ) from exc

    document = builder.finish()
    if document.root is None:
        raise XmlParseError("document has no root element", source=origin)
    if dtd is not None:
        document.id_attributes.update(dtd.id_attributes())
        if document.doctype_name is None:
            document.doctype_name = dtd.root_name
    if id_attributes:
        document.id_attributes.update(id_attributes)
    return document


def parse_file(
    path,
    *,
    strip_whitespace: bool = True,
    dtd: Optional[Dtd] = None,
    id_attributes: Optional[set[tuple[str, str]]] = None,
) -> Document:
    """Parse an XML file (path-like or binary file object) into a Document."""
    if hasattr(path, "read"):
        data = path.read()
        origin = getattr(path, "name", None)
    else:
        with io.open(path, "rb") as handle:
            data = handle.read()
        origin = os.fspath(path)
    return parse(
        data,
        strip_whitespace=strip_whitespace,
        dtd=dtd,
        id_attributes=id_attributes,
        origin=origin,
    )
