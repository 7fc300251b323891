"""XMLizing HTML documents (Section 1 of the paper).

"Observe that the diff we describe here is for XML documents.  It can
also be used for HTML documents by XMLizing them, a relatively easy task
that mostly consists in properly closing tags."

This module performs that task: it parses real-world tag soup with the
stdlib tolerant HTML parser and emits a well-formed
:class:`~repro.xmlkit.model.Document`:

- void elements (``<br>``, ``<img>``, ...) become self-closed;
- elements that HTML lets remain open (``<p>``, ``<li>``, ``<td>``, ...)
  are implicitly closed when a sibling of the same group starts;
- stray end tags are ignored; unclosed elements are closed at EOF;
- tag and attribute names are lowercased, valueless attributes get their
  name as value (``<input disabled>`` -> ``disabled="disabled"``);
- text is preserved verbatim (entities decoded by the parser).

The output is an ordinary document: the diff, the deltas and the whole
versioning stack work on crawled HTML exactly as the paper describes.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

from repro.xmlkit.model import Comment, Document, Element, Text

_NAME_START_RE = re.compile(r"[A-Za-z_]")
_NAME_CHAR_RE = re.compile(r"[-A-Za-z0-9._]")


def _xml_name(raw: str) -> str:
    """Coerce a tag-soup name into a valid XML name.

    Real HTML contains attribute names like ``$label`` or ``2col``; XML
    rejects them, so invalid characters become underscores and a leading
    non-letter gets an underscore prefix.  Valid names pass unchanged.
    """
    if not raw:
        return "_"
    characters = [
        char if _NAME_CHAR_RE.match(char) else "_" for char in raw
    ]
    if not _NAME_START_RE.match(characters[0]):
        characters.insert(0, "_")
    return "".join(characters)

__all__ = ["htmlize", "VOID_ELEMENTS"]

#: Elements with no content model in HTML — always self-closing in XML.
VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

#: start of `key` implicitly closes an open `value` ancestor-or-sibling.
_IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "p": frozenset(["p"]),
    "li": frozenset(["li"]),
    "dt": frozenset(["dt", "dd"]),
    "dd": frozenset(["dt", "dd"]),
    "tr": frozenset(["tr", "td", "th"]),
    "td": frozenset(["td", "th"]),
    "th": frozenset(["td", "th"]),
    "thead": frozenset(["thead", "tbody", "tfoot"]),
    "tbody": frozenset(["thead", "tbody", "tfoot"]),
    "tfoot": frozenset(["thead", "tbody", "tfoot"]),
    "option": frozenset(["option"]),
    "optgroup": frozenset(["option", "optgroup"]),
    "colgroup": frozenset(["colgroup"]),
    "caption": frozenset(["caption"]),
}

#: Elements whose start implies a table row/cell context never nests them.
_BLOCK_STARTERS_CLOSING_P = frozenset(
    "address article aside blockquote details div dl fieldset figcaption "
    "figure footer form h1 h2 h3 h4 h5 h6 header hr main menu nav ol p "
    "pre section table ul".split()
)


class _HtmlTreeBuilder(HTMLParser):
    """Tolerant HTML parser building the xmlkit tree model."""

    def __init__(self, keep_comments: bool):
        super().__init__(convert_charrefs=True)
        self.document = Document()
        self._stack: list = [self.document]
        self._keep_comments = keep_comments
        self._pending_text: list[str] = []

    # -- text buffering -----------------------------------------------------

    def _flush_text(self) -> None:
        if not self._pending_text:
            return
        value = "".join(self._pending_text)
        self._pending_text.clear()
        parent = self._stack[-1]
        if parent.kind == "document":
            return  # stray top-level text (whitespace between html chunks)
        if not value.strip():
            return  # formatting whitespace
        last = parent.children[-1] if parent.children else None
        if last is not None and last.kind == "text":
            last.value += value
        else:
            parent.append(Text(value))

    # -- stack helpers --------------------------------------------------------

    def _close_implicit(self, tag: str) -> None:
        closers = set(_IMPLICIT_CLOSERS.get(tag, frozenset()))
        if tag in _BLOCK_STARTERS_CLOSING_P:
            closers.add("p")
        if not closers:
            return
        top = self._stack[-1]
        while top.kind == "element" and top.label in closers:
            self._flush_text()
            self._stack.pop()
            top = self._stack[-1]

    # -- HTMLParser callbacks -----------------------------------------------------

    def handle_starttag(self, tag: str, attrs) -> None:
        self._flush_text()
        tag = _xml_name(tag.lower())
        self._close_implicit(tag)
        element = Element(
            tag,
            {
                _xml_name(name.lower()): (
                    value if value is not None else name.lower()
                )
                for name, value in attrs
            },
        )
        parent = self._stack[-1]
        if parent.kind == "document" and parent.root is not None:
            # junk after </html>: reparent under the root to stay well-formed
            parent = parent.root
        parent.append(element)
        if tag not in VOID_ELEMENTS:
            self._stack.append(element)

    def handle_startendtag(self, tag, attrs) -> None:
        # <br/> style — treat as a start of a void-like element.
        self._flush_text()
        tag = _xml_name(tag.lower())
        element = Element(
            tag,
            {
                _xml_name(name.lower()): (
                    value if value is not None else name.lower()
                )
                for name, value in attrs
            },
        )
        parent = self._stack[-1]
        if parent.kind == "document" and parent.root is not None:
            parent = parent.root
        parent.append(element)

    def handle_endtag(self, tag: str) -> None:
        self._flush_text()
        tag = _xml_name(tag.lower())
        if tag in VOID_ELEMENTS:
            return  # </br> and friends are noise
        # find the matching open element; ignore stray end tags entirely
        for index in range(len(self._stack) - 1, 0, -1):
            node = self._stack[index]
            if node.kind == "element" and node.label == tag:
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        self._pending_text.append(data)

    def handle_comment(self, data: str) -> None:
        self._flush_text()
        if not self._keep_comments:
            return
        parent = self._stack[-1]
        if parent.kind == "document" and parent.root is not None:
            parent = parent.root
        # guard the XML comment constraints (no '--', no trailing '-')
        safe = data.replace("--", "- -")
        if safe.endswith("-"):
            safe += " "
        parent.append(Comment(safe))

    def close_document(self) -> Document:
        self._flush_text()
        self.close()
        self._flush_text()
        return self.document


def htmlize(html: str, *, keep_comments: bool = False) -> Document:
    """Convert an HTML string into a well-formed XML document.

    Args:
        html: Arbitrary HTML, however sloppy.
        keep_comments: Preserve HTML comments as XML comments.

    Returns:
        A :class:`Document`.  If the input had no element at all, a
        ``<html>`` root wrapping the text content is synthesized so the
        result is always a valid XML document.
    """
    builder = _HtmlTreeBuilder(keep_comments)
    builder.feed(html)
    document = builder.close_document()
    if document.root is None:
        root = Element("html")
        stripped = html.strip()
        # tag-free input: preserve the text content
        if stripped and "<" not in stripped:
            root.append(Text(stripped))
        fresh = Document(root)
        return fresh
    return document
