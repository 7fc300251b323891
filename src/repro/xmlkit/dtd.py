"""Minimal DTD support.

The diff algorithm only needs one piece of schema knowledge: which
attributes are declared with type ``ID``.  An element carrying an ID-typed
attribute is uniquely identified by its value, which gives BULD Phase 1 a
free, exact matching rule (Section 5.2 of the paper).

This module parses the declarations found in an internal DTD subset (or in
a standalone DTD file) just far enough to recover ``<!ELEMENT>`` and
``<!ATTLIST>`` declarations.  Everything it does not understand (entities,
notations, conditional sections) is skipped without error — schema
completeness is not a goal, ID discovery is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.xmlkit.errors import DtdError

__all__ = ["AttributeDecl", "Dtd", "ElementDecl", "parse_dtd"]

#: Attribute types defined by the XML 1.0 specification.
_ATTRIBUTE_TYPES = (
    "CDATA",
    "IDREFS",  # longest-match first: IDREFS before IDREF before ID
    "IDREF",
    "ID",
    "ENTITIES",
    "ENTITY",
    "NMTOKENS",
    "NMTOKEN",
)

_NAME = r"[A-Za-z_:][-A-Za-z0-9._:]*"
_ELEMENT_RE = re.compile(
    rf"<!ELEMENT\s+({_NAME})\s+(.*?)>", re.DOTALL
)
_ATTLIST_RE = re.compile(
    rf"<!ATTLIST\s+({_NAME})\s+(.*?)>", re.DOTALL
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_PI_RE = re.compile(r"<\?.*?\?>", re.DOTALL)
_ENTITY_RE = re.compile(r"<!ENTITY\s+.*?>", re.DOTALL)
_NOTATION_RE = re.compile(r"<!NOTATION\s+.*?>", re.DOTALL)

_ATTDEF_RE = re.compile(
    rf"({_NAME})\s+"  # attribute name
    r"("  # attribute type:
    + "|".join(_ATTRIBUTE_TYPES)
    + r"|NOTATION\s*\([^)]*\)"  # NOTATION (a|b)
    + r"|\([^)]*\)"  # enumeration (a|b|c)
    r")\s*"
    r"(#REQUIRED|#IMPLIED|#FIXED\s+(?:\"[^\"]*\"|'[^']*')"
    r"|\"[^\"]*\"|'[^']*')?",
    re.DOTALL,
)


@dataclass(frozen=True)
class ElementDecl:
    """An ``<!ELEMENT name content-model>`` declaration."""

    name: str
    content_model: str


@dataclass(frozen=True)
class AttributeDecl:
    """One attribute definition from an ``<!ATTLIST>`` declaration."""

    element: str
    name: str
    attr_type: str
    default_decl: str = "#IMPLIED"
    default_value: Optional[str] = None

    @property
    def is_id(self) -> bool:
        return self.attr_type == "ID"


@dataclass
class Dtd:
    """Parsed declarations of a DTD (internal subset or standalone file)."""

    root_name: Optional[str] = None
    elements: dict[str, ElementDecl] = field(default_factory=dict)
    attributes: dict[tuple[str, str], AttributeDecl] = field(default_factory=dict)

    def add_element(self, decl: ElementDecl) -> None:
        # XML allows at most one declaration per element; later duplicates
        # are ignored, matching common parser behaviour.
        self.elements.setdefault(decl.name, decl)

    def add_attribute(self, decl: AttributeDecl) -> None:
        self.attributes.setdefault((decl.element, decl.name), decl)

    def id_attributes(self) -> set[tuple[str, str]]:
        """``(element label, attribute name)`` pairs declared with type ID."""
        return {key for key, decl in self.attributes.items() if decl.is_id}


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] in "\"'" and value[-1] == value[0]:
        return value[1:-1]
    return value


def parse_dtd(text: str, root_name: Optional[str] = None) -> Dtd:
    """Parse DTD declaration text into a :class:`Dtd`.

    Args:
        text: The declarations (content of an internal subset between
            ``[`` and ``]``, or a whole ``.dtd`` file).
        root_name: Document root name from the DOCTYPE, if known.

    Returns:
        A :class:`Dtd` with element and attribute declarations.

    Raises:
        DtdError: when a declaration is recognizably malformed (an
            ``<!ATTLIST`` with an unparseable attribute definition).
    """
    dtd = Dtd(root_name=root_name)
    # Remove constructs we deliberately ignore so they cannot confuse the
    # declaration regexes (e.g. a ">" inside a comment).
    cleaned = _COMMENT_RE.sub(" ", text)
    cleaned = _PI_RE.sub(" ", cleaned)
    cleaned = _ENTITY_RE.sub(" ", cleaned)
    cleaned = _NOTATION_RE.sub(" ", cleaned)

    for match in _ELEMENT_RE.finditer(cleaned):
        name, model = match.group(1), " ".join(match.group(2).split())
        dtd.add_element(ElementDecl(name, model))

    for match in _ATTLIST_RE.finditer(cleaned):
        element_name, body = match.group(1), match.group(2).strip()
        if not body:
            continue
        position = 0
        while position < len(body):
            remainder = body[position:].lstrip()
            if not remainder:
                break
            offset = len(body) - len(remainder) - position
            attdef = _ATTDEF_RE.match(remainder)
            if attdef is None:
                raise DtdError(
                    f"malformed attribute definition in <!ATTLIST {element_name}>:"
                    f" {remainder[:40]!r}"
                )
            attr_name = attdef.group(1)
            attr_type = " ".join(attdef.group(2).split())
            default = attdef.group(3) or "#IMPLIED"
            default_value = None
            if default.startswith("#FIXED"):
                default_decl = "#FIXED"
                default_value = _strip_quotes(default[len("#FIXED"):].strip())
            elif default in ("#REQUIRED", "#IMPLIED"):
                default_decl = default
            else:
                default_decl = "#DEFAULT"
                default_value = _strip_quotes(default)
            dtd.add_attribute(
                AttributeDecl(
                    element=element_name,
                    name=attr_name,
                    attr_type=attr_type,
                    default_decl=default_decl,
                    default_value=default_value,
                )
            )
            position += offset + attdef.end()
    return dtd


def format_dtd(dtd: Dtd) -> str:
    """Render a :class:`Dtd` back to declaration text (round-trippable)."""
    lines = []
    for decl in dtd.elements.values():
        lines.append(f"<!ELEMENT {decl.name} {decl.content_model}>")
    by_element: dict[str, list[AttributeDecl]] = {}
    for (element, _), attr in dtd.attributes.items():
        by_element.setdefault(element, []).append(attr)
    for element, attrs in by_element.items():
        parts = []
        for attr in attrs:
            if attr.default_decl == "#DEFAULT":
                default = f'"{attr.default_value}"'
            elif attr.default_decl == "#FIXED":
                default = f'#FIXED "{attr.default_value}"'
            else:
                default = attr.default_decl
            parts.append(f"{attr.name} {attr.attr_type} {default}")
        lines.append(f"<!ATTLIST {element} " + " ".join(parts) + ">")
    return "\n".join(lines)
