"""Hypothesis strategies for random XML documents.

The document strategy generates trees that survive a serialize/parse round
trip *exactly*, which requires respecting XML's merging rules: no adjacent
text-node siblings, no empty text nodes, no control characters, no ``--``
in comments.  Everything else — depth, fanout, labels, attributes, special
characters needing escaping — is explored freely.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xmlkit import Comment, Document, Element, ProcessingInstruction, Text

# XML names: keep simple but include dots/dashes/digits after the head.
labels = st.from_regex(r"[a-z][a-z0-9._-]{0,8}", fullmatch=True)

# Text content: printable, includes XML-special characters and the tab,
# line feed and carriage return the serializer must protect from a
# parser's normalization; no other control chars (expat rejects them).
_text_alphabet = st.characters(
    min_codepoint=0x20,
    max_codepoint=0x2FF,
    exclude_characters="\x7f",
    exclude_categories=("Cc", "Cs"),
    include_characters="\t\n\r",
)
text_values = st.text(alphabet=_text_alphabet, min_size=1, max_size=40)
attribute_values = st.text(alphabet=_text_alphabet, min_size=0, max_size=20)

# Comments and PIs have no character references, so a carriage return
# in them cannot survive a round trip (a parser turns it into a line
# feed): an XML-spec limitation, not an implementation one.
comment_values = text_values.map(
    lambda value: value.replace("--", "__").replace("\r", "\n").rstrip("-")
).filter(lambda v: "--" not in v and not v.endswith("-"))

# PI data starts after the whitespace separating it from the target, so
# leading whitespace cannot survive a round trip either; the delta
# representation wraps PI payloads and is unaffected.
pi_values = text_values.map(
    lambda value: value.replace("?>", "__").replace("\r", "\n").lstrip()
)

attributes = st.dictionaries(labels, attribute_values, max_size=3)


@st.composite
def elements(draw, max_depth=4):
    """A random element with a bounded-depth random subtree."""
    element = Element(draw(labels), draw(attributes))
    if max_depth <= 0:
        return element
    children = draw(
        st.lists(
            st.one_of(
                st.builds(Text, text_values),
                st.builds(Comment, comment_values),
                st.builds(
                    ProcessingInstruction,
                    labels.filter(lambda l: l.lower() != "xml"),
                    pi_values,
                ),
                elements(max_depth=max_depth - 1),
            ),
            max_size=4,
        )
    )
    previous_was_text = False
    for child in children:
        if child.kind == "text":
            if previous_was_text:
                continue  # adjacent text merges on reparse: skip
            previous_was_text = True
        else:
            previous_was_text = False
        element.append(child)
    return element


@st.composite
def documents(draw, max_depth=4):
    """A random document (single root element, optional prolog comment)."""
    document = Document()
    if draw(st.booleans()):
        document.append(Comment(draw(comment_values)))
    document.append(draw(elements(max_depth=max_depth)))
    return document
