"""The one-pass tree kernels against the routines they replaced.

``postorder``, compact ``serialize`` and ``annotate`` run on every tree
the store commits and the diff reads, so each was rewritten as one
tight pass.  The earlier routines are kept here as oracles: the new
ones must give the same node order, the same bytes and the same
digests and weights.
"""

from __future__ import annotations

import hashlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import annotate
from repro.xmlkit import Comment, Element, ProcessingInstruction, Text, parse
from repro.xmlkit.model import postorder
from repro.xmlkit.serializer import escape_attribute, escape_text, serialize
from tests.property.strategies import attribute_values, documents, labels

# -- oracles ------------------------------------------------------------------


def old_postorder(node):
    """The generator ``postorder`` was: one (node, expanded) pair per push."""
    stack = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded or current.is_leaf:
            yield current
            continue
        stack.append((current, True))
        for child in reversed(current.children):
            stack.append((child, False))


def old_serialize(node, *, xml_declaration=False, sort_attributes=False):
    """The node-by-node compact serializer, one ``write`` per piece."""
    out = io.StringIO()
    if xml_declaration:
        out.write('<?xml version="1.0" encoding="UTF-8"?>')
    top_level = list(node.children) if node.kind == "document" else [node]
    for top in top_level:
        stack = [top]
        while stack:
            current = stack.pop()
            if isinstance(current, str):
                out.write(current)
                continue
            kind = current.kind
            if kind == "element":
                items = current.attributes.items()
                if sort_attributes:
                    items = sorted(items)
                attrs = "".join(
                    f' {name}="{escape_attribute(str(value))}"'
                    for name, value in items
                )
                if not current.children:
                    out.write(f"<{current.label}{attrs}/>")
                    continue
                out.write(f"<{current.label}{attrs}>")
                stack.append(f"</{current.label}>")
                stack.extend(reversed(current.children))
            elif kind == "text":
                out.write(escape_text(current.value))
            elif kind == "comment":
                out.write(f"<!--{current.value}-->")
            elif kind == "pi":
                data = f" {current.value}" if current.value else ""
                out.write(f"<?{current.target}{data}?>")
    return out.getvalue()


def old_annotate(document, log_text_weight=True):
    """The per-``update`` annotate: ``(signatures, weights)`` maps."""
    signatures, weights = {}, {}

    def leaf_weight(length):
        return 1.0 + math.log(1 + length) if log_text_weight else 1.0

    for node in old_postorder(document):
        kind = node.kind
        hasher = hashlib.blake2b(digest_size=16)
        if kind == "element":
            label_bytes = node.label.encode("utf-8")
            hasher.update(b"E")
            hasher.update(str(len(label_bytes)).encode("ascii"))
            hasher.update(b":")
            hasher.update(label_bytes)
            for name, value in sorted(node.attributes.items()):
                name_bytes = name.encode("utf-8")
                value_bytes = str(value).encode("utf-8")
                hasher.update(str(len(name_bytes)).encode("ascii"))
                hasher.update(b"=")
                hasher.update(name_bytes)
                hasher.update(str(len(value_bytes)).encode("ascii"))
                hasher.update(b":")
                hasher.update(value_bytes)
            weight = 1.0
            for child in node.children:
                hasher.update(signatures[child])
                weight += weights[child]
        elif kind in ("text", "comment"):
            hasher.update(b"T" if kind == "text" else b"C")
            hasher.update(node.value.encode("utf-8"))
            weight = leaf_weight(len(node.value))
        elif kind == "pi":
            hasher.update(b"P")
            hasher.update(node.target.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(node.value.encode("utf-8"))
            weight = leaf_weight(len(node.value))
        else:
            hasher.update(b"D")
            weight = 1.0
            for child in node.children:
                hasher.update(signatures[child])
                weight += weights[child]
        signatures[node] = hasher.digest()
        weights[node] = weight
    return signatures, weights


def chain(depth: int) -> Element:
    """An element chain ``depth`` levels deep, a text leaf at the bottom."""
    root = current = Element("n0", {"k": "v"})
    for index in range(1, depth):
        current = current.append(Element(f"n{index}"))
    current.append(Text("bottom & <end>"))
    return root


# -- postorder ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(documents(max_depth=5))
def test_postorder_matches_the_generator(document):
    assert [id(n) for n in postorder(document)] == [
        id(n) for n in old_postorder(document)
    ]
    root = document.root
    assert [id(n) for n in postorder(root)] == [
        id(n) for n in old_postorder(root)
    ]


def test_postorder_matches_the_generator_5000_levels_deep():
    root = chain(5000)
    order = postorder(root)
    assert len(order) == 5001
    assert [id(n) for n in order] == [id(n) for n in old_postorder(root)]


def test_postorder_of_a_leaf_is_the_leaf():
    leaf = Text("x")
    assert postorder(leaf) == [leaf]


def test_callers_may_relabel_while_iterating():
    document = parse("<a><b>x</b><c/></a>")
    for number, node in enumerate(postorder(document)):
        node.xid = number
    assert [n.xid for n in old_postorder(document)] == [0, 1, 2, 3, 4]


# -- serialize ----------------------------------------------------------------

#: Values built from the characters the serializer must escape.
special_values = st.text(alphabet="&<>\"\t\n\rab ", min_size=0, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    documents(max_depth=5),
    st.booleans(),
    st.booleans(),
)
def test_serialize_matches_the_old_routine(document, sort_attributes, declare):
    options = dict(sort_attributes=sort_attributes, xml_declaration=declare)
    assert serialize(document, **options) == old_serialize(document, **options)
    root = document.root
    assert serialize(root, **options) == old_serialize(root, **options)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(labels, st.one_of(attribute_values, special_values),
                    max_size=4),
    st.lists(special_values.filter(bool), max_size=3),
    st.booleans(),
)
def test_serialize_escapes_like_the_old_routine(attributes, texts, sort):
    element = Element("e", attributes)
    for value in texts:
        element.append(Element("t")).append(Text(value))
    element.append(Comment("c"))
    element.append(ProcessingInstruction("p", ""))
    assert serialize(element, sort_attributes=sort) == old_serialize(
        element, sort_attributes=sort
    )


def test_serialize_escapes_every_special_character():
    element = Element("e", {"b": '& < > " \t \n \r', "a": "plain"})
    element.append(Text('& < > " \t \n \r'))
    for sort in (False, True):
        assert serialize(element, sort_attributes=sort) == old_serialize(
            element, sort_attributes=sort
        )
    assert serialize(element) == (
        '<e b="&amp; &lt; &gt; &quot; &#9; &#10; &#13;" a="plain">'
        '&amp; &lt; &gt; " \t \n &#13;</e>'
    )


def test_serialize_handles_any_depth():
    root = chain(5000)
    text = serialize(root)
    assert text == old_serialize(root)
    assert parse(text).root.deep_equal(root)


# -- annotate -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(documents(max_depth=5), st.booleans())
def test_annotate_matches_the_per_update_routine(document, log_text_weight):
    annotations = annotate(document, log_text_weight=log_text_weight)
    signatures, weights = old_annotate(document, log_text_weight)
    assert annotations.signatures == signatures
    assert annotations.weights == weights
    assert annotations.node_count == len(signatures)
    assert annotations.total_weight == weights[document]


def test_annotate_matches_on_a_deep_chain():
    root = chain(5000)
    signatures, weights = old_annotate(root)
    annotations = annotate(root)
    assert annotations.signatures == signatures
    assert annotations.weights == weights
