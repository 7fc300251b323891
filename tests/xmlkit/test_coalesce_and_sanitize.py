"""Unit tests for text coalescing and HTML name sanitization."""

from repro.xmlkit import (
    Element,
    Text,
    coalesce_text,
    parse,
    serialize,
)
from repro.xmlkit.htmlize import htmlize


class TestCoalesceText:
    def test_adjacent_pair_merges(self):
        parent = Element("p")
        parent.append(Text("one "))
        parent.append(Text("two"))
        removed = coalesce_text(parent)
        assert removed == 1
        assert len(parent.children) == 1
        assert parent.children[0].value == "one two"

    def test_first_node_keeps_xid(self):
        parent = Element("p")
        first = parent.append(Text("a"))
        second = parent.append(Text("b"))
        first.xid = 7
        second.xid = 8
        coalesce_text(parent)
        assert parent.children[0].xid == 7

    def test_run_of_three(self):
        parent = Element("p")
        for value in ("a", "b", "c"):
            parent.append(Text(value))
        assert coalesce_text(parent) == 2
        assert parent.children[0].value == "abc"

    def test_non_adjacent_untouched(self):
        parent = Element("p")
        parent.append(Text("a"))
        parent.append(Element("x"))
        parent.append(Text("b"))
        assert coalesce_text(parent) == 0
        assert len(parent.children) == 3

    def test_recurses_into_subtrees(self):
        doc = parse("<a><b>x</b></a>")
        inner = doc.root.children[0]
        inner.append(Text("y"))
        assert coalesce_text(doc) == 1
        assert inner.children[0].value == "xy"

    def test_result_serialization_stable(self):
        parent = Element("p")
        parent.append(Text("a"))
        parent.append(Text("b"))
        coalesce_text(parent)
        text = serialize(parent)
        assert parse(text, strip_whitespace=False).root.deep_equal(parent)

    def test_empty_and_leaf_nodes(self):
        assert coalesce_text(Element("empty")) == 0
        assert coalesce_text(Text("t")) == 0

    def test_empty_text_dropped(self):
        parent = Element("p")
        parent.append(Text(""))
        parent.append(Element("x"))
        parent.append(Text(""))
        assert coalesce_text(parent) == 2
        assert [child.kind for child in parent.children] == ["element"]
        text = serialize(parent)
        assert parse(text, strip_whitespace=False).root.deep_equal(parent)

    def test_empty_text_between_runs(self):
        parent = Element("p")
        for value in ("", "a", "", "b"):
            parent.append(Text(value))
        second = parent.children[1]
        assert coalesce_text(parent) == 3
        assert len(parent.children) == 1
        assert parent.children[0] is second
        assert second.value == "ab"


class TestHtmlNameSanitization:
    def test_invalid_attribute_characters(self):
        doc = htmlize("<a $price='1' b%c='2'>x</a>")
        attrs = doc.root.attributes
        assert "_price" in attrs
        assert "b_c" in attrs
        # result is well-formed
        parse(serialize(doc))

    def test_digit_leading_attribute(self):
        doc = htmlize("<a 2col='yes'>x</a>")
        assert "_2col" in doc.root.attributes
        parse(serialize(doc))

    def test_valid_names_unchanged(self):
        doc = htmlize("<a data-id='1' class='c'>x</a>")
        assert set(doc.root.attributes) == {"data-id", "class"}

    def test_comment_trailing_dash_sanitized(self):
        doc = htmlize("<p><!-- dangling- -->x<!--also--></p>",
                      keep_comments=True)
        parse(serialize(doc))  # must not raise

    def test_comment_with_double_dash_sanitized(self):
        doc = htmlize("<p><!-- a--b --></p>", keep_comments=True)
        parse(serialize(doc))


class TestSerializerCommentGuards:
    def test_trailing_dash_rejected(self):
        import pytest

        from repro.xmlkit import Comment, Document, XmlSerializeError

        doc = Document(Element("a"))
        doc.root.append(Comment("ends with-"))
        with pytest.raises(XmlSerializeError):
            serialize(doc)
