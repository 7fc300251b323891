"""Serializer edge cases and error paths."""

import pytest

from repro.xmlkit import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    XmlSerializeError,
    parse,
    serialize,
)


class TestErrorPaths:
    def test_comment_with_double_dash(self):
        doc = Document(Element("a"))
        doc.root.append(Comment("bad -- comment"))
        with pytest.raises(XmlSerializeError):
            serialize(doc)

    def test_pi_with_closing_marker(self):
        doc = Document(Element("a"))
        doc.root.append(ProcessingInstruction("p", "evil ?> data"))
        with pytest.raises(XmlSerializeError):
            serialize(doc)


class TestAttributeHandling:
    def test_non_string_attribute_values_coerced(self):
        element = Element("a", {"n": 42})
        assert serialize(element) == '<a n="42"/>'

    def test_attribute_with_all_special_chars(self):
        element = Element("a", {"v": '<>&"'})
        text = serialize(element)
        assert text == '<a v="&lt;&gt;&amp;&quot;"/>'
        assert parse(text).root.attributes["v"] == '<>&"'

    def test_single_quote_kept_verbatim(self):
        element = Element("a", {"v": "it's"})
        assert serialize(element) == '<a v="it\'s"/>'
        assert parse(serialize(element)).root.attributes["v"] == "it's"

    def test_insertion_order_preserved_by_default(self):
        element = Element("a", {"z": "1", "a": "2"})
        assert serialize(element) == '<a z="1" a="2"/>'


class TestIndentation:
    def test_text_only_children_stay_inline(self):
        doc = parse("<a><b>inline text</b></a>")
        pretty = serialize(doc, indent=2)
        assert "<b>inline text</b>" in pretty

    def test_nested_elements_indent(self):
        doc = parse("<a><b><c/></b></a>")
        pretty = serialize(doc, indent=2)
        assert "\n  <b>" in pretty
        assert "\n    <c/>" in pretty

    def test_mixed_content_not_mangled(self):
        source = "<p>before <b>bold</b> after</p>"
        doc = parse(source, strip_whitespace=False)
        pretty = serialize(doc, indent=2)
        again = parse(pretty, strip_whitespace=False)
        assert again.root.text_content() == doc.root.text_content()

    def test_prolog_nodes_with_indent(self):
        doc = parse("<!--c--><?p d?><a><b/></a>", strip_whitespace=False)
        pretty = serialize(doc, indent=2)
        assert parse(pretty).deep_equal(parse("<!--c--><?p d?><a><b/></a>"))


class TestSpecialContent:
    def test_text_with_cdata_like_content(self):
        doc = Document(Element("a"))
        doc.root.append(Text("<![CDATA[not a real cdata]]>"))
        again = parse(serialize(doc), strip_whitespace=False)
        assert again.deep_equal(doc)

    def test_unicode_content(self):
        source = "<a läng='中'>héllo wörld — ≤≥</a>"
        doc = parse(source)
        assert parse(serialize(doc)).deep_equal(doc)

    def test_serialize_single_leaf_nodes(self):
        assert serialize(Text("a<b")) == "a&lt;b"
        assert serialize(Comment("note")) == "<!--note-->"
        assert serialize(ProcessingInstruction("t", "d")) == "<?t d?>"
        assert serialize(ProcessingInstruction("t")) == "<?t?>"

    def test_empty_document_serializes_empty(self):
        assert serialize(Document()) == ""


class TestLineEndAndTabReferences:
    """Characters a parser normalizes must be written as references."""

    def test_attribute_tab_newline_and_return_round_trip(self):
        doc = parse('<a x="1&#10;2&#9;3&#13;4">t&#13;u</a>')
        assert doc.root.attributes["x"] == "1\n2\t3\r4"
        assert doc.root.children[0].value == "t\ru"
        again = parse(serialize(doc))
        assert again.root.attributes["x"] == "1\n2\t3\r4"
        assert again.root.children[0].value == "t\ru"
        assert again.deep_equal(doc)

    def test_escaped_forms(self):
        element = Element("a", {"v": "\t\n\r"})
        element.append(Text("x\ry\nz\tw"))
        assert serialize(element) == '<a v="&#9;&#10;&#13;">x&#13;y\nz\tw</a>'

    def test_crlf_text_survives(self):
        doc = Document(Element("a"))
        doc.root.append(Text("line one\r\nline two\r"))
        again = parse(serialize(doc), strip_whitespace=False)
        assert again.root.children[0].value == "line one\r\nline two\r"
