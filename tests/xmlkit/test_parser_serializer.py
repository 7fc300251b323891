"""Parser and serializer tests, including round trips."""

import io

import pytest

from repro.xmlkit import (
    XmlParseError,
    escape_attribute,
    escape_text,
    parse,
    parse_file,
    serialize,
    serialize_bytes,
    write_file,
)


class TestParserBasics:
    def test_simple_document(self):
        doc = parse("<a><b>hi</b></a>")
        assert doc.root.label == "a"
        b = doc.root.children[0]
        assert b.label == "b"
        assert b.children[0].value == "hi"

    def test_attributes(self):
        doc = parse('<a x="1" y="two"/>')
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_bytes_input(self):
        doc = parse(b"<a>caf\xc3\xa9</a>")
        assert doc.root.children[0].value == "café"

    def test_entities_expanded(self):
        doc = parse("<a>&lt;tag&gt; &amp; &quot;x&quot;</a>")
        assert doc.root.children[0].value == '<tag> & "x"'

    def test_cdata(self):
        doc = parse("<a><![CDATA[<raw> & stuff]]></a>")
        assert doc.root.children[0].value == "<raw> & stuff"

    def test_comment_and_pi(self):
        doc = parse("<a><!--note--><?target data?></a>")
        kinds = [child.kind for child in doc.root.children]
        assert kinds == ["comment", "pi"]
        assert doc.root.children[0].value == "note"
        assert doc.root.children[1].target == "target"
        assert doc.root.children[1].value == "data"

    def test_prolog_comment(self):
        doc = parse("<!--before--><a/>")
        assert doc.children[0].kind == "comment"
        assert doc.root.label == "a"

    def test_malformed_raises_with_location(self):
        with pytest.raises(XmlParseError) as excinfo:
            parse("<a><b></a>")
        assert excinfo.value.line is not None

    def test_empty_input_raises(self):
        with pytest.raises(XmlParseError):
            parse("")

    def test_adjacent_character_data_merges(self):
        # Entities split expat character-data events; we merge them.
        doc = parse("<a>one&amp;two</a>")
        assert len(doc.root.children) == 1
        assert doc.root.children[0].value == "one&two"


class TestWhitespacePolicy:
    PRETTY = "<a>\n  <b>text</b>\n  <c/>\n</a>"

    def test_stripped_by_default(self):
        doc = parse(self.PRETTY)
        assert [child.kind for child in doc.root.children] == [
            "element",
            "element",
        ]

    def test_preserved_on_request(self):
        doc = parse(self.PRETTY, strip_whitespace=False)
        kinds = [child.kind for child in doc.root.children]
        assert kinds == ["text", "element", "text", "element", "text"]

    def test_significant_whitespace_kept(self):
        doc = parse("<a>  padded  </a>")
        assert doc.root.children[0].value == "  padded  "


class TestDtdIntegration:
    DOC = (
        "<!DOCTYPE catalog [\n"
        "<!ELEMENT catalog (product*)>\n"
        "<!ELEMENT product (#PCDATA)>\n"
        "<!ATTLIST product sku ID #REQUIRED lang CDATA #IMPLIED>\n"
        "]>\n"
        '<catalog><product sku="p1">x</product></catalog>'
    )

    def test_id_attributes_discovered(self):
        doc = parse(self.DOC)
        assert ("product", "sku") in doc.id_attributes
        assert ("product", "lang") not in doc.id_attributes

    def test_doctype_name(self):
        doc = parse(self.DOC)
        assert doc.doctype_name == "catalog"

    def test_explicit_id_attributes(self):
        doc = parse("<a><b k='1'/></a>", id_attributes={("b", "k")})
        assert ("b", "k") in doc.id_attributes


class TestSerializer:
    def test_escaping_text(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_escaping_attribute(self):
        assert escape_attribute('say "hi" & <go>') == (
            "say &quot;hi&quot; &amp; &lt;go&gt;"
        )

    def test_compact_output(self):
        doc = parse('<a x="1"><b>t</b><c/></a>')
        assert serialize(doc) == '<a x="1"><b>t</b><c/></a>'

    def test_sorted_attributes(self):
        doc = parse('<a z="1" a="2"/>')
        assert serialize(doc, sort_attributes=True) == '<a a="2" z="1"/>'

    def test_indented_output_reparses_equal(self):
        doc = parse("<a><b><c>deep</c></b><d/></a>")
        pretty = serialize(doc, indent=2)
        assert "\n" in pretty
        assert parse(pretty).deep_equal(doc)

    def test_serialize_bytes_utf8(self):
        doc = parse("<a>café</a>")
        assert "café".encode() in serialize_bytes(doc)

    def test_write_file(self, tmp_path):
        doc = parse("<a>x</a>")
        target = tmp_path / "out.xml"
        size = write_file(doc, target)
        assert target.read_bytes() == b"<a>x</a>"
        assert size == 8


class TestRoundTrip:
    CASES = [
        "<a/>",
        "<a>text</a>",
        '<a x="1" y="&amp;&lt;&quot;"><b/>tail<b>two</b></a>',
        "<root><!--c--><?pi data?><child>mixed <b>bold</b> end</child></root>",
        "<a>  leading and trailing  </a>",
        "<a><b><c><d><e>deep</e></d></c></b></a>",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_serialize_parse(self, text):
        doc = parse(text, strip_whitespace=False)
        again = parse(serialize(doc), strip_whitespace=False)
        assert again.deep_equal(doc)

    def test_parse_file_roundtrip(self, tmp_path):
        source = tmp_path / "doc.xml"
        source.write_text("<a><b>1</b></a>")
        doc = parse_file(source)
        assert doc.root.children[0].children[0].value == "1"
        doc2 = parse_file(io.BytesIO(b"<a><b>1</b></a>"))
        assert doc2.deep_equal(doc)
