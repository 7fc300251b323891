"""Tests for HTML -> XML conversion (the paper's 'XMLizing')."""

import pytest

from repro.core import apply_delta, diff
from repro.xmlkit import parse, serialize
from repro.xmlkit.htmlize import htmlize


def roundtrips(document):
    """The XMLized result must be well-formed XML."""
    return parse(serialize(document)).deep_equal(document)


class TestBasicConversion:
    def test_simple_page(self):
        doc = htmlize("<html><body><p>hello</p></body></html>")
        assert doc.root.label == "html"
        body = doc.root.find("body")
        assert body.find("p").text_content() == "hello"
        assert roundtrips(doc)

    def test_tags_lowercased(self):
        doc = htmlize("<HTML><BODY><P>x</P></BODY></HTML>")
        assert doc.root.label == "html"
        assert doc.root.find("body") is not None

    def test_attributes_normalized(self):
        doc = htmlize('<html><input TYPE="text" DISABLED></html>')
        field = doc.root.find("input")
        assert field.attributes == {"type": "text", "disabled": "disabled"}

    def test_entities_decoded(self):
        doc = htmlize("<p>a &amp; b &lt; c &eacute;</p>")
        assert doc.root.text_content() == "a & b < c é"

    def test_result_is_always_wellformed(self):
        cases = [
            "just text, no tags at all",
            "",
            "<p>unclosed paragraph",
            "<b><i>crossed</b></i>",
            "</div> stray end tag <p>x</p>",
        ]
        for html in cases:
            doc = htmlize(html)
            assert doc.root is not None
            assert roundtrips(doc), html


class TestVoidElements:
    def test_br_and_img_self_close(self):
        doc = htmlize("<p>line one<br>line two<img src='x.png'></p>")
        p = doc.root
        kinds = [(c.kind, getattr(c, "label", None)) for c in p.children]
        assert ("element", "br") in kinds
        assert ("element", "img") in kinds
        assert roundtrips(doc)

    def test_xhtml_style_self_closing(self):
        doc = htmlize("<div><br/><hr/></div>")
        labels = [c.label for c in doc.root.children if c.kind == "element"]
        assert labels == ["br", "hr"]

    def test_end_tag_for_void_ignored(self):
        doc = htmlize("<p>a<br></br>b</p>")
        assert doc.root.text_content() == "ab"


class TestImplicitClosing:
    def test_paragraphs(self):
        doc = htmlize("<body><p>one<p>two<p>three</body>")
        paragraphs = doc.root.find_all("p")
        assert [p.text_content() for p in paragraphs] == [
            "one",
            "two",
            "three",
        ]

    def test_list_items(self):
        doc = htmlize("<ul><li>a<li>b<li>c</ul>")
        items = doc.root.find_all("li")
        assert len(items) == 3
        assert all(item.parent is doc.root for item in items)

    def test_table_cells_and_rows(self):
        doc = htmlize(
            "<table><tr><td>1<td>2<tr><td>3<td>4</table>"
        )
        rows = doc.root.find_all("tr")
        assert len(rows) == 2
        assert [td.text_content() for td in rows[0].find_all("td")] == ["1", "2"]
        assert [td.text_content() for td in rows[1].find_all("td")] == ["3", "4"]

    def test_block_element_closes_paragraph(self):
        doc = htmlize("<body><p>text<div>block</div></body>")
        body = doc.root
        labels = [c.label for c in body.children if c.kind == "element"]
        assert labels == ["p", "div"]

    def test_definition_lists(self):
        doc = htmlize("<dl><dt>term<dd>def<dt>term2<dd>def2</dl>")
        labels = [c.label for c in doc.root.children if c.kind == "element"]
        assert labels == ["dt", "dd", "dt", "dd"]

    def test_options(self):
        doc = htmlize("<select><option>a<option>b</select>")
        assert len(doc.root.find_all("option")) == 2


class TestComments:
    def test_dropped_by_default(self):
        doc = htmlize("<p><!-- note -->x</p>")
        assert all(c.kind != "comment" for c in doc.root.children)

    def test_kept_on_request(self):
        doc = htmlize("<p><!-- note -->x</p>", keep_comments=True)
        assert any(c.kind == "comment" for c in doc.root.children)
        assert roundtrips(doc)

    def test_double_dash_sanitized(self):
        doc = htmlize("<p><!-- a -- b --></p>", keep_comments=True)
        assert roundtrips(doc)


class TestDiffOnHtml:
    """The paper's point: once XMLized, HTML diffs like any XML."""

    def test_diff_two_page_versions(self):
        old = htmlize(
            "<html><body><h1>News</h1>"
            "<ul><li>story one<li>story two</ul></body></html>"
        )
        new = htmlize(
            "<html><body><h1>News</h1>"
            "<ul><li>story two<li>story three</ul></body></html>"
        )
        delta = diff(old, new)
        assert not delta.is_empty()
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_moved_section_detected_as_move(self):
        old = htmlize(
            "<html><body><div id='a'><p>long shared paragraph of text"
            " that anchors the match</p></div><div id='b'></div></body></html>"
        )
        new = htmlize(
            "<html><body><div id='a'></div><div id='b'>"
            "<p>long shared paragraph of text that anchors the match</p>"
            "</div></body></html>"
        )
        delta = diff(old, new)
        assert len(delta.by_kind("move")) == 1
