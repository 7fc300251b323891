"""Tests for the minimal DTD parser."""

import pytest

from repro.xmlkit import Dtd, DtdError, format_dtd, parse_dtd


SAMPLE = """
<!ELEMENT catalog (category+)>
<!ELEMENT category (title, product*)>
<!ELEMENT product (name, price)>
<!-- product identity -->
<!ATTLIST product
    sku ID #REQUIRED
    lang CDATA "en"
    status (new|sale|old) #IMPLIED
    ref IDREF #IMPLIED>
<!ATTLIST category code ID #IMPLIED>
<!ENTITY copy "©">
"""


class TestParseDtd:
    def test_elements(self):
        dtd = parse_dtd(SAMPLE)
        assert set(dtd.elements) == {"catalog", "category", "product"}
        assert dtd.elements["product"].content_model == "(name, price)"

    def test_id_attributes(self):
        dtd = parse_dtd(SAMPLE)
        assert dtd.id_attributes() == {("product", "sku"), ("category", "code")}

    def test_idref_is_not_id(self):
        dtd = parse_dtd(SAMPLE)
        assert ("product", "ref") not in dtd.id_attributes()

    def test_defaults(self):
        dtd = parse_dtd(SAMPLE)
        lang = dtd.attributes[("product", "lang")]
        assert lang.default_decl == "#DEFAULT"
        assert lang.default_value == "en"
        sku = dtd.attributes[("product", "sku")]
        assert sku.default_decl == "#REQUIRED"

    def test_enumeration_type(self):
        dtd = parse_dtd(SAMPLE)
        status = dtd.attributes[("product", "status")]
        assert status.attr_type.startswith("(")
        assert not status.is_id

    def test_fixed_default(self):
        dtd = parse_dtd('<!ATTLIST a v CDATA #FIXED "1.0">')
        attr = dtd.attributes[("a", "v")]
        assert attr.default_decl == "#FIXED"
        assert attr.default_value == "1.0"

    def test_comments_with_gt_ignored(self):
        dtd = parse_dtd("<!-- a > b --><!ELEMENT x (#PCDATA)>")
        assert "x" in dtd.elements

    def test_duplicate_declaration_ignored(self):
        dtd = parse_dtd("<!ELEMENT x (a)><!ELEMENT x (b)>")
        assert dtd.elements["x"].content_model == "(a)"

    def test_malformed_attlist_raises(self):
        with pytest.raises(DtdError):
            parse_dtd("<!ATTLIST a broken>")

    def test_attributes_of(self):
        dtd = parse_dtd(SAMPLE)
        names = {name for label, name in dtd.attributes if label == "product"}
        assert names == {"sku", "lang", "status", "ref"}

    def test_root_name(self):
        dtd = parse_dtd(SAMPLE, root_name="catalog")
        assert dtd.root_name == "catalog"

    def test_empty_input(self):
        dtd = parse_dtd("")
        assert dtd.elements == {}
        assert dtd.id_attributes() == set()


class TestFormatDtd:
    def test_roundtrip(self):
        dtd = parse_dtd(SAMPLE)
        again = parse_dtd(format_dtd(dtd))
        assert again.id_attributes() == dtd.id_attributes()
        assert set(again.elements) == set(dtd.elements)

    def test_format_includes_defaults(self):
        text = format_dtd(parse_dtd('<!ATTLIST a v CDATA "x">'))
        assert '"x"' in text
