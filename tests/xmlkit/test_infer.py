"""Tests for DTD inference (content models, attributes, ID candidates)."""

from repro.xmlkit import parse
from repro.xmlkit.infer import infer_dtd, infer_id_attributes


CATALOG = parse(
    "<catalog>"
    '<product sku="p1" lang="en"><name>A</name><price>1</price></product>'
    '<product sku="p2"><name>B</name><price>2</price>'
    "<desc>long text</desc></product>"
    '<product sku="p3"><name>C</name><price>3</price></product>'
    "</catalog>"
)


class TestContentModels:
    def test_empty_element(self):
        dtd = infer_dtd(parse("<a><b/><b/></a>"))
        assert dtd.elements["b"].content_model == "EMPTY"

    def test_pcdata_element(self):
        dtd = infer_dtd(parse("<a><b>text</b></a>"))
        assert dtd.elements["b"].content_model == "(#PCDATA)"

    def test_sequence_with_multiplicities(self):
        dtd = infer_dtd(CATALOG)
        assert dtd.elements["product"].content_model == "(name, price, desc?)"
        assert dtd.elements["catalog"].content_model == "(product+)"

    def test_optional_vs_required(self):
        dtd = infer_dtd(
            parse("<r><e><x/></e><e><x/><y/></e><e><x/><x/></e></r>")
        )
        assert dtd.elements["e"].content_model == "(x+, y?)"

    def test_mixed_content(self):
        dtd = infer_dtd(parse("<a>text <b>bold</b> more</a>"))
        assert dtd.elements["a"].content_model == "(#PCDATA | b)*"

    def test_order_disagreement_falls_back_to_alternation(self):
        dtd = infer_dtd(parse("<r><e><x/><y/></e><e><y/><x/></e></r>"))
        assert dtd.elements["e"].content_model == "(x | y)*"

    def test_noncontiguous_repeat_falls_back(self):
        dtd = infer_dtd(parse("<r><e><x/><y/><x/></e></r>"))
        assert dtd.elements["e"].content_model == "(x | y)*"

    def test_multiple_documents(self):
        dtd = infer_dtd([parse("<a><b/></a>"), parse("<a><b/><c>t</c></a>")])
        assert dtd.elements["a"].content_model == "(b, c?)"


class TestAttributeInference:
    def test_required_vs_implied(self):
        dtd = infer_dtd(CATALOG)
        assert dtd.attributes[("product", "sku")].default_decl == "#REQUIRED"
        assert dtd.attributes[("product", "lang")].default_decl == "#IMPLIED"

    def test_id_candidate_detected(self):
        dtd = infer_dtd(CATALOG)
        assert ("product", "sku") in dtd.id_attributes()

    def test_partial_attribute_not_id(self):
        dtd = infer_dtd(CATALOG)
        assert ("product", "lang") not in dtd.id_attributes()

    def test_duplicate_values_not_id(self):
        doc = parse('<r><e k="a"/><e k="a"/></r>')
        assert infer_dtd(doc).id_attributes() == set()

    def test_non_name_values_not_id(self):
        doc = parse('<r><e k="1 2"/><e k="3 4"/></r>')
        assert infer_dtd(doc).id_attributes() == set()

    def test_digit_leading_values_not_id(self):
        doc = parse('<r><e k="123"/><e k="456"/></r>')
        assert infer_dtd(doc).id_attributes() == set()

    def test_single_instance_not_id(self):
        doc = parse('<r><e k="only"/></r>')
        assert infer_dtd(doc).id_attributes() == set()


class TestInferIdAttributes:
    def test_intersection_across_documents(self):
        old = parse('<r><e k="a"/><e k="b"/></r>')
        new = parse('<r><e k="b"/><e k="b2"/></r>')
        assert infer_id_attributes(old, new) == {("e", "k")}

    def test_disqualified_in_one_document(self):
        old = parse('<r><e k="a"/><e k="b"/></r>')
        new = parse('<r><e k="dup"/><e k="dup"/></r>')
        assert infer_id_attributes(old, new) == set()

    def test_empty_input(self):
        assert infer_id_attributes() == set()


class TestDiffIntegration:
    def test_inferred_ids_drive_matching(self):
        from repro.core import DiffConfig, apply_delta, diff

        from tests.core.buld_phases import match_documents

        old = parse(
            "<catalog>"
            '<product sku="p1"><name>alpha</name></product>'
            '<product sku="p2"><name>beta</name></product>'
            "</catalog>"
        )
        new = parse(
            "<catalog>"
            '<product sku="p2"><name>beta renamed</name></product>'
            '<product sku="p3"><name>gamma</name></product>'
            "</catalog>"
        )
        config = DiffConfig(infer_id_attributes=True)
        matcher = match_documents(old.clone(), new.clone(), config)
        # p2 matched by its inferred ID despite the content change
        old_p2 = old.clone()
        # verify on the actual matcher documents
        matched_labels = [
            (o.get("sku"), n.get("sku"))
            for o, n in matcher.matching.pairs()
            if o.kind == "element" and o.label == "product"
        ]
        assert ("p2", "p2") in matched_labels
        assert ("p1", "p3") not in matched_labels
        # and the delta stays correct
        delta = diff(old, new, config)
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_inference_off_by_default(self):
        from repro.core import DiffConfig

        assert DiffConfig().infer_id_attributes is False
