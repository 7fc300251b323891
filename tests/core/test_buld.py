"""Tests for the BULD matching algorithm itself (Phases 1-4)."""

from repro.core import DiffConfig

from tests.core.buld_phases import match_documents
from repro.xmlkit import parse


def matched_pairs(matcher):
    """(old label/value, new label/value) pairs, document pair excluded."""
    result = []
    for old, new in matcher.matching.pairs():
        if old.kind == "document":
            continue
        key = old.label if old.kind == "element" else old.value
        result.append((old.kind, key))
    return result


class TestIdenticalSubtrees:
    def test_full_document_match(self):
        old = parse("<a><b>x</b><c>y</c></a>")
        new = parse("<a><b>x</b><c>y</c></a>")
        matcher = match_documents(old, new)
        # every node matched: a, b, x, c, y
        assert len(matcher.matching) == 6  # + document pair

    def test_moved_subtree_is_matched(self):
        old = parse("<r><p><big><x>alpha</x><y>beta</y></big></p><q/></r>")
        new = parse("<r><p/><q><big><x>alpha</x><y>beta</y></big></q></r>")
        matcher = match_documents(old, new)
        old_big = old.root.children[0].children[0]
        new_big = new.root.children[1].children[0]
        assert matcher.matching.new_of(old_big) is new_big


class TestAncestorPropagation:
    def test_heavy_subtree_pulls_ancestors(self):
        old = parse(
            "<root><wrap><mid><heavy>"
            + "<item>data %d</item>" * 1 % 0
            + "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</heavy></mid></wrap>"
            "<noise>zzz</noise></root>"
        )
        new = parse(
            "<root><wrap><mid><heavy>"
            "<item>data 0</item>"
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</heavy></mid></wrap>"
            "<other>yyy</other></root>"
        )
        matcher = match_documents(old, new)
        assert matcher.matching.new_of(old.root) is new.root
        old_mid = old.root.children[0].children[0]
        new_mid = new.root.children[0].children[0]
        assert matcher.matching.new_of(old_mid) is new_mid


class TestLazyDownPropagation:
    def test_price_update_is_detected_via_unique_children(self):
        # the paper's running example: Price text differs, but the parents
        # match through the heavy Name sibling, and the unique text child
        # rule matches the two price texts.
        old = parse(
            "<Product><Name>zy456-long-identifier</Name><Price>$799</Price>"
            "</Product>"
        )
        new = parse(
            "<Product><Name>zy456-long-identifier</Name><Price>$699</Price>"
            "</Product>"
        )
        matcher = match_documents(old, new)
        old_price_text = old.root.children[1].children[0]
        new_price_text = new.root.children[1].children[0]
        assert matcher.matching.new_of(old_price_text) is new_price_text

    def test_empty_subtree_matched_by_label_in_phase4(self):
        # "Discount has not been matched yet because its content completely
        # changed ... but it is the only subtree of Category with this
        # label, so we match it." (Section 5.1)
        old = parse("<Category><Discount><a>old</a></Discount><T>t</T></Category>")
        new = parse("<Category><Discount><b>new</b></Discount><T>t</T></Category>")
        matcher = match_documents(old, new)
        assert (
            matcher.matching.new_of(old.root.find("Discount"))
            is new.root.find("Discount")
        )


class TestIdAttributes:
    OLD = (
        "<!DOCTYPE catalog [<!ATTLIST product sku ID #REQUIRED>]>"
        "<catalog>"
        '<product sku="p1"><name>alpha</name></product>'
        '<product sku="p2"><name>beta</name></product>'
        "</catalog>"
    )
    NEW = (
        "<!DOCTYPE catalog [<!ATTLIST product sku ID #REQUIRED>]>"
        "<catalog>"
        '<product sku="p2"><name>beta prime</name></product>'
        '<product sku="p3"><name>gamma</name></product>'
        "</catalog>"
    )

    def test_id_match_survives_content_change(self):
        old = parse(self.OLD)
        new = parse(self.NEW)
        matcher = match_documents(old, new)
        old_p2 = old.root.children[1]
        new_p2 = new.root.children[0]
        assert matcher.matching.new_of(old_p2) is new_p2

    def test_unpaired_ids_locked(self):
        old = parse(self.OLD)
        new = parse(self.NEW)
        matcher = match_documents(old, new)
        old_p1 = old.root.children[0]
        new_p3 = new.root.children[1]
        assert matcher.matching.new_of(old_p1) is None
        assert matcher.matching.is_locked(old_p1)
        assert matcher.matching.is_locked(new_p3)

    def test_ids_disabled_by_config(self):
        old = parse(self.OLD)
        new = parse(self.NEW)
        config = DiffConfig(use_id_attributes=False)
        matcher = match_documents(old, new, config)
        old_p1 = old.root.children[0]
        assert not matcher.matching.is_locked(old_p1)


class TestCandidateSelection:
    def test_parent_context_disambiguates_duplicates(self):
        # Two identical <entry>dup</entry> subtrees; each should match the
        # twin under the corresponding section, not the other one.
        old = parse(
            "<r><s1 k='1'><entry>dup</entry><tag1>s1s1s1</tag1></s1>"
            "<s2 k='2'><entry>dup</entry><tag2>s2s2s2</tag2></s2></r>"
        )
        new = parse(
            "<r><s1 k='1'><entry>dup</entry><tag1>s1s1s1</tag1></s1>"
            "<s2 k='2'><entry>dup</entry><tag2>s2s2s2</tag2></s2></r>"
        )
        matcher = match_documents(old, new)
        old_e1 = old.root.children[0].children[0]
        new_e1 = new.root.children[0].children[0]
        old_e2 = old.root.children[1].children[0]
        new_e2 = new.root.children[1].children[0]
        assert matcher.matching.new_of(old_e1) is new_e1
        assert matcher.matching.new_of(old_e2) is new_e2

    def test_matching_is_one_to_one(self):
        old = parse("<r><a>x</a><a>x</a><a>x</a></r>")
        new = parse("<r><a>x</a><a>x</a></r>")
        matcher = match_documents(old, new)
        seen = set()
        for _, new_node in matcher.matching.pairs():
            assert id(new_node) not in seen
            seen.add(id(new_node))

    def test_labels_preserved_for_all_pairs(self):
        old = parse("<r><a><b>1</b></a><c><b>2</b></c></r>")
        new = parse("<r><c><b>2</b></c><a><b>1</b></a></r>")
        matcher = match_documents(old, new)
        for old_node, new_node in matcher.matching.pairs():
            assert old_node.kind == new_node.kind
            if old_node.kind == "element":
                assert old_node.label == new_node.label


class TestTotallyDifferentDocuments:
    def test_nothing_matches_but_roots_may(self):
        old = parse("<x><p>one</p></x>")
        new = parse("<y><q>two</q></y>")
        matcher = match_documents(old, new)
        # only the document pair can match
        assert len(matcher.matching) == 1
