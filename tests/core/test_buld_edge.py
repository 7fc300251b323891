"""Edge behaviours of the BULD matcher."""

import pytest

from repro.core import (
    DiffConfig,
    Matching,
    MatchingError,
    apply_delta,
    diff,
)
from repro.xmlkit import Element, Text, parse

from tests.core.buld_phases import match_documents


class TestMatchingClass:
    def test_kind_mismatch_rejected(self):
        matching = Matching()
        with pytest.raises(MatchingError):
            matching.add(Element("a"), Text("a"))

    def test_label_mismatch_rejected(self):
        matching = Matching()
        with pytest.raises(MatchingError):
            matching.add(Element("a"), Element("b"))

    def test_double_match_rejected(self):
        matching = Matching()
        old, new = Element("a"), Element("a")
        matching.add(old, new)
        with pytest.raises(MatchingError):
            matching.add(old, Element("a"))
        with pytest.raises(MatchingError):
            matching.add(Element("a"), new)

    def test_locked_nodes_rejected(self):
        matching = Matching()
        old = Element("a")
        matching.lock(old)
        assert matching.is_locked(old)
        with pytest.raises(MatchingError):
            matching.add(old, Element("a"))

    def test_cannot_lock_matched(self):
        matching = Matching()
        old, new = Element("a"), Element("a")
        matching.add(old, new)
        with pytest.raises(MatchingError):
            matching.lock(old)

    def test_pi_target_mismatch_rejected(self):
        from repro.xmlkit import ProcessingInstruction

        matching = Matching()
        with pytest.raises(MatchingError):
            matching.add(
                ProcessingInstruction("a", "x"),
                ProcessingInstruction("b", "x"),
            )

    def test_pairs_iteration(self):
        matching = Matching()
        pairs = [(Element("a"), Element("a")), (Text("t"), Text("u"))]
        for old, new in pairs:
            matching.add(old, new)
        assert list(matching.pairs()) == pairs
        assert len(matching) == 2


class TestManyDuplicates:
    def test_more_duplicates_than_candidate_cap(self):
        # 50 identical items, cap of 4: the diff must still be correct.
        items = "".join("<i>same</i>" for _ in range(50))
        old = parse(f"<r>{items}</r>")
        new = parse(f"<r>{items}<i>extra</i></r>")
        config = DiffConfig(max_candidates=4)
        delta = diff(old, new, config)
        assert apply_delta(delta, old, verify=True).deep_equal(new)
        # quality: only the genuinely new item is inserted
        assert delta.summary() == {"insert": 1}

    def test_duplicates_under_distinct_parents(self):
        old = parse(
            "<r>"
            + "".join(
                f"<sec id='{i}'><dup>val</dup><anchor>text {i} anchor</anchor></sec>"
                for i in range(8)
            )
            + "</r>"
        )
        new = old.clone(keep_xids=False)
        matcher = match_documents(old, new)
        # every dup must match the dup under the *corresponding* section
        for old_sec, new_sec in zip(
            old.root.children, new.root.children
        ):
            old_dup = old_sec.find("dup")
            assert matcher.matching.new_of(old_dup) is new_sec.find("dup")


class TestDegenerateShapes:
    def test_deep_chain(self):
        deep_old = "<a>" * 200 + "x" + "</a>" * 200
        deep_new = "<a>" * 200 + "y" + "</a>" * 200
        old = parse(deep_old)
        new = parse(deep_new)
        delta = diff(old, new)
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_wide_parent(self):
        old = parse("<r>" + "".join(f"<c>{i}</c>" for i in range(300)) + "</r>")
        new = parse(
            "<r>" + "".join(f"<c>{i}</c>" for i in range(1, 301)) + "</r>"
        )
        delta = diff(old, new)
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_single_node_documents(self):
        delta = diff(parse("<a/>"), parse("<a/>"))
        assert delta.is_empty()

    def test_text_heavy_document(self):
        old = parse("<a>" + "word " * 2000 + "</a>")
        new = parse("<a>" + "word " * 1999 + "different</a>")
        delta = diff(old, new)
        assert apply_delta(delta, old, verify=True).deep_equal(new)
        assert delta.summary() == {"update": 1}

    def test_attributes_only_element(self):
        old = parse('<a x="1" y="2" z="3"/>')
        new = parse('<a x="1" y="9"/>')
        delta = diff(old, new)
        assert apply_delta(delta, old, verify=True).deep_equal(new)


class TestPhaseInteractions:
    def test_early_ancestor_match_does_not_starve_phase3(self):
        # Regression: a root matched early via ID propagation must not
        # make phase 3 skip the whole document — children of matched-but-
        # not-identical nodes must still enter the queue.
        old = parse(
            '<root anchor="a1">'
            "<sectionA><x>alpha payload one</x><y>beta payload two</y></sectionA>"
            "<sectionB><z>gamma payload three</z></sectionB>"
            "</root>",
            id_attributes={("root", "anchor")},
        )
        new = parse(
            '<root anchor="a1">'
            "<sectionB><z>gamma payload three</z></sectionB>"
            "<sectionA><x>alpha payload one</x><y>CHANGED</y></sectionA>"
            "</root>",
            id_attributes={("root", "anchor")},
        )
        matcher = match_documents(old, new)
        # the sections must have matched despite the instantly-matched root
        old_section_a = old.root.find("sectionA")
        new_section_a = new.root.find("sectionA")
        assert matcher.matching.new_of(old_section_a) is new_section_a
        old_x = old_section_a.find("x")
        assert matcher.matching.new_of(old_x) is new_section_a.find("x")
        # and nearly every node is matched (only the changed text differs)
        total = old.subtree_size()
        assert len(matcher.matching) >= total - 2

    def test_id_match_beats_content_match(self):
        # two products swap their entire content; IDs must pin them.
        old = parse(
            "<c>"
            '<p k="a"><v>content one</v></p>'
            '<p k="b"><v>content two</v></p>'
            "</c>",
            id_attributes={("p", "k")},
        )
        new = parse(
            "<c>"
            '<p k="a"><v>content two</v></p>'
            '<p k="b"><v>content one</v></p>'
            "</c>",
            id_attributes={("p", "k")},
        )
        matcher = match_documents(old, new)
        old_a = old.root.children[0]
        new_a = new.root.children[0]
        assert matcher.matching.new_of(old_a) is new_a

    def test_locked_node_children_can_still_match(self):
        # a locked parent (unpaired ID) must not prevent its children
        # from matching elsewhere
        old = parse(
            '<c><p k="gone"><payload>heavy shared content here</payload></p>'
            "<q/></c>",
            id_attributes={("p", "k")},
        )
        new = parse(
            "<c><q><payload>heavy shared content here</payload></q></c>",
            id_attributes={("p", "k")},
        )
        matcher = match_documents(old, new)
        old_payload = old.root.children[0].find("payload")
        new_payload = new.root.find("q").find("payload")
        assert matcher.matching.new_of(old_payload) is new_payload
        delta = diff(
            parse(
                '<c><p k="gone"><payload>heavy shared content here</payload>'
                "</p><q/></c>",
                id_attributes={("p", "k")},
            ),
            parse(
                "<c><q><payload>heavy shared content here</payload></q></c>",
                id_attributes={("p", "k")},
            ),
        )
        assert len(delta.by_kind("move")) == 1
