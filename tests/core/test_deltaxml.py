"""Tests for the XML representation of deltas."""

import pytest

from repro.core import (
    apply_delta,
    delta_byte_size,
    delta_from_document,
    delta_to_document,
    diff,
    parse_delta,
    serialize_delta,
)
from repro.xmlkit import DeltaError, parse


def roundtrip(delta):
    return parse_delta(serialize_delta(delta))


class TestRoundTrip:
    def make(self, old_text, new_text):
        old = parse(old_text, strip_whitespace=False)
        new = parse(new_text, strip_whitespace=False)
        return old, new, diff(old, new)

    @pytest.mark.parametrize(
        "old_text,new_text",
        [
            ("<a><b>x</b></a>", "<a><b>y</b></a>"),
            ("<a><b>x</b></a>", "<a><b>x</b><c>new stuff</c></a>"),
            ("<a><b>x</b><c>y</c></a>", "<a><c>y</c></a>"),
            (
                "<r><p><big><x>1</x></big></p><q/></r>",
                "<r><p/><q><big><x>1</x></big></q></r>",
            ),
            ('<a k="1"/>', '<a k="2" extra="e"/>'),
            ("<a>one &amp; two</a>", "<a>three &lt; four</a>"),
            ("<a><!--note--></a>", "<a><!--other--></a>"),
            ("<a><?pi one?></a>", "<a><?pi two?></a>"),
            ("<a>  </a>", "<a>x</a>"),  # whitespace-only payloads survive
        ],
    )
    def test_serialize_parse_identity(self, old_text, new_text):
        old, new, delta = self.make(old_text, new_text)
        again = roundtrip(delta)
        assert again == delta
        # and the reparsed delta still applies correctly
        assert apply_delta(again, old, verify=True).deep_equal(new)

    def test_empty_delta(self):
        _, _, delta = self.make("<a/>", "<a/>")
        assert roundtrip(delta) == delta

    def test_payload_hole_leaves_adjacent_text(self):
        # Regression (found by hypothesis): a moved-out descendant leaves
        # a hole between two text nodes in the delete payload; the two
        # texts must not merge when the delta round-trips through XML.
        old, new, delta = self.make(
            "<r><doomed>alpha<keep><d>heavy shared text</d></keep>omega"
            "</doomed><other/></r>",
            "<r><other><keep><d>heavy shared text</d></keep></other></r>",
        )
        assert delta.summary() == {"delete": 1, "move": 1}
        again = roundtrip(delta)
        assert again == delta
        from repro.core import apply_backward, apply_delta

        assert apply_delta(again, old, verify=True).deep_equal(new)
        assert apply_backward(again, new, verify=True).deep_equal(old)

    def test_line_ends_and_tabs_survive(self):
        # A parser turns raw tabs and line feeds in attribute values into
        # spaces and raw carriage returns into line feeds: the delta XML
        # must carry them as character references.
        old, new, delta = self.make(
            '<a k="1"><b>x</b></a>',
            '<a k="1&#10;2&#9;3"><b>x&#13;y</b>'
            '<c v="&#13;&#10;">p&#13;q</c></a>',
        )
        assert {"attr-update", "update", "insert"} <= set(delta.summary())
        again = roundtrip(delta)
        assert again == delta
        assert apply_delta(again, old, verify=True).deep_equal(new)

    def test_metadata_preserved(self):
        _, _, delta = self.make("<a>1</a>", "<a>2</a>")
        delta.base_version = 3
        delta.target_version = 4
        again = roundtrip(delta)
        assert again.base_version == 3
        assert again.target_version == 4


class TestDocumentShape:
    def test_matches_paper_vocabulary(self):
        old = parse("<a><b>x</b><c>to-delete</c></a>")
        new = parse("<a><b>y</b><d>inserted</d></a>")
        document = delta_to_document(diff(old, new))
        labels = {child.label for child in document.root.child_elements()}
        assert labels == {"update", "delete", "insert"}
        delete = document.root.find("delete")
        assert delete.get("xidMap") is not None
        assert delete.get("parentXid") is not None
        assert delete.get("pos") is not None

    def test_update_carries_old_and_new(self):
        old = parse("<a>before</a>")
        new = parse("<a>after</a>")
        document = delta_to_document(diff(old, new))
        update = document.root.find("update")
        assert update.find("oldval").text_content() == "before"
        assert update.find("newval").text_content() == "after"

    def test_byte_size_positive(self):
        old = parse("<a>1</a>")
        new = parse("<a>2</a>")
        assert delta_byte_size(diff(old, new)) > 20


class TestDocumentReader:
    def test_payloads_are_moved_out_not_copied(self):
        document = parse(
            "<delta><delete xid='3' xidMap='(1-3)' parentXid='0' pos='0'>"
            "<a><b/>t</a></delete></delta>",
            strip_whitespace=False,
        )
        payload = document.root.children[0].children[0]
        delta = delta_from_document(document)
        subtree = delta.operations[0].subtree
        assert subtree is payload
        assert subtree.parent is None
        assert [node.xid for node in (subtree.children[0], subtree)] == [1, 3]


class TestMalformedInput:
    def test_not_a_delta(self):
        with pytest.raises(DeltaError):
            parse_delta("<notdelta/>")

    def test_unknown_operation(self):
        with pytest.raises(DeltaError):
            parse_delta("<delta><frobnicate xid='1'/></delta>")

    def test_missing_required_attribute(self):
        with pytest.raises(DeltaError):
            parse_delta("<delta><move xid='1' fromParent='2'/></delta>")

    def test_bad_integer(self):
        with pytest.raises(DeltaError):
            parse_delta("<delta><update xid='x'><oldval/><newval/></update></delta>")

    def test_xid_map_payload_mismatch(self):
        with pytest.raises(DeltaError):
            parse_delta(
                "<delta><insert xid='5' xidMap='(5-9)' parentXid='0' pos='0'>"
                "<only/></insert></delta>"
            )

    def test_update_missing_values(self):
        with pytest.raises(DeltaError):
            parse_delta("<delta><update xid='1'/></delta>")

    def test_payload_must_be_single_subtree(self):
        with pytest.raises(DeltaError):
            parse_delta(
                "<delta><insert xid='1' xidMap='(1)' parentXid='0' pos='0'>"
                "<a/><b/></insert></delta>"
            )
