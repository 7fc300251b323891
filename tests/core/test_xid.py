"""Tests for persistent identifiers and XID-maps."""

import pytest

from repro.core import (
    DOCUMENT_XID,
    XidAllocator,
    assign_initial_xids,
    format_xid_map,
    max_xid,
    parse_xid_map,
    subtree_xids,
    xid_index,
)
from repro.xmlkit import DeltaError, parse, postorder


class TestAllocator:
    def test_monotonic(self):
        allocator = XidAllocator()
        assert [allocator.allocate() for _ in range(3)] == [1, 2, 3]

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            XidAllocator(0)


class TestInitialAssignment:
    def test_postorder_numbering(self):
        doc = parse("<a><b>t</b><c/></a>")
        allocator = assign_initial_xids(doc)
        # postorder: text, b, c, a  ->  1, 2, 3, 4
        b = doc.root.children[0]
        assert b.children[0].xid == 1
        assert b.xid == 2
        assert doc.root.children[1].xid == 3
        assert doc.root.xid == 4
        assert doc.xid == DOCUMENT_XID
        assert allocator.next_xid == 5

    def test_max_xid(self):
        doc = parse("<a><b/><c/></a>")
        assign_initial_xids(doc)
        assert max_xid(doc) == 3

    def test_xid_index(self):
        doc = parse("<a><b/></a>")
        assign_initial_xids(doc)
        index = xid_index(doc)
        assert index[2] is doc.root
        assert index[0] is doc

    def test_xid_index_detects_duplicates(self):
        doc = parse("<a><b/></a>")
        doc.root.xid = 1
        doc.root.children[0].xid = 1
        with pytest.raises(DeltaError):
            xid_index(doc)

    def test_subtree_xids_requires_labels(self):
        doc = parse("<a><b/></a>")
        with pytest.raises(DeltaError):
            subtree_xids(doc.root)


class TestXidMapFormat:
    @pytest.mark.parametrize(
        "xids,expected",
        [
            ([], "()"),
            ([5], "(5)"),
            ([3, 4, 5, 6, 7], "(3-7)"),
            ([3, 4, 5, 9, 12, 13], "(3-5;9;12-13)"),
            ([7, 3], "(7;3)"),  # non-ascending stays explicit
        ],
    )
    def test_format(self, xids, expected):
        assert format_xid_map(xids) == expected

    @pytest.mark.parametrize(
        "xids",
        [[], [5], [3, 4, 5, 6, 7], [3, 4, 5, 9, 12, 13], [1, 10, 11, 2]],
    )
    def test_roundtrip(self, xids):
        assert parse_xid_map(format_xid_map(xids)) == xids

    def test_parse_without_parens(self):
        assert parse_xid_map("3-5;9") == [3, 4, 5, 9]

    @pytest.mark.parametrize("bad", ["(a)", "(3-)", "(5-3)", "(1;;2)"])
    def test_parse_malformed(self, bad):
        with pytest.raises(DeltaError):
            parse_xid_map(bad)

    def test_xid_map_of_contiguous_subtree(self):
        doc = parse("<a><b><c/><d/></b><e/></a>")
        assign_initial_xids(doc)
        # postorder: c=1, d=2, b=3, e=4, a=5
        assert format_xid_map(subtree_xids(doc.root.children[0])) == "(1-3)"
        assert format_xid_map(subtree_xids(doc.root)) == "(1-5)"

    def test_every_node_has_unique_xid_after_assignment(self):
        doc = parse("<a><b><c>t</c></b><d/><e>u</e></a>")
        assign_initial_xids(doc)
        xids = [node.xid for node in postorder(doc)]
        assert len(xids) == len(set(xids))
