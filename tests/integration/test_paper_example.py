"""End-to-end check of the paper's running example (Figures 2 and Section 4).

The paper walks one concrete document through the whole pipeline:
a catalog where product tx123 is removed from Discount, product zy456
moves from NewProducts into Discount with its price updated, and a new
product abc appears in NewProducts.  The delta shown in Section 4 has
exactly one delete, one insert, one move and one update — and our diff
must find precisely that interpretation.
"""

from repro.core import apply_backward, apply_delta, diff

from tests.core.buld_phases import match_documents
from repro.xmlkit import parse

OLD = (
    "<Category><Title>Digital Cameras</Title>"
    "<Discount><Product><Name>tx123</Name><Price>$499</Price>"
    "</Product></Discount>"
    "<NewProducts><Product><Name>zy456</Name><Price>$799</Price>"
    "</Product></NewProducts></Category>"
)
NEW = (
    "<Category><Title>Digital Cameras</Title>"
    "<Discount><Product><Name>zy456</Name><Price>$699</Price>"
    "</Product></Discount>"
    "<NewProducts><Product><Name>abc</Name><Price>$899</Price>"
    "</Product></NewProducts></Category>"
)


class TestFigure2:
    def test_operation_inventory_matches_paper(self):
        old = parse(OLD)
        new = parse(NEW)
        delta = diff(old, new)
        assert delta.summary() == {
            "delete": 1,
            "insert": 1,
            "move": 1,
            "update": 1,
        }

    def test_delete_is_product_tx123(self):
        old = parse(OLD)
        delta = diff(old, parse(NEW))
        delete = delta.by_kind("delete")[0]
        assert delete.subtree.label == "Product"
        assert delete.subtree.find("Name").text_content() == "tx123"

    def test_insert_is_product_abc(self):
        delta = diff(parse(OLD), parse(NEW))
        insert = delta.by_kind("insert")[0]
        assert insert.subtree.label == "Product"
        assert insert.subtree.find("Name").text_content() == "abc"

    def test_move_is_product_zy456_into_discount(self):
        old = parse(OLD)
        new = parse(NEW)
        delta = diff(old, new)
        move = delta.by_kind("move")[0]
        from repro.core import xid_index

        index = xid_index(old)
        moved = index[move.xid]
        assert moved.label == "Product"
        assert moved.find("Name").text_content() == "zy456"
        from_parent = index[move.from_parent_xid]
        to_parent = index[move.to_parent_xid]
        assert from_parent.label == "NewProducts"
        assert to_parent.label == "Discount"

    def test_update_is_the_price(self):
        delta = diff(parse(OLD), parse(NEW))
        update = delta.by_kind("update")[0]
        assert update.old_value == "$799"
        assert update.new_value == "$699"

    def test_postorder_xids_match_papers_numbers(self):
        # the paper numbers the old version in postfix order and shows
        # delete XID=7, move XID=13, update XID=11 (1-based postorder).
        old = parse(OLD)
        new = parse(NEW)
        delta = diff(old, new)
        assert delta.by_kind("delete")[0].xid == 7
        assert delta.by_kind("move")[0].xid == 13
        assert delta.by_kind("update")[0].xid == 11
        assert delta.by_kind("delete")[0].xid_map == "(3-7)"

    def test_roundtrip(self):
        old = parse(OLD)
        new = parse(NEW)
        delta = diff(old, new)
        assert apply_delta(delta, old, verify=True).deep_equal(new)
        assert apply_backward(delta, new, verify=True).deep_equal(old)

    def test_matching_narrative(self):
        # Section 5.1's walkthrough: Title matched as identical subtree,
        # Category matched, zy456's Product matched, Prices matched via
        # unique-label propagation, Discount matched in the peephole pass.
        old = parse(OLD)
        new = parse(NEW)
        matcher = match_documents(old, new)
        matching = matcher.matching

        old_title = old.root.find("Title")
        assert matching.new_of(old_title) is new.root.find("Title")
        assert matching.new_of(old.root) is new.root

        old_zy = old.root.find("NewProducts").find("Product")
        new_zy = new.root.find("Discount").find("Product")
        assert matching.new_of(old_zy) is new_zy

        old_price = old_zy.find("Price")
        new_price = new_zy.find("Price")
        assert matching.new_of(old_price) is new_price

        assert matching.new_of(old.root.find("Discount")) is new.root.find(
            "Discount"
        )
