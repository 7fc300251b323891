"""Golden quality scenarios: changes with one obviously right reading.

"Minimality is important because it captures to some extent the semantics
that a human would give when presented with the two versions" (Section 2).
Each scenario here has a human-obvious interpretation; the diff must find
it — these are quality regression guards, not just correctness checks.
"""

import pytest

from repro.core import apply_delta, diff
from repro.xmlkit import parse


def run(old_text, new_text):
    old = parse(old_text)
    new = parse(new_text)
    delta = diff(old, new)
    assert apply_delta(delta, old, verify=True).deep_equal(new)
    return delta


class TestGoldenScenarios:
    def test_single_price_change_in_big_catalog(self):
        products = "".join(
            f"<product><name>item {i}</name><price>${i}00</price></product>"
            for i in range(40)
        )
        old = f"<catalog>{products}</catalog>"
        new = old.replace("<price>$700</price>", "<price>$799</price>")
        delta = run(old, new)
        assert delta.summary() == {"update": 1}

    def test_section_swap_is_one_move(self):
        old = (
            "<doc>"
            "<intro><p>introduction paragraph text</p></intro>"
            "<body><p>main body paragraph text here</p>"
            "<p>second body paragraph</p></body>"
            "<appendix><p>appendix text</p></appendix>"
            "</doc>"
        )
        new = (
            "<doc>"
            "<intro><p>introduction paragraph text</p></intro>"
            "<appendix><p>appendix text</p></appendix>"
            "<body><p>main body paragraph text here</p>"
            "<p>second body paragraph</p></body>"
            "</doc>"
        )
        delta = run(old, new)
        assert delta.summary() == {"move": 1}

    def test_new_entry_in_middle_of_list(self):
        items = [f"<item>entry number {i}</item>" for i in range(20)]
        old = "<list>" + "".join(items) + "</list>"
        items.insert(10, "<item>brand new entry</item>")
        new = "<list>" + "".join(items) + "</list>"
        delta = run(old, new)
        assert delta.summary() == {"insert": 1}
        assert delta.by_kind("insert")[0].position == 10

    def test_removed_entry(self):
        items = [f"<item>entry number {i}</item>" for i in range(20)]
        old = "<list>" + "".join(items) + "</list>"
        del items[5]
        new = "<list>" + "".join(items) + "</list>"
        delta = run(old, new)
        assert delta.summary() == {"delete": 1}
        assert delta.by_kind("delete")[0].position == 5

    def test_promotion_across_sections(self):
        # the paper's own semantic example: a product moving between
        # sections must read as a move, never delete+insert
        old = (
            "<shop><featured/></shop>".replace(
                "<featured/>",
                "<featured/><regular><offer><name>gadget</name>"
                "<price>$5</price></offer></regular>",
            )
        )
        new = (
            "<shop><featured><offer><name>gadget</name>"
            "<price>$5</price></offer></featured><regular/></shop>"
        )
        delta = run(old, new)
        assert delta.summary() == {"move": 1}

    def test_attribute_flip_only(self):
        items = "".join(
            f'<item status="ok">content {i}</item>' for i in range(15)
        )
        old = f"<list>{items}</list>"
        new = old.replace(
            '<item status="ok">content 7<', '<item status="flagged">content 7<'
        )
        delta = run(old, new)
        assert delta.summary() == {"attr-update": 1}

    def test_wrap_does_not_destroy_content(self):
        # wrapping content in a new container: content must be moved,
        # not deleted and reinserted
        old = (
            "<doc><p>first paragraph of shared text</p>"
            "<p>second paragraph of shared text</p></doc>"
        )
        new = (
            "<doc><wrapper><p>first paragraph of shared text</p>"
            "<p>second paragraph of shared text</p></wrapper></doc>"
        )
        delta = run(old, new)
        kinds = delta.summary()
        assert kinds.get("insert") == 1  # the wrapper shell
        assert kinds.get("move") == 2  # both paragraphs relocate
        assert "delete" not in kinds

    def test_unwrap_is_symmetric(self):
        old = (
            "<doc><wrapper><p>first paragraph of shared text</p>"
            "<p>second paragraph of shared text</p></wrapper></doc>"
        )
        new = (
            "<doc><p>first paragraph of shared text</p>"
            "<p>second paragraph of shared text</p></doc>"
        )
        delta = run(old, new)
        kinds = delta.summary()
        assert kinds.get("delete") == 1
        assert kinds.get("move") == 2
        assert "insert" not in kinds

    def test_rename_reads_as_replace_of_shell_only(self):
        # renaming an element (label change) cannot be an update in this
        # model; but the children must survive via moves
        old = (
            "<doc><oldname><a>heavy shared content A</a>"
            "<b>heavy shared content B</b></oldname></doc>"
        )
        new = (
            "<doc><newname><a>heavy shared content A</a>"
            "<b>heavy shared content B</b></newname></doc>"
        )
        delta = run(old, new)
        kinds = delta.summary()
        assert kinds.get("delete") == 1
        assert kinds.get("insert") == 1
        assert kinds.get("move") == 2
        # the delete payload is just the shell (holes where children were)
        assert len(delta.by_kind("delete")[0].subtree.children) == 0

    def test_duplicate_products_tell_apart_by_neighbours(self):
        # two textually identical entries; one gains a sibling — the
        # diff must not cross-match them and shuffle everything
        old = (
            "<catalog>"
            "<section><product>same text</product><tag>alpha marker</tag></section>"
            "<section><product>same text</product><tag>beta marker</tag></section>"
            "</catalog>"
        )
        new = (
            "<catalog>"
            "<section><product>same text</product><tag>alpha marker</tag></section>"
            "<section><product>same text</product><tag>beta marker</tag>"
            "<extra/></section>"
            "</catalog>"
        )
        delta = run(old, new)
        assert delta.summary() == {"insert": 1}
