"""Tests for the Lu/Selkow, Zhang-Shasha, LaDiff and DiffMK baselines."""

import pytest

from repro.baselines import (
    diffmk,
    flatten,
    ladiff_match,
    lu_match,
    tree_edit_distance,
)
from repro.core import apply_delta, diff
from repro.xmlkit import parse
from tests.baselines.token_oracle import edit_tokens, patch_tokens


class TestLuSelkow:
    def test_identical_documents_cost_zero(self):
        old = parse("<a><b>x</b><c/></a>")
        new = parse("<a><b>x</b><c/></a>")
        assert lu_match(old, new).cost == 0.0

    def test_update_costs_one(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a><b>y</b></a>")
        assert lu_match(old, new).cost == 1.0

    def test_subtree_delete_costs_size(self):
        old = parse("<a><b><c>x</c></b></a>")  # b subtree has 3 nodes
        new = parse("<a/>")
        assert lu_match(old, new).cost == 3.0

    def test_label_mismatch_forces_replace(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a><c>x</c></a>")
        # delete b subtree (2) + insert c subtree (2)
        assert lu_match(old, new).cost == 4.0

    def test_attribute_changes_counted(self):
        # The shared <c>t</c> child makes matching the roots worthwhile, so
        # the cost is exactly the three attribute edits.
        old = parse('<a k="1" dead="x"><c>t</c></a>')
        new = parse('<a k="2" born="y"><c>t</c></a>')
        assert lu_match(old, new).cost == 3.0  # update k, drop dead, add born

    def test_attribute_only_root_prefers_replacement(self):
        # With no shared content, delete+insert (cost 2) beats paying for
        # three attribute edits on a matched root.
        old = parse('<a k="1" dead="x"/>')
        new = parse('<a k="2" born="y"/>')
        assert lu_match(old, new).cost == 2.0

    def test_delta_is_correct(self):
        old = parse("<r><a>1</a><b>2</b><c>3</c></r>")
        new = parse("<r><a>1</a><b>two</b><d>4</d></r>")
        delta = diff(old, new, engine="lu")
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_no_moves_ever(self):
        old = parse("<r><a>aaa</a><b>bbb</b></r>")
        new = parse("<r><b>bbb</b><a>aaa</a></r>")
        delta = diff(old, new, engine="lu")
        assert delta.by_kind("move") == []
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_alignment_is_order_preserving(self):
        old = parse("<r><x>1</x><x>2</x><x>3</x></r>")
        new = parse("<r><x>3</x><x>1</x><x>2</x></r>")
        result = lu_match(old, new)
        pairs = [
            (o.children[0].value if o.children else None)
            for o, _ in result.matching.pairs()
            if o.kind == "element" and o.label == "x"
        ]
        # matched x-nodes must appear in the same relative order
        positions = [p for p in pairs if p is not None]
        assert positions == sorted(positions, key=lambda v: ["1", "2", "3"].index(v))

    def test_deep_tree_does_not_blow_recursion(self):
        deep = "<a>" * 300 + "x" + "</a>" * 300
        old = parse(deep)
        new = parse(deep.replace(">x<", ">y<"))
        assert lu_match(old, new).cost == 1.0


class TestZhangShasha:
    def test_identical(self):
        a = parse("<a><b>x</b><c/></a>")
        b = parse("<a><b>x</b><c/></a>")
        assert tree_edit_distance(a, b) == 0.0

    def test_single_rename(self):
        a = parse("<a><b>x</b></a>")
        b = parse("<a><b>y</b></a>")
        assert tree_edit_distance(a, b) == 1.0

    def test_single_delete(self):
        a = parse("<a><b/><c/></a>")
        b = parse("<a><b/></a>")
        assert tree_edit_distance(a, b) == 1.0

    def test_empty_vs_tree(self):
        a = parse("<a><b/><c/></a>")
        assert tree_edit_distance(a, parse("<x/>")) == 3.0  # rename+2 deletes

    def test_classic_zs_example(self):
        # Zhang-Shasha's canonical example (f(d(a c(b)) e) vs f(c(d(a b)) e))
        a = parse("<f><d><a/><c><b/></c></d><e/></f>")
        b = parse("<f><c><d><a/><b/></d></c><e/></f>")
        assert tree_edit_distance(a, b) == 2.0

    def test_symmetry(self):
        a = parse("<r><x>1</x><y><z/></y></r>")
        b = parse("<r><y><w/></y><q>2</q></r>")
        assert tree_edit_distance(a, b) == tree_edit_distance(b, a)

    def test_triangle_inequality_spot_check(self):
        a = parse("<r><x>1</x></r>")
        b = parse("<r><x>2</x><y/></r>")
        c = parse("<q><z/></q>")
        ab = tree_edit_distance(a, b)
        bc = tree_edit_distance(b, c)
        ac = tree_edit_distance(a, c)
        assert ac <= ab + bc

    def test_never_exceeds_delete_all_insert_all(self):
        a = parse("<r><x>1</x><y>2</y></r>")
        b = parse("<s><p><q>3</q></p></s>")
        bound = (a.subtree_size() - 1) + (b.subtree_size() - 1)
        assert tree_edit_distance(a, b) <= bound


class TestLaDiff:
    def test_similar_text_matches(self):
        old = parse("<r><p>the quick brown fox jumps</p></r>")
        new = parse("<r><p>the quick brown fox leaps</p></r>")
        matching = ladiff_match(old, new)
        old_text = old.root.children[0].children[0]
        new_text = new.root.children[0].children[0]
        assert matching.new_of(old_text) is new_text

    def test_dissimilar_text_does_not_match(self):
        old = parse("<r><p>alpha beta gamma</p><q>stay here now</q></r>")
        new = parse("<r><p>delta epsilon zeta</p><q>stay here now</q></r>")
        matching = ladiff_match(old, new)
        old_text = old.root.children[0].children[0]
        assert matching.new_of(old_text) is None

    def test_internal_nodes_match_through_leaves(self):
        old = parse(
            "<r><sec><t>one two three</t><u>four five six</u></sec></r>"
        )
        new = parse(
            "<r><sec><t>one two three</t><u>four five six</u></sec><x/></r>"
        )
        matching = ladiff_match(old, new)
        assert matching.new_of(old.root.children[0]) is new.root.children[0]

    def test_delta_is_correct(self):
        old = parse("<r><a>one two</a><b>three four</b></r>")
        new = parse("<r><b>three four</b><a>one two five</a><c/></r>")
        delta = diff(old, new, engine="ladiff")
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_moves_are_detected(self):
        old = parse("<r><sec1><p>shared words here</p></sec1><sec2/></r>")
        new = parse("<r><sec1/><sec2><p>shared words here</p></sec2></r>")
        delta = diff(old, new, engine="ladiff")
        assert len(delta.by_kind("move")) == 1


class TestDiffMk:
    def test_flatten_shape(self):
        tokens = flatten(parse("<a k='1'><b>t</b></a>"))
        assert tokens == ['<a k="1">', "<b>", "t", "</b>", "</a>"]

    def test_identical_documents(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a><b>x</b></a>")
        result = diffmk(old, new)
        assert edit_tokens(result) == 0
        assert result.script_bytes == 0

    def test_update_is_local(self):
        old = parse("<a><b>x</b><c>y</c></a>")
        new = parse("<a><b>z</b><c>y</c></a>")
        result = diffmk(old, new)
        assert edit_tokens(result) == 2  # one deleted token, one inserted

    def test_move_pays_double(self):
        # A real relocation: the list diff must pay delete+insert for
        # whichever block is smaller (the moved subtree or its anchors),
        # whereas a tree diff with moves pays a single move operation.
        old = parse(
            "<r><big><x>1</x><y>2</y></big><a>aa</a><b>bb</b></r>"
        )
        new = parse(
            "<r><a>aa</a><b>bb</b><big><x>1</x><y>2</y></big></r>"
        )
        result = diffmk(old, new)
        # anchors a+b are 6 tokens; they are deleted and reinserted: 12.
        assert edit_tokens(result) >= 2 * 6

    def test_token_patch_roundtrip(self):
        old = flatten(parse("<a><b>x</b><c/></a>"))
        new = flatten(parse("<a><c/><d>y</d></a>"))
        assert patch_tokens(old, new) == new
