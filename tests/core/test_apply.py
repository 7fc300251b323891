"""Tests for delta application, inversion and aggregation.

These tests drive the applier through hand-built matchings (via
``build_delta``) and through ``diff`` so every operation kind and ordering
subtlety is covered: moves out of deleted regions, moves into inserted
regions, interleaved attach positions, intra-parent permutations.
"""

import pytest

from repro.core import (
    Delta,
    Insert,
    Matching,
    Move,
    Update,
    aggregate,
    apply_backward,
    apply_delta,
    assign_initial_xids,
    build_delta,
    delta_by_xid_join,
    diff,
    invert,
)
from repro.core.deltaxml import parse_delta, serialize_delta
from repro.engine.engines import ENGINES
from repro.xmlkit import ApplyError, Element, Text, parse, serialize


def roundtrip(old_text, new_text):
    """diff old->new, apply forward and backward, return the delta."""
    old = parse(old_text)
    new = parse(new_text)
    delta = diff(old, new)
    forward = apply_delta(delta, old, verify=True)
    assert forward.deep_equal(new), serialize(forward)
    backward = apply_backward(delta, new, verify=True)
    assert backward.deep_equal(old), serialize(backward)
    return delta


class TestApplyBasics:
    def test_identity(self):
        delta = roundtrip("<a><b>x</b></a>", "<a><b>x</b></a>")
        assert delta.is_empty()

    def test_text_update(self):
        delta = roundtrip("<a><b>x</b></a>", "<a><b>y</b></a>")
        assert delta.summary() == {"update": 1}

    def test_attribute_changes(self):
        delta = roundtrip(
            '<a k="1" gone="x"><b/></a>', '<a k="2" fresh="y"><b/></a>'
        )
        assert delta.summary() == {
            "attr-update": 1,
            "attr-delete": 1,
            "attr-insert": 1,
        }

    def test_a_deleted_attribute_returns_to_its_place(self):
        old = parse('<e a="1" b="2" c="3"/>')
        new = parse('<e a="1" c="3"/>')
        delta = diff(old, new)
        (operation,) = delta.operations
        assert (operation.kind, operation.position) == ("attr-delete", 1)
        backward = apply_backward(delta, new, verify=True)
        assert serialize(backward) == '<e a="1" b="2" c="3"/>'

    @pytest.mark.parametrize(
        "old_text, new_text",
        [
            ('<e a="1" b="2" c="3" d="4"/>', '<e a="1" d="4"/>'),
            ('<e a="1" b="2" c="3"/>', '<e x="7" y="8" a="1" c="3"/>'),
            ('<e a="1" b="2" c="3"/>', '<e c="3" x="7"/>'),
            ('<e a="1"/>', '<e b="2" a="1"/>'),
            ('<e a="1" b="2"/>', "<e/>"),
        ],
    )
    def test_attribute_order_survives_both_directions(
        self, old_text, new_text
    ):
        old, new = parse(old_text), parse(new_text)
        delta = parse_delta(serialize_delta(diff(old, new)))
        assert serialize(apply_delta(delta, old, verify=True)) == new_text
        assert serialize(apply_backward(delta, new, verify=True)) == old_text
        # A delta's operations are a set: listed in reverse, they apply
        # the same.
        delta.operations.reverse()
        assert serialize(apply_delta(delta, old, verify=True)) == new_text
        assert serialize(apply_backward(delta, new, verify=True)) == old_text

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize(
        "old_text, new_text",
        [
            ('<e a="1" b="2"/>', '<e b="2" a="1"/>'),
            ('<r><x/><e a="1" b="2" c="3"/></r>',
             '<r><x/><e c="3" a="1" b="2"/></r>'),
            ('<r><e a="1" b="2" c="3" d="4"/><f/></r>',
             '<r><e d="4" b="9" a="1"/><f/></r>'),
            ('<r><p><q k="1"><e a="1" b="2"/></q></p><z/></r>',
             '<r><p><q k="1"><e b="2" a="1"/></q></p><z/></r>'),
        ],
    )
    def test_kept_attributes_that_change_order_replay_in_both_directions(
        self, engine, old_text, new_text
    ):
        old, new = parse(old_text), parse(new_text)
        delta = parse_delta(
            serialize_delta(diff(old, new, engine=engine))
        )
        assert not delta.is_empty()
        assert serialize(apply_delta(delta, old, verify=True)) == new_text
        assert serialize(apply_backward(delta, new, verify=True)) == old_text

    def test_a_reordered_attribute_is_one_positioned_delete_and_insert(self):
        delta = diff(parse('<e a="1" b="2" c="3"/>'),
                     parse('<e c="3" a="1" b="2"/>'))
        assert serialize_delta(delta) == (
            '<delta nextXidBefore="2" nextXidAfter="2">'
            '<attr-delete xid="1" name="c" oldValue="3"/>'
            '<attr-insert xid="1" name="c" value="3" pos="0"/></delta>'
        )

    def test_subtree_insert(self):
        delta = roundtrip(
            "<list><item>one</item></list>",
            "<list><item>one</item><item>two</item></list>",
        )
        assert delta.summary() == {"insert": 1}

    def test_subtree_delete(self):
        delta = roundtrip(
            "<list><item>one</item><item>two</item></list>",
            "<list><item>one</item></list>",
        )
        assert delta.summary() == {"delete": 1}

    def test_root_replacement(self):
        delta = roundtrip("<a><x>1</x></a>", "<b><x>1</x></b>")
        kinds = delta.summary()
        assert kinds.get("delete") == 1
        assert kinds.get("insert") == 1

    def test_apply_clones_by_default(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a><b>y</b></a>")
        delta = diff(old, new)
        result = apply_delta(delta, old)
        assert result is not old
        assert old.root.children[0].children[0].value == "x"

    def test_apply_in_place(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a><b>y</b></a>")
        delta = diff(old, new)
        result = apply_delta(delta, old, in_place=True)
        assert result is old
        assert old.root.children[0].children[0].value == "y"


class TestMoves:
    def test_cross_parent_move(self):
        delta = roundtrip(
            "<r><a><big><x>1</x><y>2</y></big></a><b/></r>",
            "<r><a/><b><big><x>1</x><y>2</y></big></b></r>",
        )
        assert delta.summary() == {"move": 1}

    def test_sibling_permutation(self):
        delta = roundtrip(
            "<r><a>aaaa</a><b>bbbb</b><c>cccc</c></r>",
            "<r><c>cccc</c><a>aaaa</a><b>bbbb</b></r>",
        )
        # One move suffices: c jumps in front.
        assert delta.summary() == {"move": 1}

    def test_full_reversal(self):
        delta = roundtrip(
            "<r><a>aaaa</a><b>bbbb</b><c>cccc</c><d>dddd</d></r>",
            "<r><d>dddd</d><c>cccc</c><b>bbbb</b><a>aaaa</a></r>",
        )
        # Reversal of k children needs k-1 moves.
        assert delta.summary() == {"move": 3}

    def test_move_out_of_deleted_region(self):
        delta = roundtrip(
            "<r><doomed><keep><deep>payload</deep></keep><junk>zzz</junk></doomed>"
            "<other/></r>",
            "<r><other><keep><deep>payload</deep></keep></other></r>",
        )
        kinds = delta.summary()
        assert kinds.get("move") == 1
        assert kinds.get("delete") == 1

    def test_move_into_inserted_region(self):
        delta = roundtrip(
            "<r><keep><deep>payload here</deep></keep></r>",
            "<r><brandnew><sub/><keep><deep>payload here</deep></keep>"
            "</brandnew></r>",
        )
        kinds = delta.summary()
        assert kinds.get("move") == 1
        assert kinds.get("insert") == 1

    def test_interleaved_inserts_and_moves_positions(self):
        # New children arrive at interleaved positions among stable ones.
        delta = roundtrip(
            "<r><s1>1111</s1><m>mmmm</m><s2>2222</s2></r>",
            "<r><n1/><s1>1111</s1><n2/><s2>2222</s2><m>mmmm</m></r>",
        )
        kinds = delta.summary()
        assert kinds.get("insert") == 2
        assert kinds.get("move") == 1


class TestVerification:
    def build_simple(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a><b>y</b></a>")
        delta = diff(old, new)
        return old, new, delta

    def test_update_old_value_mismatch(self):
        old, _, delta = self.build_simple()
        old.root.children[0].children[0].value = "tampered"
        with pytest.raises(ApplyError):
            apply_delta(delta, old, verify=True)

    def test_unverified_apply_overwrites(self):
        old, new, delta = self.build_simple()
        old.root.children[0].children[0].value = "tampered"
        result = apply_delta(delta, old)  # no verify: applies blindly
        assert result.root.children[0].children[0].value == "y"

    def test_missing_xid(self):
        delta = Delta([Update(999, "a", "b")])
        with pytest.raises(ApplyError):
            apply_delta(delta, parse("<a/>"))

    def test_attach_position_out_of_range(self):
        old = parse("<a/>")
        assign_initial_xids(old)
        payload = Element("zzz")
        payload.xid = 50
        delta = Delta([Insert(50, 1, 5, payload)])
        with pytest.raises(ApplyError):
            apply_delta(delta, old)

    def test_move_source_parent_mismatch(self):
        old = parse("<a><b/><c/></a>")
        assign_initial_xids(old)  # b=1, c=2, a=3
        delta = Delta([Move(1, 999, 0, 3, 1)])
        with pytest.raises(ApplyError):
            apply_delta(delta, old, verify=True)

    def test_duplicate_insert_xid(self):
        old = parse("<a/>")
        assign_initial_xids(old)  # a=1
        payload = Element("dup")
        payload.xid = 1  # collides with <a>
        delta = Delta([Insert(1, 0, 0, payload)])
        with pytest.raises(ApplyError):
            apply_delta(delta, old)

    def test_delete_content_mismatch(self):
        old = parse("<a><b>x</b></a>")
        new = parse("<a/>")
        delta = diff(old, new)
        tampered = parse("<a><b>CHANGED</b></a>")
        # carry over the xids so lookup succeeds but content differs
        assign_initial_xids(tampered)
        with pytest.raises(ApplyError):
            apply_delta(delta, tampered, verify=True)


class TestInversionAlgebra:
    def test_invert_twice_is_identity(self):
        old = parse("<r><a>1</a><b>2</b></r>")
        new = parse("<r><b>2</b><c>3</c></r>")
        delta = diff(old, new)
        assert invert(invert(delta)) == delta

    def test_inverse_applies_backward(self):
        old = parse("<r><a>1</a><b>2</b></r>")
        new = parse("<r><b>9</b><c>3</c></r>")
        delta = diff(old, new)
        restored = apply_delta(invert(delta), new, verify=True)
        assert restored.deep_equal(old)


class TestAggregation:
    def test_three_version_chain(self):
        v0 = parse("<doc><a>one</a><b>two</b></doc>")
        v1 = parse("<doc><a>one!</a><b>two</b><c>three</c></doc>")
        v2 = parse("<doc><b>two</b><c>three?</c></doc>")
        d1 = diff(v0, v1)
        d2 = diff(v1, v2)
        combined = aggregate([d1, d2], v0)
        assert apply_delta(combined, v0, verify=True).deep_equal(v2)
        assert apply_backward(combined, v2, verify=True).deep_equal(v0)

    def test_aggregate_cancels_noise(self):
        # v0 -> v1 inserts a node, v1 -> v2 deletes it again: the
        # aggregated delta must not mention it at all.
        v0 = parse("<doc><a>xx</a></doc>")
        v1 = parse("<doc><a>xx</a><tmp>noise</tmp></doc>")
        v2 = parse("<doc><a>xx</a></doc>")
        d1 = diff(v0, v1)
        d2 = diff(v1, v2)
        combined = aggregate([d1, d2], v0)
        assert combined.is_empty()

    def test_aggregate_empty_list(self):
        assert aggregate([], parse("<a/>")).is_empty()

    def test_aggregate_preserves_base(self):
        v0 = parse("<doc><a>1</a></doc>")
        v1 = parse("<doc><a>2</a></doc>")
        d1 = diff(v0, v1)
        aggregate([d1], v0)
        assert v0.root.children[0].children[0].value == "1"

    def test_updates_compose(self):
        v0 = parse("<doc><a>alpha</a></doc>")
        v1 = parse("<doc><a>beta</a></doc>")
        v2 = parse("<doc><a>gamma</a></doc>")
        d1 = diff(v0, v1)
        d2 = diff(v1, v2)
        combined = aggregate([d1, d2], v0)
        updates = combined.by_kind("update")
        assert len(updates) == 1
        assert updates[0].old_value == "alpha"
        assert updates[0].new_value == "gamma"


class TestXidJoin:
    def test_join_detects_move_exactly(self):
        old = parse("<r><a><x>p</x></a><b/></r>")
        assign_initial_xids(old)
        new = old.clone()
        x = new.root.children[0].children[0]
        new.root.children[1].append(x)
        delta = delta_by_xid_join(old, new)
        assert delta.summary() == {"move": 1}
        assert apply_delta(delta, old, verify=True).deep_equal(new)

    def test_join_requires_labelled_new_doc(self):
        from repro.xmlkit import DeltaError

        old = parse("<r><a/></r>")
        assign_initial_xids(old)
        new = old.clone()
        new.root.append(Element("fresh"))  # no xid
        with pytest.raises(DeltaError):
            delta_by_xid_join(old, new)
