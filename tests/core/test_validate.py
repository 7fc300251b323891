"""Tests for delta validation."""

import pytest

from repro.core import (
    Delete,
    Delta,
    Insert,
    Move,
    Update,
    AttributeUpdate,
    assign_initial_xids,
    diff,
)
from repro.core.validate import validate_delta
from repro.xmlkit import Element, parse


def labelled(text):
    doc = parse(text)
    assign_initial_xids(doc)
    return doc


def payload(label, xid):
    element = Element(label)
    element.xid = xid
    return element


def codes(problems):
    return {problem.code for problem in problems}


class TestCleanDeltas:
    @pytest.mark.parametrize(
        "old_text,new_text",
        [
            ("<a><b>x</b></a>", "<a><b>y</b></a>"),
            ("<a><b>x</b></a>", "<a><b>x</b><c/></a>"),
            ("<r><a>aa</a><b>bb</b></r>", "<r><b>bb</b><a>aa</a></r>"),
            ('<a k="1"/>', '<a k="2"/>'),
        ],
    )
    def test_diff_output_is_clean(self, old_text, new_text):
        old = parse(old_text)
        new = parse(new_text)
        delta = diff(old, new)
        assert validate_delta(delta, old) == []

    def test_empty_delta(self):
        assert validate_delta(Delta([])) == []

    def test_simulated_deltas_are_clean(self):
        from repro.simulator import (
            GeneratorConfig,
            SimulatorConfig,
            generate_document,
            simulate_changes,
        )

        for seed in range(5):
            base = generate_document(
                GeneratorConfig(target_nodes=80, seed=seed)
            )
            result = simulate_changes(base, SimulatorConfig(seed=seed + 7))
            assert validate_delta(result.perfect_delta(), base) == []


class TestInternalProblems:
    def test_duplicate_update(self):
        delta = Delta([Update(3, "a", "b"), Update(3, "a", "c")])
        assert "duplicate-update" in codes(validate_delta(delta))

    def test_noop_update_warning(self):
        problems = validate_delta(Delta([Update(3, "same", "same")]))
        assert "noop-update" in codes(problems)
        assert all(p.severity == "warning" for p in problems)

    def test_duplicate_delete(self):
        delta = Delta(
            [Delete(5, 1, 0, payload("x", 5)), Delete(5, 1, 0, payload("x", 5))]
        )
        found = codes(validate_delta(delta))
        assert "duplicate-delete" in found
        assert "overlapping-deletes" in found

    def test_move_of_deleted_node(self):
        delta = Delta(
            [Delete(5, 1, 0, payload("x", 5)), Move(5, 1, 0, 2, 0)]
        )
        assert "move-of-deleted" in codes(validate_delta(delta))

    def test_update_inside_delete_payload(self):
        root = payload("x", 5)
        child = payload("y", 4)
        root.append(child)
        delta = Delta([Delete(5, 1, 0, root), Update(4, "a", "b")])
        assert "update-of-deleted" in codes(validate_delta(delta))

    def test_xid_reuse_between_inserts(self):
        delta = Delta(
            [
                Insert(9, 1, 0, payload("x", 9)),
                Insert(9, 1, 1, payload("y", 9)),
            ]
        )
        assert "xid-reuse" in codes(validate_delta(delta))

    def test_delete_insert_collision(self):
        delta = Delta(
            [Delete(5, 1, 0, payload("x", 5)), Insert(5, 1, 0, payload("x", 5))]
        )
        assert "delete-insert-xid-collision" in codes(validate_delta(delta))

    def test_duplicate_attribute_op(self):
        delta = Delta(
            [
                AttributeUpdate(3, "k", "a", "b"),
                AttributeUpdate(3, "k", "b", "c"),
            ]
        )
        assert "duplicate-attribute-op" in codes(validate_delta(delta))

    def test_duplicate_move(self):
        delta = Delta([Move(3, 1, 0, 2, 0), Move(3, 2, 0, 1, 0)])
        assert "duplicate-move" in codes(validate_delta(delta))

    def test_negative_positions(self):
        delta = Delta([Move(3, 1, -1, 2, 0)])
        assert "negative-position" in codes(validate_delta(delta))


class TestExternalProblems:
    def test_unknown_xid(self):
        doc = labelled("<a/>")
        delta = Delta([Update(99, "a", "b")])
        assert "unknown-xid" in codes(validate_delta(delta, doc))

    def test_update_target_kind(self):
        doc = labelled("<a><b/></a>")  # b=1 element
        delta = Delta([Update(1, "a", "b")])
        assert "update-target-kind" in codes(validate_delta(delta, doc))

    def test_stale_old_value_warning(self):
        doc = labelled("<a>actual</a>")
        delta = Delta([Update(1, "expected", "new")])
        problems = validate_delta(delta, doc)
        assert "stale-old-value" in codes(problems)

    def test_attach_target_kind(self):
        doc = labelled("<a>txt</a>")  # text=1
        delta = Delta([Insert(50, 1, 0, payload("x", 50))])
        assert "attach-target-kind" in codes(validate_delta(delta, doc))

    def test_move_into_inserted_subtree_allowed(self):
        doc = labelled("<a><b/></a>")  # b=1, a=2
        inserted = payload("holder", 50)
        delta = Delta(
            [Insert(50, 2, 0, inserted), Move(1, 2, 0, 50, 0)]
        )
        assert validate_delta(delta, doc) == []

    def test_attribute_on_text_node(self):
        doc = labelled("<a>txt</a>")
        delta = Delta([AttributeUpdate(1, "k", "a", "b")])
        assert "attribute-target-kind" in codes(validate_delta(delta, doc))

    def test_stale_parent_warning(self):
        doc = labelled("<a><b/></a>")  # b=1, a=2
        delta = Delta([Delete(1, 99, 0, payload("b", 1))])
        assert "stale-parent" in codes(validate_delta(delta, doc))
