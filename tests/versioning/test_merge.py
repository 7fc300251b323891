"""Tests for three-way merge / offline synchronization."""

import pytest

from repro.core import assign_initial_xids, diff
from repro.versioning.merge import merge
from repro.xmlkit import parse


def setup_three_way(base_text, ours_text, theirs_text):
    """Base + two deltas computed against it, the way two offline editors
    would produce them."""
    base = parse(base_text)
    assign_initial_xids(base)
    ours_delta = diff(base, parse(ours_text))
    theirs_delta = diff(base, parse(theirs_text))
    return base, ours_delta, theirs_delta


class TestCleanMerges:
    def test_disjoint_updates(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>one</a><b>two</b></doc>",
            "<doc><a>ONE</a><b>two</b></doc>",
            "<doc><a>one</a><b>TWO</b></doc>",
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        assert result.document.deep_equal(
            parse("<doc><a>ONE</a><b>TWO</b></doc>")
        )

    def test_disjoint_inserts(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a></doc>",
            "<doc><a>x</a><b>mine</b></doc>",
            "<doc><a>x</a><c>yours</c></doc>",
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        merged = result.document
        labels = {c.label for c in merged.root.children if c.kind == "element"}
        assert labels == {"a", "b", "c"}

    def test_insert_plus_update(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a></doc>",
            "<doc><a>x</a><b>new</b></doc>",
            "<doc><a>y</a></doc>",
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        assert result.document.root.find("a").text_content() == "y"
        assert result.document.root.find("b") is not None

    def test_identical_changes_deduplicated(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a></doc>",
            "<doc><a>same-change</a></doc>",
            "<doc><a>same-change</a></doc>",
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        assert result.deduplicated == 1
        assert result.document.root.find("a").text_content() == "same-change"

    def test_delete_plus_unrelated_update(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a><b>y</b></doc>",
            "<doc><b>y</b></doc>",  # ours deletes a
            "<doc><a>x</a><b>Y!</b></doc>",  # theirs updates b
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        assert result.document.deep_equal(parse("<doc><b>Y!</b></doc>"))

    def test_fresh_xid_collision_resolved(self):
        # both sides insert different content: identical fresh XIDs must
        # not collide in the merged document
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a></doc>",
            "<doc><a>x</a><mine><deep>1</deep></mine></doc>",
            "<doc><a>x</a><yours><deep>2</deep></yours></doc>",
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        from repro.core import xid_index

        xid_index(result.document)  # raises on duplicates


class TestConflicts:
    def test_update_update(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>base</a></doc>",
            "<doc><a>mine</a></doc>",
            "<doc><a>yours</a></doc>",
        )
        result = merge(base, ours, theirs)
        assert len(result.conflicts) == 1
        conflict = result.conflicts[0]
        assert conflict.kind == "update-update"
        assert result.document.root.find("a").text_content() == "mine"

    def test_prefer_theirs(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>base</a></doc>",
            "<doc><a>mine</a></doc>",
            "<doc><a>yours</a></doc>",
        )
        result = merge(base, ours, theirs, prefer="theirs")
        assert len(result.conflicts) == 1
        assert result.document.root.find("a").text_content() == "yours"

    def test_edit_vs_delete(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>keep me</a><b>z</b></doc>",
            "<doc><a>edited text</a><b>z</b></doc>",  # ours edits a
            "<doc><b>z</b></doc>",  # theirs deletes a
        )
        result = merge(base, ours, theirs)
        assert len(result.conflicts) == 1
        assert result.conflicts[0].kind == "edit-delete"
        # preferred side (ours) wins: the edited node survives
        assert result.document.root.find("a").text_content() == "edited text"

    def test_delete_vs_edit(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>bye</a><b>z</b></doc>",
            "<doc><b>z</b></doc>",  # ours deletes a
            "<doc><a>edited</a><b>z</b></doc>",  # theirs edits a
        )
        result = merge(base, ours, theirs)
        assert len(result.conflicts) == 1
        assert result.conflicts[0].kind == "delete-edit"
        assert result.document.root.find("a") is None

    def test_move_move_divergent(self):
        base, ours, theirs = setup_three_way(
            "<doc><item><deep>payload text</deep></item><p1/><p2/></doc>",
            "<doc><p1><item><deep>payload text</deep></item></p1><p2/></doc>",
            "<doc><p1/><p2><item><deep>payload text</deep></item></p2></doc>",
        )
        result = merge(base, ours, theirs)
        kinds = {c.kind for c in result.conflicts}
        assert "move-move" in kinds
        # ours wins: item lives under p1
        assert result.document.root.find("p1").find("item") is not None
        assert result.document.root.find("p2").find("item") is None

    def test_attribute_conflict(self):
        base, ours, theirs = setup_three_way(
            '<doc><a k="base">t</a></doc>',
            '<doc><a k="mine">t</a></doc>',
            '<doc><a k="yours">t</a></doc>',
        )
        result = merge(base, ours, theirs)
        assert result.conflicts[0].kind == "attr-attr"
        assert result.document.root.find("a").get("k") == "mine"

    def test_insert_into_deleted_region(self):
        base, ours, theirs = setup_three_way(
            "<doc><sec><a>x</a></sec><other>keep this</other></doc>",
            "<doc><other>keep this</other></doc>",  # ours deletes sec
            # theirs adds content inside sec
            "<doc><sec><a>x</a><b>new</b></sec><other>keep this</other></doc>",
        )
        result = merge(base, ours, theirs)
        kinds = {c.kind for c in result.conflicts}
        assert "insert-into-deleted" in kinds
        assert result.document.root.find("sec") is None

    def test_both_delete_same_subtree_is_clean(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a><b>y</b></doc>",
            "<doc><b>y</b></doc>",
            "<doc><b>y</b></doc>",
        )
        result = merge(base, ours, theirs)
        assert result.is_clean
        assert result.document.deep_equal(parse("<doc><b>y</b></doc>"))


class TestMergeValidity:
    def test_invalid_prefer(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a></doc>", "<doc><a>x</a></doc>", "<doc><a>x</a></doc>"
        )
        with pytest.raises(ValueError):
            merge(base, ours, theirs, prefer="mine")

    def test_base_not_mutated(self):
        base, ours, theirs = setup_three_way(
            "<doc><a>x</a></doc>",
            "<doc><a>y</a></doc>",
            "<doc><a>x</a><b/></doc>",
        )
        pristine = base.clone()
        merge(base, ours, theirs)
        assert base.deep_equal(pristine)

    def test_merged_document_is_wellformed(self):
        from repro.xmlkit import parse as reparse, serialize

        base, ours, theirs = setup_three_way(
            "<doc><a>one two</a><b>three</b><c>four</c></doc>",
            "<doc><b>three</b><a>one two</a><new>n</new></doc>",
            "<doc><a>one two five</a><c>four!</c></doc>",
        )
        result = merge(base, ours, theirs)
        assert reparse(serialize(result.document)).deep_equal(result.document)

    def test_merge_of_simulated_edits(self):
        """Random divergent edits merge without crashing and keep all
        non-conflicting content."""
        from repro.simulator import (
            GeneratorConfig,
            SimulatorConfig,
            generate_document,
            simulate_changes,
        )

        base = generate_document(GeneratorConfig(target_nodes=80, seed=77))
        ours_result = simulate_changes(
            base, SimulatorConfig(0.05, 0.1, 0.05, 0.02, seed=1)
        )
        theirs_result = simulate_changes(
            base, SimulatorConfig(0.05, 0.1, 0.05, 0.02, seed=2)
        )
        result = merge(
            base, ours_result.perfect_delta(), theirs_result.perfect_delta()
        )
        assert result.document.root is not None
        # sanity: merged doc has valid unique XIDs
        from repro.core import xid_index

        xid_index(result.document)
