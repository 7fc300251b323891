"""Tests for delta transformations (moves -> delete+insert)."""

import pytest

from repro.core import apply_delta, delta_byte_size, diff
from repro.core.transform import moves_to_edits, strip_metadata
from repro.xmlkit import parse


def diff_pair(old_text, new_text):
    old = parse(old_text)
    new = parse(new_text)
    delta = diff(old, new)
    return old, new, delta


class TestMovesToEdits:
    def test_simple_move_converted(self):
        old, new, delta = diff_pair(
            "<r><a><big><x>one</x><y>two</y></big></a><b/></r>",
            "<r><a/><b><big><x>one</x><y>two</y></big></b></r>",
        )
        assert delta.summary() == {"move": 1}
        rewritten = moves_to_edits(delta, old)
        assert rewritten.by_kind("move") == []
        assert len(rewritten.by_kind("delete")) == 1
        assert len(rewritten.by_kind("insert")) == 1
        # same content effect
        assert apply_delta(rewritten, old, verify=True).deep_equal(new)

    def test_intra_parent_reorder_converted(self):
        old, new, delta = diff_pair(
            "<r><a>aaaa</a><b>bbbb</b><c>cccc</c></r>",
            "<r><c>cccc</c><a>aaaa</a><b>bbbb</b></r>",
        )
        assert delta.summary() == {"move": 1}
        rewritten = moves_to_edits(delta, old)
        assert rewritten.by_kind("move") == []
        assert apply_delta(rewritten, old, verify=True).deep_equal(new)

    def test_cross_parent_move_converted(self):
        old, new, delta = diff_pair(
            "<r><p1><thing><d>content here</d></thing></p1><p2/></r>",
            "<r><p1/><p2><thing><d>content here</d></thing></p2></r>",
        )
        assert delta.summary() == {"move": 1}
        rewritten = moves_to_edits(delta, old)
        assert rewritten.by_kind("move") == []
        assert apply_delta(rewritten, old, verify=True).deep_equal(new)

    def test_delta_without_moves_unchanged(self):
        old, new, delta = diff_pair("<a><b>x</b></a>", "<a><b>y</b></a>")
        rewritten = moves_to_edits(delta, old)
        assert rewritten == delta

    def test_size_cost_of_missing_moves(self):
        # the measurable trade-off: delete+insert carries the subtree
        # twice, a move is a one-line operation
        old, new, delta = diff_pair(
            "<r><a><big><x>payload one</x><y>payload two</y></big></a><b/></r>",
            "<r><a/><b><big><x>payload one</x><y>payload two</y></big></b></r>",
        )
        rewritten = moves_to_edits(delta, old)
        assert delta_byte_size(rewritten) > 2 * delta_byte_size(delta)

    def test_identity_loss(self):
        # converted subtrees lose their persistent identity: the reborn
        # nodes carry fresh XIDs
        old, new, delta = diff_pair(
            "<r><a><thing><d>tt</d></thing></a><b/></r>",
            "<r><a/><b><thing><d>tt</d></thing></b></r>",
        )
        from repro.core import max_xid

        rewritten = moves_to_edits(delta, old)
        insert = rewritten.by_kind("insert")[0]
        assert insert.xid > max_xid(old)

    def test_move_with_inner_update_not_converted(self):
        # the moved subtree's text also changes: conversion would break
        # the update's XID reference, so the move must survive
        old, new, delta = diff_pair(
            "<r><a><thing><d>before move</d></thing></a><b/></r>",
            "<r><a/><b><thing><d>after move</d></thing></b></r>",
        )
        kinds = delta.summary()
        if kinds.get("move") and kinds.get("update"):
            rewritten = moves_to_edits(delta, old)
            assert len(rewritten.by_kind("move")) == 1
            assert apply_delta(rewritten, old, verify=True).deep_equal(new)

    def test_simulated_changes_roundtrip(self):
        from repro.simulator import (
            GeneratorConfig,
            SimulatorConfig,
            generate_document,
            simulate_changes,
        )

        base = generate_document(GeneratorConfig(target_nodes=120, seed=91))
        result = simulate_changes(
            base, SimulatorConfig(0.08, 0.08, 0.08, 0.2, seed=92)
        )
        old = base.clone(keep_xids=False)
        new = result.new_document.clone(keep_xids=False)
        delta = diff(old, new)
        rewritten = moves_to_edits(delta, old)
        assert apply_delta(rewritten, old, verify=True).deep_equal(new)


class TestStripMetadata:
    def test_metadata_removed(self):
        old, _, delta = diff_pair("<a>1</a>", "<a>2</a>")
        delta.base_version = 5
        stripped = strip_metadata(delta)
        assert stripped.base_version is None
        assert stripped == delta  # equality is operation-set based
