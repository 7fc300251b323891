"""Whole-tree walks the diff and the store no longer repeat.

No engine walks a tree only to count its nodes (see
:class:`TestEnginesCountFromTheirOwnWalks`).

A diff of an unlabelled old document labels it with postorder XIDs, and
the allocator that labelling returns is already positioned past them: a
``max_xid`` walk to find the same number is waste.  A stored snapshot
gets its XID labels back in one walk that reads the stored ranges run by
run, without a list of every label.
"""

import pytest

import repro.core.builder as builder_module
import repro.core.xid as xid_module
import repro.engine.base as base_module
import repro.versioning.layout as layout_module
import repro.xmlkit.model as model_module
from repro.core import delta_by_xid_join, diff
from repro.core.xid import XidAllocator, assign_initial_xids, format_xid_map
from repro.engine.engines import ENGINES, diff_with_stats
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.versioning.layout import restore_xids
from repro.xmlkit import parse, postorder

OLD = "<r><a>x</a><b k='1'><c/>y</b></r>"
NEW = "<r><b k='2'><c/>y</b><a>x</a><d/></r>"


@pytest.fixture
def max_xid_calls(monkeypatch):
    calls = []
    real = xid_module.max_xid

    def counting(document):
        calls.append(document)
        return real(document)

    for module in (base_module, builder_module):
        monkeypatch.setattr(module, "max_xid", counting)
    return calls


def test_an_unlabelled_old_document_needs_no_max_xid_walk(max_xid_calls):
    old, new = parse(OLD), parse(NEW)
    delta = diff(old, new)
    assert max_xid_calls == []
    # The allocator continued right after the initial labels.
    nodes = len(postorder(old)) - 1
    assert delta.next_xid_before == nodes + 1
    assert delta.next_xid_after == nodes + 2  # <d/> is new


def test_a_labelled_old_document_is_walked_once(max_xid_calls):
    old, new = parse(OLD), parse(NEW)
    assign_initial_xids(old)
    diff(old, new)
    assert max_xid_calls == [old]


def test_an_explicit_allocator_is_kept(max_xid_calls):
    old, new = parse(OLD), parse(NEW)
    delta = diff(old, new, allocator=XidAllocator(100))
    assert max_xid_calls == []
    assert delta.next_xid_before == 100


class TestRestoreXids:
    def labelled(self):
        document = parse(OLD)
        assign_initial_xids(document)
        # Relabel so that the ranges have several runs.
        for node in postorder(document)[:-1]:
            node.xid = node.xid * 3 if node.xid % 2 else node.xid + 40
        return document

    def test_one_walk_and_no_label_list(self, monkeypatch):
        document = self.labelled()
        labels = format_xid_map(n.xid for n in postorder(document)[:-1])
        walks = []
        real = model_module.postorder

        def counting(node):
            walks.append(node)
            return real(node)

        monkeypatch.setattr(model_module, "postorder", counting)

        def expanded(text):
            pytest.fail("the labels were expanded to a list")

        monkeypatch.setattr(xid_module, "parse_xid_map", expanded)
        monkeypatch.setattr(
            layout_module, "parse_xid_map", expanded, raising=False
        )
        loaded = parse(OLD)
        restore_xids(loaded, labels)
        assert len(walks) == 1
        assert [n.xid for n in real(loaded)] == [
            n.xid for n in real(document)[:-1]
        ] + [0]

    def test_a_plain_list_still_loads(self):
        document = self.labelled()
        xids = [n.xid for n in postorder(document)[:-1]]
        loaded = parse(OLD)
        restore_xids(loaded, xids)
        assert [n.xid for n in postorder(loaded)] == xids + [0]

    @pytest.mark.parametrize("labels", ["(1-3)", "(1-20)", [1, 2]])
    def test_labels_that_do_not_fit_raise(self, labels):
        with pytest.raises(layout_module.RepositoryError):
            restore_xids(parse(OLD), labels)

    @pytest.mark.parametrize("labels", [None, "()", []])
    def test_no_labels_assign_initial_xids(self, labels):
        loaded = parse(OLD)
        restore_xids(loaded, labels)
        nodes = postorder(loaded)
        assert [n.xid for n in nodes] == list(range(1, len(nodes))) + [0]


class TestEnginesCountFromTheirOwnWalks:
    """Node counts come from walks a diff makes anyway.

    No engine calls ``subtree_size`` to count a tree, and the delta
    builder takes the move detector's subtree sizes from its one
    postorder labelling pass over the new tree.
    """

    #: ``(old_nodes, new_nodes)`` of OLD/NEW, document nodes included.
    COUNTS = (7, 8)

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = {"subtree_size": 0, "postorder": []}
        real_size = model_module.Node.subtree_size
        real_postorder = builder_module.pruned_postorder

        def counting_size(node):
            calls["subtree_size"] += 1
            return real_size(node)

        def recording_postorder(root, skip):
            calls["postorder"].append(root)
            return real_postorder(root, skip)

        monkeypatch.setattr(model_module.Node, "subtree_size", counting_size)
        monkeypatch.setattr(
            builder_module, "pruned_postorder", recording_postorder
        )
        return calls

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_no_count_walk(self, walks, engine):
        old = generate_document(GeneratorConfig(target_nodes=500, seed=3))
        new = simulate_changes(old, SimulatorConfig(seed=4)).new_document
        old, new = old.clone(keep_xids=False), new.clone(keep_xids=False)
        walks["subtree_size"] = 0  # the simulator counts what it deletes
        _, stats = diff_with_stats(old, new, engine=engine)
        assert walks["subtree_size"] == 0
        assert walks["postorder"] == [new]
        assert (stats.old_nodes, stats.new_nodes) == (
            len(postorder(old)), len(postorder(new))
        )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_counts_of_a_fixed_pair(self, engine):
        _, stats = diff_with_stats(parse(OLD), parse(NEW), engine=engine)
        assert (stats.old_nodes, stats.new_nodes) == self.COUNTS

    def test_aggregation_takes_sizes_from_its_check_pass(self, walks):
        old, new = parse(OLD), parse(NEW)
        delta = diff(old, new)
        walks["postorder"].clear()
        delta_by_xid_join(old, new)
        assert walks["subtree_size"] == 0
        assert walks["postorder"] == [new]
        assert not delta.is_empty()
