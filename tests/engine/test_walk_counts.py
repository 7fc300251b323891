"""Whole-tree walks the diff and the store no longer repeat.

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
from repro.core import diff
from repro.core.xid import XidAllocator, assign_initial_xids, format_xid_map
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
