"""Settled regions: phase 3's whole identical pairings, skipped later.

Phase 3 pairs two subtrees of equal exact subtree numbers node by node.
When every node was free, the pairing is *settled*: its interior can
hold no operation, so phase 4 and the delta builder skip it.  These
tests pin that skipping changes no output: the delta equals the one
built from the same matching walked whole, and the one a provenance
recorder (which settles nothing) gets.  ``buld_settled_nodes`` is the
deterministic count of the nodes skipped.
"""

import json

import pytest

from repro.core import diff
from repro.core.buld import SETTLED_NODES, BuldMatcher
from repro.core.builder import build_delta
from repro.core.config import DiffConfig
from repro.core.deltaxml import serialize_delta
from repro.core.diff import diff_with_stats
from repro.core.matching import Matching, pruned_postorder, pruned_preorder
from repro.core.xid import assign_initial_xids
from repro.obs.provenance import ProvenanceRecorder, build_report
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    WebCorpus,
    WebCorpusConfig,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import Element, Text, parse, postorder, preorder, serialize

from tests.integration.cycle_garbage import fig4_texts

#: ``buld_settled_nodes`` of the FIG4 1k-node pair (1,084 new nodes)
#: and of the weekly pair (954 new nodes).
SETTLED_FIG4_1K = 213
SETTLED_WEEKLY = 575


def weekly_texts():
    """Week 0 and week 1 of the largest fast FIG6 page (corpus seed 6)."""
    corpus = WebCorpus(
        WebCorpusConfig(documents=6, min_bytes=400, max_bytes=60_000, seed=6)
    )
    old, new = corpus.weekly_versions(4, weeks=1)
    return serialize(old), serialize(new)


def simulated_texts(nodes, seed):
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=seed))
    new = simulate_changes(
        base, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=seed + 1)
    ).new_document
    return (
        serialize(base.clone(keep_xids=False)),
        serialize(new.clone(keep_xids=False)),
    )


PAIRS = {
    "fig4-1k": lambda: fig4_texts(1_000)[:2],
    "weekly": weekly_texts,
    "fig4-3k-seed-5": lambda: simulated_texts(3_000, 5),
    "fig4-600-seed-9": lambda: simulated_texts(600, 9),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def texts(request):
    return PAIRS[request.param]()


class TestCounter:
    def test_pinned_on_the_fig4_1k_pair(self):
        old, new = fig4_texts(1_000)[:2]
        _, stats = diff_with_stats(parse(old), parse(new))
        assert stats.counters[SETTLED_NODES] == SETTLED_FIG4_1K

    def test_pinned_on_a_weekly_pair(self):
        old, new = weekly_texts()
        _, stats = diff_with_stats(parse(old), parse(new))
        assert stats.counters[SETTLED_NODES] == SETTLED_WEEKLY

    def test_an_unchanged_document_is_settled_whole(self):
        text = "<r><a><b>x</b><c k='v'/></a><d>y</d></r>"
        _, stats = diff_with_stats(parse(text), parse(text))
        # Everything below the root element: a, b, x, c, d, y.
        assert stats.counters[SETTLED_NODES] == 6

    def test_zero_with_a_recorder_and_absent_for_other_engines(self):
        old, new = fig4_texts(1_000)[:2]
        _, stats = diff_with_stats(
            parse(old), parse(new), recorder=ProvenanceRecorder()
        )
        assert stats.counters[SETTLED_NODES] == 0
        _, stats = diff_with_stats(parse(old), parse(new), engine="flat")
        assert SETTLED_NODES not in stats.counters


class TestSameOutput:
    def test_settled_skips_change_no_delta(self, texts):
        old_text, new_text = texts
        old, new = parse(old_text), parse(new_text)
        assign_initial_xids(old)
        matcher = BuldMatcher(old, new, DiffConfig())
        matching = matcher.run()
        assert matching.settled_nodes > 0
        skipped = serialize_delta(build_delta(old, new, matching))
        # The same matching with its settled regions forgotten: every
        # pass walks the whole trees.
        matching.settled_old, matching.settled_new = set(), set()
        matching._interiors = []
        assert serialize_delta(build_delta(old, new, matching)) == skipped

    def test_a_recorder_gets_the_same_delta_and_audit(self, texts):
        old_text, new_text = texts
        plain = diff(parse(old_text), parse(new_text))
        old, new = parse(old_text), parse(new_text)
        recorder = ProvenanceRecorder()
        recorded, _ = diff_with_stats(old, new, recorder=recorder)
        assert serialize_delta(recorded) == serialize_delta(plain)
        assert (
            build_report(recorder, old, new, plain).to_dict()
            == build_report(recorder, old, new, recorded).to_dict()
        )

    def test_the_ci_audit_pair_keeps_its_figures(self, tmp_path):
        from repro.cli import main

        old, new, perfect = (tmp_path / name for name in ("o", "n", "p"))
        assert main([
            "generate", "--nodes", "400", "--seed", "7", "-o", str(old),
        ]) == 0
        assert main([
            "simulate", str(old), "--seed", "8", "-o", str(new),
            "--delta-output", str(perfect),
        ]) == 0
        report = tmp_path / "audit.json"
        assert main([
            "audit", str(old), str(new), "--ground-truth", str(perfect),
            "--json", "--summary", "-o", str(report),
        ]) == 0
        payload = json.loads(report.read_text())
        assert round(payload["unmatched_weight_ratio"], 4) == 0.0849
        assert round(payload["ground_truth_size_ratio"], 4) == 1.3032

    def test_new_xids_match_a_full_labelling(self, texts):
        old_text, new_text = texts
        old, new = parse(old_text), parse(new_text)
        diff(old, new)
        old_again, new_again = parse(old_text), parse(new_text)
        diff_with_stats(old_again, new_again, recorder=ProvenanceRecorder())
        assert [n.xid for n in postorder(new)] == [
            n.xid for n in postorder(new_again)
        ]


class TestMatching:
    def pair(self, text):
        old, new = parse(text), parse(text)
        assign_initial_xids(old)
        return old, new

    def test_interiors_leave_loose_pairs_in_order(self):
        old, new = self.pair("<r><a><b/><c/></a><d>t</d></r>")
        matching = Matching()
        matching.add(old, new)
        a_old, d_old = old.root.children
        a_new, d_new = new.root.children
        matching.add_identical(d_old, d_new)
        matching.add(old.root, new.root)
        matching.add_identical(a_old, a_new)
        assert matching.settled_nodes == 3
        assert matching.settled_new == {d_new, a_new}
        assert matching.settled_old == {d_old, a_old}
        assert list(matching.loose_pairs()) == [
            (old, new), (d_old, d_new), (old.root, new.root), (a_old, a_new),
        ]
        assert len(list(matching.pairs())) == 7
        # add_identical copied the XIDs; add leaves them to the builder.
        for old_node in (a_old, d_old, *a_old.children, *d_old.children):
            assert matching.new_of(old_node).xid == old_node.xid
        assert new.root.xid is None

    def test_a_region_with_a_taken_node_is_not_settled(self):
        old, new = self.pair("<r><a><b>x</b><c/></a></r>")
        matching = Matching()
        a_old, a_new = old.root.children[0], new.root.children[0]
        c_old = a_old.children[1]
        matching.lock(c_old)
        matching.add_identical(a_old, a_new)
        assert matching.settled_nodes == 0
        assert not matching.settled_new
        assert not matching.has_old(c_old)
        # The pairs made are loose: the builder still walks them.
        assert len(list(matching.loose_pairs())) == 3

    def test_pairs_are_added_in_per_node_order(self):
        old, new = self.pair("<r><a><b>x</b><c>y</c></a><d/></r>")
        per_node = Matching()
        stack = [(old.root, new.root)]
        while stack:
            old_node, new_node = stack.pop()
            per_node.add(old_node, new_node)
            stack.extend(zip(old_node.children, new_node.children))
        identical = Matching()
        identical.add_identical(old.root, new.root)
        assert list(identical.pairs()) == list(per_node.pairs())

    def test_leaf_regions_are_not_marked(self):
        old, new = Text("x"), Text("x")
        matching = Matching()
        matching.add_identical(old, new)
        assert matching.settled_nodes == 0 and not matching.settled_new


class TestPrunedWalks:
    def test_walks_leave_out_skipped_subtrees(self):
        document = parse("<r><a><b/></a><c><d/></c></r>")
        a, c = document.root.children
        names = lambda nodes: [n.label for n in nodes if n.kind == "element"]
        assert names(pruned_preorder(document, {a})) == ["r", "c", "d"]
        assert names(pruned_postorder(document, {c})) == ["b", "a", "r"]

    def test_an_empty_skip_is_the_plain_walk(self):
        document = parse("<r><a><b/></a><c>t</c></r>")
        assert list(pruned_preorder(document, set())) == list(
            preorder(document)
        )
        assert pruned_postorder(document, set()) == postorder(document)

    def test_element_skip_keeps_its_siblings(self):
        root = Element("r")
        kept = root.append(Element("k"))
        skipped = root.append(Element("s"))
        skipped.append(Text("hidden"))
        assert pruned_postorder(root, {skipped}) == [kept, root]
