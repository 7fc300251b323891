"""Phase 3's candidate index: the probe count stays flat as documents grow.

BULD keeps its ``O(n log n)`` bound (Section 5) only if each new subtree
finds its viable old candidates in a few bucket entries.  A lookup that
re-scanned old nodes already taken by earlier matches made the total
work grow with bucket length; the index now drops taken nodes the first
time a lookup passes them.  The count of bucket entries inspected is
deterministic, so it gates the complexity where a wall-clock bound could
not.
"""

import pytest

from repro.core.buld import CANDIDATE_PROBES, BuldMatcher
from repro.core.config import DiffConfig
from repro.core.diff import diff_with_stats
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import parse
from repro.xmlkit.model import Node

from tests.core.buld_phases import run_phases

#: Probes per new node may grow by at most this factor from 4k to 36k
#: nodes (×9 the nodes).  A scan that revisits taken nodes grows ×3.2.
PROBE_GROWTH_BOUND = 1.5


def probes_per_new_node(nodes: int) -> float:
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=1))
    new = simulate_changes(
        base, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=2)
    ).new_document
    _, stats = diff_with_stats(
        base.clone(keep_xids=False), new.clone(keep_xids=False)
    )
    return stats.counters[CANDIDATE_PROBES] / stats.new_nodes


def test_probes_per_node_do_not_grow_with_document_size():
    small = probes_per_new_node(4_000)
    large = probes_per_new_node(36_000)
    assert large <= PROBE_GROWTH_BOUND * small, (small, large)


def test_counter_reported_for_buld_only():
    old = parse("<a><b>x</b><b>x</b></a>")
    new = parse("<a><b>x</b><c/><b>x</b></a>")
    _, stats = diff_with_stats(old, new)
    assert stats.counters[CANDIDATE_PROBES] > 0
    _, stats = diff_with_stats(
        parse("<a><b>x</b></a>"), parse("<a><b>y</b></a>"), engine="flat"
    )
    assert CANDIDATE_PROBES not in stats.counters


def entries(bucket):
    """A stored bucket's nodes in document order.

    The index stores a lone old node without a list; it reads as a
    one-entry bucket.  Buckets that are lists are stored head-last.
    """
    if isinstance(bucket, Node):
        return [bucket]
    return list(reversed(bucket))


class TestIndexShape:
    def test_secondary_index_only_for_shared_signatures(self):
        matcher = BuldMatcher(
            parse("<r><p><x>1</x><x>1</x></p><q><y>2</y></q></r>"),
            parse("<r/>"),
            DiffConfig(),
        )
        matcher.phase2_annotate()
        old_signatures = matcher.old_annotations.signatures
        shared = {
            signature
            for signature, bucket in matcher._signature_index.items()
            if len(entries(bucket)) > 1
        }
        assert shared  # the two <x>1</x> subtrees (and their texts)
        assert {key[0] for key in matcher._parent_index} == shared
        q = matcher.old_document.root.find("q")
        lone = old_signatures[q]
        assert lone not in shared
        assert matcher._signature_index[lone] is q


class CountingMatcher(BuldMatcher):
    """Counts lookups and keeps an untouched copy of every bucket."""

    def phase2_annotate(self):
        super().phase2_annotate()
        self.lookups = 0
        # (index, key, entries in document order); a lookup replaces a
        # taken lone node's entry, so the check reads it by key.
        self.full_buckets = [
            (index, key, entries(bucket))
            for index in (self._signature_index, self._parent_index)
            for key, bucket in index.items()
        ]

    def _find_best_candidate(self, node, weight):
        self.lookups += 1
        return super()._find_best_candidate(node, weight)


class CheckedMatcher(CountingMatcher):
    """Checks the compacted buckets against the copies before each lookup."""

    def _find_best_candidate(self, node, weight):
        matching = self.matching

        def viable(nodes):
            return [
                each
                for each in nodes
                if not matching.has_old(each) and not matching.is_locked(each)
            ]

        for index, key, full in self.full_buckets:
            assert viable(entries(index[key])) == viable(full)
        return super()._find_best_candidate(node, weight)


def simulated_pair(nodes, seed):
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=seed))
    new = simulate_changes(
        base, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=seed + 1)
    ).new_document
    return base.clone(keep_xids=False), new.clone(keep_xids=False)


class TestCompaction:
    @pytest.mark.parametrize("max_candidates", [1, 3, 32])
    def test_buckets_keep_every_viable_candidate_in_order(
        self, max_candidates
    ):
        old, new = simulated_pair(600, seed=11)
        matcher = run_phases(
            CheckedMatcher(old, new, DiffConfig(max_candidates=max_candidates))
        )
        assert matcher.lookups > 0

    @pytest.mark.parametrize("max_candidates", [1, 3, 32])
    def test_probes_are_linear(self, max_candidates):
        # A lookup inspects at most max_candidates viable entries plus
        # one on the secondary index; every other entry it inspects is
        # taken and dropped, which happens once per entry and index.
        old, new = simulated_pair(3_000, seed=21)
        matcher = run_phases(
            CountingMatcher(old, new, DiffConfig(max_candidates=max_candidates))
        )
        stored = sum(len(full) for _, _, full in matcher.full_buckets)
        bound = matcher.lookups * (max_candidates + 1) + stored
        assert matcher.candidate_probes <= bound
