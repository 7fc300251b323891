"""The BULD matching algorithm (Bottom-Up, Lazy-Down — Section 5).

BULD computes a matching between the nodes of two versions of an XML
document in near-linear time.  The phases follow the paper exactly:

**Phase 1 — ID attributes.**  Elements carrying a DTD-declared ID attribute
are uniquely identified by its value: equal values on both sides match
immediately; an ID value present on only one side *locks* its node — it can
never be matched, even later.  A bottom-up / top-down propagation pass then
spreads these free matches.

**Phase 2 — signatures and weights.**  One postorder pass per document
computes an exact subtree number (signature) and a weight for every
node (:mod:`repro.core.signature`); both documents are numbered
against one table, dropped when the phase ends, so equal numbers mean
identical subtrees.  The old document's pass also fills the index of
old subtrees by signature; the *secondary index* by ``(signature,
parent)`` lets the matcher find "the candidate under the right parent"
in constant time.
The secondary index only holds signatures that several old subtrees
share: a lone candidate is found the same way by either lookup.  Both
indexes store a key's lone old node directly and use a list only for
keys that several old nodes share.  Phase 3 reads no old-side weight,
so the old weight map is dropped once its total is read (a provenance
recorder, which reports both sides, keeps it).

**Phase 3 — heaviest-first matching.**  A priority queue hands out
new-document subtrees from heaviest to lightest.  For each, the old
document is probed for identical subtrees; among several candidates the one
whose ancestors agree with already-made decisions wins (the permitted
ancestor look-up depth shrinks with subtree weight, keeping the total cost
``O(n log n)``).  Both indexes are consumed as they are read: a lookup
drops the taken or locked old nodes it scans past, so no later lookup
inspects them again and each bucket costs time linear in its length
overall.  An accepted match propagates: the whole identical
subtrees are matched node by node, with their XIDs, and ancestors with
equal labels are matched bottom-up, again weight-bounded.  A subtree
pair matched whole is *settled* (:mod:`repro.core.matching`).  If
nothing matches, the node's children enter the queue — matching
descends *lazily*.

**Phase 4 — structural propagation ("peephole" pass).**  A bottom-up pass
matches unmatched parents whose children voted for the same old parent
(heaviest total weight wins), then a top-down pass matches children that
are the unique child with a given label under already-matched parents.
This is what turns "the Price subtree changed" into a text *update* instead
of a delete + insert.  Both walks skip settled interiors: every node
there is matched already, to its counterpart.

The result is a :class:`~repro.core.matching.Matching`; Phase 5 (delta
construction) lives in :mod:`repro.core.builder`.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Union

from repro.core.matching import Matching, pruned_postorder, pruned_preorder
from repro.core.signature import TreeAnnotations, _index_add, annotate
from repro.xmlkit.model import Document, Node, preorder

__all__ = [
    "BuldMatcher",
    "CANDIDATE_PROBES",
    "SETTLED_NODES",
]

#: An index entry: the old node that holds the key alone, a list when
#: several share it, or ``()`` once a lone node is taken.
Bucket = Union[Node, list[Node], tuple[()]]

#: ``DiffStats.counters`` key: old-index bucket entries that phase-3
#: candidate lookups inspected (secondary-index and signature-index
#: scans together).  Divided by the new document's node count it is the
#: deterministic cost of phase 3's candidate search.
CANDIDATE_PROBES = "buld_candidate_probes"

#: ``DiffStats.counters`` key: new-document nodes inside settled regions
#: (region roots not counted), which phase 4 and the delta builder skip
#: because phase 3 paired them whole (:mod:`repro.core.matching`).
SETTLED_NODES = "buld_settled_nodes"


class BuldMatcher:
    """Stateful runner for one old/new document pair; the ``buld``
    engine (:class:`~repro.engine.engines.BuldEngine`) runs its phases
    as stages."""

    def __init__(
        self,
        old_document: Document,
        new_document: Document,
        config,
        recorder=None,
    ):
        self.old_document = old_document
        self.new_document = new_document
        self.config = config
        # A disabled recorder (e.g. NullRecorder) is normalized to None so
        # every hot-path guard is a single identity check.
        if recorder is not None and not getattr(recorder, "enabled", True):
            recorder = None
        self.recorder = recorder
        self.matching = Matching(recorder=recorder)
        if recorder is not None:
            recorder.phase = "root"
        self.matching.add(old_document, new_document)

        self.old_annotations: Optional[TreeAnnotations] = None
        self.new_annotations: Optional[TreeAnnotations] = None
        # A list bucket holds old nodes in document order, stored
        # head-last so that dropping a scanned prefix is a truncation.
        self._signature_index: dict[int, Bucket] = {}
        self._parent_index: dict[tuple[int, int], Bucket] = {}
        #: Bucket entries inspected by phase-3 lookups (CANDIDATE_PROBES).
        self.candidate_probes = 0
        self._positions: dict[Node, int] = {}
        self._log_n: float = 1.0
        self._total_weight: float = 1.0

    # ------------------------------------------------------------------
    # Phase 1 — ID attributes
    # ------------------------------------------------------------------

    def phase1_id_attributes(self) -> int:
        """Match / lock nodes via DTD ID attributes; returns matches made."""
        if not self.config.use_id_attributes:
            return 0
        id_attributes = (
            self.old_document.id_attributes | self.new_document.id_attributes
        )
        if not id_attributes and getattr(
            self.config, "infer_id_attributes", False
        ):
            from repro.xmlkit.infer import infer_id_attributes

            id_attributes = infer_id_attributes(
                self.old_document, self.new_document
            )
        if not id_attributes:
            return 0
        if self.recorder is not None:
            self.recorder.phase = "id-attribute"
            self.recorder.anchor = None
        old_keys = _id_key_map(self.old_document, id_attributes)
        new_keys = _id_key_map(self.new_document, id_attributes)
        matched = 0
        for key, old_node in old_keys.items():
            if old_node is None:
                continue  # ambiguous within the old document: unusable
            new_node = new_keys.get(key)
            if new_node is None or not self.matching.can_match(old_node, new_node):
                # The paper's rule: an ID-bearing element without the same
                # ID value on the other side can never be matched.
                if not self.matching.has_old(old_node):
                    self.matching.lock(old_node)
                continue
            self.matching.add(old_node, new_node)
            matched += 1
        for key, new_node in new_keys.items():
            if new_node is None:
                continue
            if (
                key not in old_keys
                and not self.matching.has_new(new_node)
                and not self.matching.is_locked(new_node)
            ):
                self.matching.lock(new_node)
        if matched:
            self.phase4_propagate()
        return matched

    # ------------------------------------------------------------------
    # Phase 2 — signatures, weights, indexes, priority queue
    # ------------------------------------------------------------------

    def phase2_annotate(self) -> None:
        """Signatures + weights for both documents and old-side indexes.

        Both documents are numbered against one table, which is dropped
        when this phase ends.  The steps are ordered so that the fewest
        maps are alive at once: the old tree is annotated and its
        signature index filled in the same pass, its weights are dropped
        once the total is read, the secondary index is built, and the
        new tree comes last.
        """
        log_text = self.config.log_text_weight
        recorder = self.recorder
        table: dict = {}
        signature_index = self._signature_index
        old_annotations = annotate(
            self.old_document,
            table=table,
            index=signature_index,
            log_text_weight=log_text,
        )
        self.old_annotations = old_annotations
        self._total_weight = max(old_annotations.total_weight, 1.0)
        if recorder is None:
            # Later phases read new-side weights only.
            old_annotations.weights = None

        parent_index = self._parent_index
        for signature, bucket in signature_index.items():
            if isinstance(bucket, list):
                for node in bucket:
                    _index_add(
                        parent_index, (signature, id(node.parent)), node
                    )
        for index in (signature_index, parent_index):
            for bucket in index.values():
                if isinstance(bucket, list):
                    bucket.reverse()

        self.new_annotations = annotate(
            self.new_document, table=table, log_text_weight=log_text
        )
        total_nodes = (
            old_annotations.node_count + self.new_annotations.node_count
        )
        self._log_n = math.log2(total_nodes + 1)
        if recorder is not None:
            recorder.set_weights(old_annotations, self.new_annotations)

    # ------------------------------------------------------------------
    # Phase 3 — heaviest-first queue
    # ------------------------------------------------------------------

    def phase3_match_subtrees(self) -> None:
        """Drain the weight-ordered queue of new-document subtrees."""
        weights = self.new_annotations.weights
        counter = 0
        heap: list[tuple[float, int, Node]] = []
        for child in self.new_document.children:
            heapq.heappush(heap, (-weights[child], counter, child))
            counter += 1

        old_signatures = self.old_annotations.signatures
        new_signatures = self.new_annotations.signatures
        while heap:
            negative_weight, _, node = heapq.heappop(heap)
            if self.matching.has_new(node):
                # Matched via an identical subtree: all descendants are
                # matched too, skip the whole region.  Matched some other
                # way (ID attribute, ancestor/peephole propagation): the
                # contents may differ, so the children still need their
                # own chance in the queue.
                partner = self.matching.old_of(node)
                if (
                    old_signatures.get(partner)
                    != new_signatures[node]
                ):
                    for child in node.children:
                        heapq.heappush(
                            heap, (-weights[child], counter, child)
                        )
                        counter += 1
                continue
            candidate = None
            if not self.matching.is_locked(node):
                candidate = self._find_best_candidate(node, -negative_weight)
            if candidate is not None:
                recorder = self.recorder
                if recorder is not None:
                    recorder.anchor = node
                self._match_identical_subtrees(candidate, node)
                self._propagate_to_ancestors(candidate, node, -negative_weight)
                if recorder is not None:
                    recorder.anchor = None
            elif node.kind == "element":
                for child in node.children:
                    heapq.heappush(heap, (-weights[child], counter, child))
                    counter += 1

    def _find_best_candidate(self, node: Node, weight: float) -> Optional[Node]:
        recorder = self.recorder
        signature = self.new_annotations.signatures[node]
        candidates = self._signature_index.get(signature)
        if candidates is None:
            if recorder is not None:
                recorder.record_rejection("no-signature-match", new=node)
            return None

        matching = self.matching
        has_old = matching.has_old
        is_locked = matching.is_locked
        # Taken stays taken: a matched or locked old node is never viable
        # again, so each scan drops the ones it passes.  The buckets keep
        # their order, so every lookup sees the same viable candidates,
        # in the same order, as a scan of the whole bucket would.

        # Fast path — the paper's secondary index: a candidate whose parent
        # is already matched to this node's parent, found in O(1).
        parent = node.parent
        matched_parent = matching.old_of(parent) if parent is not None else None
        if matched_parent is not None:
            key = (signature, id(matched_parent))
            bucket = self._parent_index.get(key)
            if isinstance(bucket, Node):
                self.candidate_probes += 1
                if not has_old(bucket) and not is_locked(bucket):
                    return bucket
                self._parent_index[key] = ()
            else:
                while bucket:
                    self.candidate_probes += 1
                    old_node = bucket[-1]
                    if not has_old(old_node) and not is_locked(old_node):
                        return old_node
                    bucket.pop()

        if isinstance(candidates, Node):
            # A lone old node: one probe, and once taken an empty bucket
            # that later lookups scan for free.
            self.candidate_probes += 1
            if not has_old(candidates) and not is_locked(candidates):
                return candidates
            self._signature_index[signature] = ()
            if recorder is not None:
                recorder.record_rejection("candidates-taken", new=node)
            return None

        # General path — enumerate (a bounded number of) candidates and pick
        # the one whose ancestor chain agrees with existing matches.
        viable: list[Node] = []
        scanned = 0
        max_candidates = self.config.max_candidates
        for old_node in reversed(candidates):
            scanned += 1
            if has_old(old_node) or is_locked(old_node):
                continue
            viable.append(old_node)
            if len(viable) >= max_candidates:
                if recorder is not None and scanned < len(candidates):
                    recorder.record_rejection("candidate-cap", new=node)
                break
        self.candidate_probes += scanned
        if scanned > len(viable):
            # Replace the scanned prefix by the viable nodes found in it.
            del candidates[len(candidates) - scanned:]
            candidates.extend(reversed(viable))
        if not viable:
            if recorder is not None:
                recorder.record_rejection("candidates-taken", new=node)
            return None
        if len(viable) == 1:
            return viable[0]

        depth_allowance = self._ancestor_depth(weight)
        new_chain = _ancestor_chain(node, depth_allowance)
        best = None
        best_level = depth_allowance + 1
        best_distance = math.inf
        node_position = self._sibling_position(node)
        for old_node in viable:
            level = _agreement_level(
                old_node, new_chain, matching, depth_allowance
            )
            distance = abs(self._sibling_position(old_node) - node_position)
            if level < best_level or (
                level == best_level and distance < best_distance
            ):
                best = old_node
                best_level = level
                best_distance = distance
        if recorder is not None:
            for old_node in viable:
                if old_node is not best:
                    recorder.record_rejection(
                        "collision-loser", old=old_node, new=node
                    )
        return best

    def _sibling_position(self, node: Node) -> int:
        position = self._positions.get(node)
        if position is None:
            parent = node.parent
            if parent is None:
                return 0
            for index, child in enumerate(parent.children):
                self._positions[child] = index
            position = self._positions[node]
        return position

    def _ancestor_depth(self, weight: float) -> int:
        """Permitted ancestor look-up / propagation depth for a weight.

        The paper bounds this by ``O(log n * W / W0)`` and uses
        ``d = 1 + W/W0`` scaled; we expose the factor as a tuning knob.
        """
        fraction = min(weight / self._total_weight, 1.0)
        return 1 + int(self.config.ancestor_depth_factor * self._log_n * fraction)

    def _match_identical_subtrees(self, old_root: Node, new_root: Node) -> None:
        """Match two signature-identical subtrees node by node.

        Descendants already matched elsewhere (from earlier, smaller
        matches) are skipped together with their subtrees — the resulting
        holes surface later as moves.  Equal exact signatures mean equal
        content, so :meth:`Matching.add_identical` pairs without checking
        each node again, and settles a region it pairs whole.
        """
        if self.recorder is not None:
            self.recorder.phase = "subtree-hash"
        self.matching.add_identical(old_root, new_root)

    def _propagate_to_ancestors(
        self, old_node: Node, new_node: Node, weight: float
    ) -> None:
        """Match equal-label ancestors, up to the weight-bounded depth."""
        allowance = self._ancestor_depth(weight)
        matching = self.matching
        recorder = self.recorder
        old_parent = old_node.parent
        new_parent = new_node.parent
        while (
            allowance > 0
            and old_parent is not None
            and new_parent is not None
            and old_parent.kind == "element"
            and new_parent.kind == "element"
        ):
            if matching.has_old(old_parent) or matching.has_new(new_parent):
                if recorder is not None and not matching.has_new(new_parent):
                    recorder.record_rejection(
                        "ancestor-matched", old=old_parent, new=new_parent
                    )
                break
            if not matching.can_match(old_parent, new_parent):
                if recorder is not None:
                    recorder.record_rejection(
                        "label-mismatch", old=old_parent, new=new_parent
                    )
                break
            if recorder is not None:
                # _match_unique_children below switches the phase; restore
                # it so every ancestor pair is attributed correctly.
                recorder.phase = "ancestor"
            matching.add(old_parent, new_parent)
            if not self.config.lazy_down:
                self._match_unique_children(old_parent, new_parent)
            old_parent = old_parent.parent
            new_parent = new_parent.parent
            allowance -= 1
        else:
            if (
                recorder is not None
                and allowance == 0
                and old_parent is not None
                and new_parent is not None
                and old_parent.kind == "element"
                and new_parent.kind == "element"
                and matching.can_match(old_parent, new_parent)
            ):
                recorder.record_rejection(
                    "weight-bound", old=old_parent, new=new_parent
                )

    # ------------------------------------------------------------------
    # Phase 4 — bottom-up / top-down structural propagation
    # ------------------------------------------------------------------

    def phase4_propagate(self) -> None:
        """Run the optimization passes (bottom-up votes, unique children)."""
        for _ in range(max(self.config.optimization_passes, 0)):
            before = len(self.matching)
            self._propagate_to_parents()
            self._propagate_to_children()
            if len(self.matching) == before:
                break

    def _propagate_to_parents(self) -> None:
        """Bottom-up: children vote for their parents, heaviest set wins."""
        matching = self.matching
        recorder = self.recorder
        if recorder is not None:
            recorder.anchor = None
        weights = (
            self.new_annotations.weights if self.new_annotations else None
        )
        for node in pruned_postorder(self.new_document, matching.settled_new):
            if node.kind != "element":
                continue
            if matching.has_new(node) or matching.is_locked(node):
                continue
            votes: dict[int, float] = {}
            vote_nodes: dict[int, Node] = {}
            for child in node.children:
                partner = matching.old_of(child)
                if partner is None or partner.parent is None:
                    continue
                old_parent = partner.parent
                key = id(old_parent)
                child_weight = (
                    weights.get(child, 1.0) if weights is not None else 1.0
                )
                votes[key] = votes.get(key, 0.0) + child_weight
                vote_nodes[key] = old_parent
            if not votes:
                continue
            winner_key = max(votes, key=votes.get)
            old_parent = vote_nodes[winner_key]
            if matching.can_match(old_parent, node):
                if recorder is not None:
                    recorder.phase = "parent-vote"
                matching.add(old_parent, node)
            elif recorder is not None:
                recorder.record_rejection(
                    "vote-rejected", old=old_parent, new=node
                )

    def _propagate_to_children(self) -> None:
        """Top-down: unique same-label children of matched parents match."""
        matching = self.matching
        for new_parent in pruned_preorder(
            self.new_document, matching.settled_new
        ):
            if new_parent.kind not in ("element", "document"):
                continue
            old_parent = matching.old_of(new_parent)
            if old_parent is None:
                continue
            self._match_unique_children(old_parent, new_parent)

    def _match_unique_children(self, old_parent: Node, new_parent: Node) -> None:
        matching = self.matching
        if self.recorder is not None:
            self.recorder.phase = "unique-child"
        old_unique = _unique_unmatched_children(
            old_parent, matching.has_old, matching.is_locked
        )
        if not old_unique:
            return
        new_unique = _unique_unmatched_children(
            new_parent, matching.has_new, matching.is_locked
        )
        for key, old_child in old_unique.items():
            new_child = new_unique.get(key)
            if new_child is not None and matching.can_match(old_child, new_child):
                matching.add(old_child, new_child)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _id_key_map(
    document: Document, id_attributes: set[tuple[str, str]]
) -> dict[tuple[str, str, str], Optional[Node]]:
    """Map ``(label, attribute, value)`` to the unique node carrying it.

    A key appearing on two nodes of the same document (invalid XML, but we
    stay defensive) maps to ``None`` and is ignored.
    """
    keys: dict[tuple[str, str, str], Optional[Node]] = {}
    for node in preorder(document):
        if node.kind != "element":
            continue
        for name, value in node.attributes.items():
            if (node.label, name) not in id_attributes:
                continue
            key = (node.label, name, str(value))
            if key in keys:
                keys[key] = None
            else:
                keys[key] = node
    return keys


def _ancestor_chain(node: Node, limit: int) -> list[Node]:
    chain = []
    current = node.parent
    while current is not None and len(chain) < limit:
        chain.append(current)
        current = current.parent
    return chain


def _agreement_level(
    old_node: Node, new_chain: list[Node], matching: Matching, limit: int
) -> int:
    """Smallest ancestor distance at which old and new chains agree.

    Returns ``limit + 1`` when no agreement is found within the allowance.
    """
    old_ancestor = old_node.parent
    for level, new_ancestor in enumerate(new_chain, start=1):
        if old_ancestor is None:
            break
        if matching.new_of(old_ancestor) is new_ancestor:
            return level
        old_ancestor = old_ancestor.parent
    return limit + 1


def _unique_unmatched_children(
    parent: Node, is_matched, is_locked
) -> dict[tuple, Node]:
    """Unmatched children that are unique for their (kind, label) key."""
    unique: dict[tuple, Optional[Node]] = {}
    for child in parent.children:
        if is_matched(child) or is_locked(child):
            continue
        kind = child.kind
        if kind == "element":
            key = ("element", child.label)
        elif kind == "pi":
            key = ("pi", child.target)
        else:
            key = (kind,)
        if key in unique:
            unique[key] = None  # not unique
        else:
            unique[key] = child
    return {key: node for key, node in unique.items() if node is not None}
