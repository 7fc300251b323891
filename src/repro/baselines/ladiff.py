"""LaDiff-style baseline (Chawathe, Rajaraman, Garcia-Molina, Widom 1996).

"Perhaps the closest in spirit to our algorithm is LaDiff" (Section 3).
LaDiff introduces a *matching criterion* — leaves match when their values
are sufficiently similar, internal nodes match when their labels agree and
they share enough matched leaves — and drives it with longest common
subsequence computations per label chain, from the leaves upward.  Its
cost is ``O(n·e + e²)`` for e weighted edits, degrading to quadratic when
large subtrees move.

This implementation follows that structure:

1. **Leaf matching** — for every leaf chain (text, or leaf elements by
   label) an LCS over the old/new sequences with a word-overlap similarity
   predicate, followed by a greedy sweep for leftovers.
2. **Internal matching** — bottom-up per label chain: nodes match when
   their common-matched-descendant ratio clears a threshold, again LCS
   first and greedy second.
3. **Edit script** — the ``"ladiff"`` engine hands the matching to the
   shared Phase-5 builder (so sizes and moves are directly comparable
   with BULD's output).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lcs import lcs_pairs
from repro.core.matching import Matching
from repro.xmlkit.model import Document, Node, postorder

__all__ = ["LaDiffConfig", "ladiff_match"]


@dataclass
class LaDiffConfig:
    """Thresholds of the matching criteria (the paper's f and t).

    Attributes:
        leaf_threshold: Minimum word-overlap ratio for two text leaves to
            be considered similar (Chawathe's ``f``, typically 0.5-0.8).
        inner_threshold: Minimum ratio of common matched descendants for
            two internal nodes (Chawathe's ``t``, typically 0.5).
        max_leaf_probe: Cap on descendants examined per similarity probe,
            bounding worst-case cost on giant subtrees.
    """

    leaf_threshold: float = 0.6
    inner_threshold: float = 0.5
    max_leaf_probe: int = 512


def _words(value: str) -> set[str]:
    return set(value.split())


def _text_similar(old: Node, new: Node, threshold: float) -> bool:
    old_words = _words(old.value)
    new_words = _words(new.value)
    if not old_words and not new_words:
        return True
    union_max = max(len(old_words), len(new_words))
    return len(old_words & new_words) / union_max >= threshold


def _chain_key(node: Node) -> tuple:
    kind = node.kind
    if kind == "element":
        return ("element", node.label)
    if kind == "pi":
        return ("pi", node.target)
    return (kind,)


class _LaDiffMatcher:
    def __init__(self, old_document: Document, new_document: Document, config):
        self.config = config
        self.matching = Matching()
        self.matching.add(old_document, new_document)
        self.old_document = old_document
        self.new_document = new_document
        self._depths: dict[Node, int] = {}
        for document in (old_document, new_document):
            self._depths[document] = 0
            for node in _preorder_no_doc(document):
                self._depths[node] = self._depths[node.parent] + 1

    # -- similarity criteria ----------------------------------------------------

    def _leaf_similar(self, old: Node, new: Node) -> bool:
        if self.matching.has_old(old) or self.matching.has_new(new):
            return False
        if old.kind in ("text", "comment"):
            return _text_similar(old, new, self.config.leaf_threshold)
        if old.kind == "pi":
            return old.target == new.target
        # leaf elements: same label (chain already ensures it) + attributes
        return old.attributes == new.attributes or bool(
            set(old.attributes.items()) & set(new.attributes.items())
        ) or not old.attributes

    def _internal_similar(self, old: Node, new: Node) -> bool:
        if self.matching.has_old(old) or self.matching.has_new(new):
            return False
        common = 0
        examined = 0
        total_old = 0
        for descendant in _descendants(old, self.config.max_leaf_probe):
            total_old += 1
            partner = self.matching.new_of(descendant)
            if partner is None:
                continue
            examined += 1
            if self._has_ancestor(partner, new):
                common += 1
        total_new = _descendant_count(new, self.config.max_leaf_probe)
        denominator = max(total_old, total_new)
        if denominator == 0:
            return old.label == new.label
        return common / denominator >= self.config.inner_threshold

    def _has_ancestor(self, node: Node, ancestor: Node) -> bool:
        target_depth = self._depths.get(ancestor, 0)
        current = node.parent
        while current is not None and self._depths.get(current, 0) >= target_depth:
            if current is ancestor:
                return True
            current = current.parent
        return False

    # -- chain matching -----------------------------------------------------------

    def _match_chains(self, old_chain, new_chain, similar) -> None:
        if not old_chain or not new_chain:
            return
        for i, j in lcs_pairs(old_chain, new_chain, equal=similar):
            old_node, new_node = old_chain[i], new_chain[j]
            if self.matching.can_match(old_node, new_node):
                self.matching.add(old_node, new_node)
        # greedy sweep for leftovers (Chawathe's final linear scan)
        remaining_new = [
            node for node in new_chain if not self.matching.has_new(node)
        ]
        for old_node in old_chain:
            if self.matching.has_old(old_node):
                continue
            for index, new_node in enumerate(remaining_new):
                if similar(old_node, new_node) and self.matching.can_match(
                    old_node, new_node
                ):
                    self.matching.add(old_node, new_node)
                    del remaining_new[index]
                    break

    def run(self) -> Matching:
        old_leaves, old_internal = _classify(self.old_document)
        new_leaves, new_internal = _classify(self.new_document)

        for key, old_chain in old_leaves.items():
            self._match_chains(
                old_chain, new_leaves.get(key, []), self._leaf_similar
            )

        for key, old_chain in old_internal.items():
            self._match_chains(
                old_chain, new_internal.get(key, []), self._internal_similar
            )

        # Chawathe's algorithms assume the roots match; honour that when
        # the labels agree and nothing else claimed them.
        old_root = self.old_document.root
        new_root = self.new_document.root
        if (
            old_root is not None
            and new_root is not None
            and self.matching.can_match(old_root, new_root)
        ):
            self.matching.add(old_root, new_root)
        return self.matching


def _preorder_no_doc(document: Document):
    stack = list(reversed(document.children))
    while stack:
        node = stack.pop()
        yield node
        children = node.children
        if children:
            stack.extend(reversed(children))


def _classify(document: Document):
    """Leaf and internal chains by key, both in postorder (bottom-up)."""
    leaves: dict[tuple, list[Node]] = {}
    internal: dict[tuple, list[Node]] = {}
    for node in postorder(document):
        if node.kind == "document":
            continue
        bucket = internal if node.children else leaves
        bucket.setdefault(_chain_key(node), []).append(node)
    return leaves, internal


def _descendants(node: Node, cap: int):
    produced = 0
    stack = list(node.children)
    while stack and produced < cap:
        current = stack.pop()
        yield current
        produced += 1
        stack.extend(current.children)


def _descendant_count(node: Node, cap: int) -> int:
    count = 0
    stack = list(node.children)
    while stack and count < cap:
        current = stack.pop()
        count += 1
        stack.extend(current.children)
    return count


def ladiff_match(
    old_document: Document,
    new_document: Document,
    config: LaDiffConfig | None = None,
) -> Matching:
    """Compute the LaDiff-style matching between two documents."""
    if config is None:
        config = LaDiffConfig()
    return _LaDiffMatcher(old_document, new_document, config).run()
