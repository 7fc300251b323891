"""Subtree signatures and weights (BULD Phase 2).

For every node of both versions the algorithm precomputes:

- a **signature**: a number that represents the content of the entire
  subtree rooted at the node.  The paper hashes each subtree so that a
  dictionary of old-document signatures finds "unchanged islands" in
  O(1) per probe.  Here the signature is an *exact subtree number*: one
  postorder pass per document looks up each node's key — its own
  content plus its children's numbers — in a table that both documents
  of a diff share, and a key seen for the first time gets the next
  number.  Two subtrees annotated against one table have equal numbers
  if and only if they are structurally identical: no collision is
  possible, and the pass stays linear, as Section 5.3 requires.

- a **weight**: the paper's measure of subtree importance.  Elements weigh
  ``1 + Σ weight(children)``; text (and other leaf) nodes weigh
  ``1 + log(1 + len(value))`` so that a long description outweighs a single
  word without letting huge text blobs dominate (Section 5.2, *Tuning*).
  Weights order the priority queue of Phase 3 and bound how far matches
  propagate to ancestors.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.xmlkit.model import Document, Node, postorder

__all__ = ["TreeAnnotations", "annotate"]

_EMPTY = ()


class TreeAnnotations:
    """Per-node signatures and weights for one document.

    Node keys use identity semantics (the model classes do not define
    ``__eq__``), so annotations survive arbitrary content mutation — though
    they describe the tree as it was when :func:`annotate` ran.

    Attributes:
        signatures: node -> exact subtree number (an ``int``); numbers
            compare only between documents annotated against one table.
        weights: node -> weight (float, >= 1 for every node), or ``None``
            once dropped (BULD drops the old side's after phase 2).
        total_weight: weight of the whole document (the paper's ``W0``).
        node_count: number of nodes annotated (the paper's ``n`` ingredient).
    """

    __slots__ = ("signatures", "weights", "total_weight", "node_count")

    def __init__(self):
        self.signatures: dict[Node, int] = {}
        self.weights: Optional[dict[Node, float]] = {}
        self.total_weight: float = 0.0
        self.node_count: int = 0

    def signature(self, node: Node) -> int:
        return self.signatures[node]

    def weight(self, node: Node) -> float:
        return self.weights[node]


def annotate(
    document: Document,
    *,
    table: Optional[dict] = None,
    index: Optional[dict] = None,
    log_text_weight: bool = True,
) -> TreeAnnotations:
    """Compute signatures and weights for every node in one postorder pass.

    A node's key is its content with its children's numbers in place of
    their subtrees, as one flat tuple: ``(label, attributes, *children)``
    for an element, the attributes being a tuple of ``(name,
    str(value))`` pairs in name order; the value itself (a ``str``) for
    a text; ``("C", value)`` for a comment; ``("P", target, value)`` for
    a processing instruction; and the children's numbers alone for the
    document.  No two kinds share a key: only a text's key is a string,
    only an element's has a tuple second, and only a document's starts
    with a number (or is empty).  A key already in ``table`` reuses its
    number, a new one gets ``len(table)``.

    Args:
        document: The document to annotate (any subtree root also works).
        table: The key -> number table to share with the documents the
            numbers are compared against; a fresh one when omitted.
        index: Optional number -> bucket map that receives every node
            but the root, in document order: a lone node, or a list once
            several nodes share the number.  Identical subtrees are
            disjoint, so postorder meets them in document order.
        log_text_weight: Use the paper's ``1 + log(1 + len(text))`` leaf
            weight; ``False`` gives every leaf weight 1 (an ablation knob).

    Returns:
        A :class:`TreeAnnotations` holding both maps.
    """
    if table is None:
        table = {}
    annotations = TreeAnnotations()
    signatures = annotations.signatures
    weights = annotations.weights
    lookup = table.get
    log = math.log
    # The numbers and weights of finished subtrees whose parent is still
    # ahead: a node's children are the last entries of both stacks.
    numbers: list[int] = []
    subtree_weights: list[float] = []
    push_number = numbers.append
    push_weight = subtree_weights.append

    order = postorder(document)
    for node in order:
        kind = node.kind
        if kind == "element" or kind == "document":
            count = len(node.children)
            if kind == "element":
                attributes = node.attributes
                if attributes:
                    attributes = tuple(sorted(
                        zip(attributes, map(str, attributes.values()))
                    ))
                else:
                    attributes = _EMPTY
                if count:
                    key = (node.label, attributes, *numbers[-count:])
                else:
                    key = (node.label, attributes)
            else:
                key = tuple(numbers[-count:]) if count else _EMPTY
            weight = 1.0
            if count:
                del numbers[-count:]
                for child_weight in subtree_weights[-count:]:
                    weight += child_weight
                del subtree_weights[-count:]
        elif kind == "text":
            key = value = node.value
            weight = 1.0 + log(1 + len(value)) if log_text_weight else 1.0
        elif kind == "comment":
            value = node.value
            key = ("C", value)
            weight = 1.0 + log(1 + len(value)) if log_text_weight else 1.0
        else:  # processing instruction
            value = node.value
            key = ("P", node.target, value)
            weight = 1.0 + log(1 + len(value)) if log_text_weight else 1.0
        number = lookup(key)
        if number is None:
            number = table[key] = len(table)
            if index is not None:
                index[number] = node
        elif index is not None:
            _index_add(index, number, node)
        signatures[node] = number
        weights[node] = weight
        push_number(number)
        push_weight(weight)
    annotations.node_count = len(order)

    if index is not None:
        # The root came last; its own subtree is no candidate.
        number = signatures[document]
        bucket = index[number]
        if bucket is document:
            del index[number]
        else:
            bucket.pop()
            if len(bucket) == 1:
                index[number] = bucket[0]
    annotations.total_weight = weights[document] if document in weights else 0.0
    return annotations


def _index_add(index: dict, key, node: Node) -> None:
    """Add ``node`` to ``key``'s bucket: the node alone, or a list."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = node
    elif isinstance(bucket, list):
        bucket.append(node)
    else:
        index[key] = [bucket, node]
