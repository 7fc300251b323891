"""Subtree signatures and weights (BULD Phase 2).

For every node of both versions the algorithm precomputes:

- a **signature**: a hash that uniquely (with overwhelming probability)
  represents the content of the entire subtree rooted at the node.  Two
  subtrees have equal signatures iff they are structurally identical, so a
  dictionary of old-document signatures finds "unchanged islands" in O(1)
  per probe.  We hash with blake2b over the node's own content plus its
  children's digests, so the whole pass is a single postorder traversal —
  linear time, exactly as Section 5.3 requires.

- a **weight**: the paper's measure of subtree importance.  Elements weigh
  ``1 + Σ weight(children)``; text (and other leaf) nodes weigh
  ``1 + log(1 + len(value))`` so that a long description outweighs a single
  word without letting huge text blobs dominate (Section 5.2, *Tuning*).
  Weights order the priority queue of Phase 3 and bound how far matches
  propagate to ancestors.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

from repro.xmlkit.model import Document, Node, postorder

__all__ = ["TreeAnnotations", "annotate"]

_DIGEST_SIZE = 16


class TreeAnnotations:
    """Per-node signatures and weights for one document.

    Node keys use identity semantics (the model classes do not define
    ``__eq__``), so annotations survive arbitrary content mutation — though
    they describe the tree as it was when :func:`annotate` ran.

    Attributes:
        signatures: node -> subtree-content signature (a 16-byte blake2b
            digest).
        weights: node -> weight (float, >= 1 for every node), or ``None``
            once dropped (BULD drops the old side's after phase 2).
        total_weight: weight of the whole document (the paper's ``W0``).
        node_count: number of nodes annotated (the paper's ``n`` ingredient).
    """

    __slots__ = ("signatures", "weights", "total_weight", "node_count")

    def __init__(self):
        self.signatures: dict[Node, bytes] = {}
        self.weights: Optional[dict[Node, float]] = {}
        self.total_weight: float = 0.0
        self.node_count: int = 0

    def signature(self, node: Node) -> bytes:
        return self.signatures[node]

    def weight(self, node: Node) -> float:
        return self.weights[node]


def annotate(
    document: Document,
    *,
    log_text_weight: bool = True,
) -> TreeAnnotations:
    """Compute signatures and weights for every node in one postorder pass.

    Each node is hashed with one blake2b call over its own content and
    its children's digests: ``E<len>:<label>`` and ``<len>=<name><len>:
    <value>`` per attribute in name order for an element, ``T``/``C``
    plus the value for text and comments, ``P<target>\\0<value>`` for a
    processing instruction and ``D`` for the document.

    Args:
        document: The document to annotate (any subtree root also works).
        log_text_weight: Use the paper's ``1 + log(1 + len(text))`` leaf
            weight; ``False`` gives every leaf weight 1 (an ablation knob).

    Returns:
        A :class:`TreeAnnotations` holding both maps.
    """
    annotations = TreeAnnotations()
    signatures = annotations.signatures
    weights = annotations.weights
    # label -> the ``E<len>:<label>`` bytes every element of it starts with
    prefixes: dict[str, bytes] = {}
    blake2b = hashlib.blake2b
    log = math.log

    order = postorder(document)
    for node in order:
        kind = node.kind
        if kind == "element":
            label = node.label
            prefix = prefixes.get(label)
            if prefix is None:
                label_bytes = label.encode("utf-8")
                prefix = prefixes[label] = b"E%d:%s" % (
                    len(label_bytes), label_bytes
                )
            parts = [prefix]
            attributes = node.attributes
            if attributes:
                for name, value in sorted(attributes.items()):
                    name_bytes = name.encode("utf-8")
                    value_bytes = str(value).encode("utf-8")
                    parts.append(b"%d=%s%d:%s" % (
                        len(name_bytes), name_bytes,
                        len(value_bytes), value_bytes,
                    ))
            weight = 1.0
            for child in node.children:
                parts.append(signatures[child])
                weight += weights[child]
            data = b"".join(parts)
        elif kind == "text" or kind == "comment":
            value = node.value
            data = (b"T" if kind == "text" else b"C") + value.encode("utf-8")
            weight = 1.0 + log(1 + len(value)) if log_text_weight else 1.0
        elif kind == "pi":
            value = node.value
            data = b"P%s\x00%s" % (
                node.target.encode("utf-8"), value.encode("utf-8")
            )
            weight = 1.0 + log(1 + len(value)) if log_text_weight else 1.0
        else:  # document
            parts = [b"D"]
            weight = 1.0
            for child in node.children:
                parts.append(signatures[child])
                weight += weights[child]
            data = b"".join(parts)
        signatures[node] = blake2b(data, digest_size=_DIGEST_SIZE).digest()
        weights[node] = weight
    annotations.node_count = len(order)

    annotations.total_weight = weights[document] if document in weights else 0.0
    return annotations
