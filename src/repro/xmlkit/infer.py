"""DTD inference from document instances.

Section 5.2 observes that schema knowledge is often recoverable from the
data itself: "we can obtain this information at little cost on the
document itself, even when the DTD does not specify it".  This module
does exactly that — it inspects one or more documents and produces a
:class:`~repro.xmlkit.dtd.Dtd`:

- **content models** per element label: ``EMPTY``, ``(#PCDATA)``, a
  sequence like ``(title, product*)`` when all instances agree on child
  order and multiplicity, a mixed model ``(#PCDATA | a | b)*`` when text
  and elements interleave, or the permissive ``(a | b)*`` fallback;
- **attribute declarations**: ``#REQUIRED`` when present on every
  instance, ``#IMPLIED`` otherwise;
- **ID candidates** — the payoff for the diff: an attribute whose values
  are XML names, present on every instance of its element, and unique
  within each document is declared ``ID``.  Feeding those to BULD
  Phase 1 gives undeclared documents the same fast exact matches the
  paper gets from real DTDs (``DiffConfig.infer_id_attributes``).
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.xmlkit.dtd import AttributeDecl, Dtd, ElementDecl
from repro.xmlkit.model import Document, preorder

__all__ = ["infer_dtd", "infer_id_attributes"]

_NAME_RE = re.compile(r"^[A-Za-z_:][-A-Za-z0-9._:]*$")


class _ElementProfile:
    """Accumulated evidence about one element label."""

    __slots__ = ("instances", "has_text", "child_orders", "child_counts")

    def __init__(self):
        self.instances = 0
        self.has_text = False
        # child label sequences (elements only), one per instance
        self.child_orders: list[tuple[str, ...]] = []
        # per child label: (min per instance, max per instance)
        self.child_counts: dict[str, list[int]] = {}

    def observe(self, element) -> None:
        self.instances += 1
        order: list[str] = []
        counts: dict[str, int] = {}
        for child in element.children:
            if child.kind == "text":
                if child.value.strip():
                    self.has_text = True
            elif child.kind == "element":
                order.append(child.label)
                counts[child.label] = counts.get(child.label, 0) + 1
        self.child_orders.append(tuple(order))
        for label in set(counts) | set(self.child_counts):
            history = self.child_counts.setdefault(label, [])
            # pad for earlier instances where the label was absent
            if len(history) < self.instances - 1:
                history.extend([0] * (self.instances - 1 - len(history)))
            history.append(counts.get(label, 0))


def _canonical_order(orders: list[tuple[str, ...]]) -> list[str] | None:
    """A label order every instance's children are a subsequence of.

    Returns None when the instances disagree on relative order.
    """
    canonical: list[str] = []
    for order in orders:
        # non-contiguous repeats (a, b, a) cannot be expressed as a
        # sequence model — force the alternation fallback
        closed: set[str] = set()
        previous = None
        for label in order:
            if label != previous:
                if label in closed:
                    return None
                if previous is not None:
                    closed.add(previous)
                previous = label
        deduped = list(dict.fromkeys(order))
        position = {label: index for index, label in enumerate(canonical)}
        last = -1
        for label in deduped:
            if label in position:
                if position[label] < last:
                    return None  # relative order disagreement
                last = position[label]
        # merge: walk the instance order, inserting unseen labels right
        # after the previously shared label
        merged = list(canonical)
        insert_at = 0
        for label in deduped:
            if label in position:
                insert_at = merged.index(label) + 1
            else:
                merged.insert(insert_at, label)
                insert_at += 1
        canonical = merged
    return canonical


def _content_model(profile: _ElementProfile) -> str:
    labels = sorted(
        label
        for label, history in profile.child_counts.items()
        if any(history)
    )
    if not labels and not profile.has_text:
        return "EMPTY"
    if not labels:
        return "(#PCDATA)"
    if profile.has_text:
        return "(#PCDATA | " + " | ".join(labels) + ")*"
    canonical = _canonical_order(profile.child_orders)
    if canonical is None:
        return "(" + " | ".join(labels) + ")*"
    parts = []
    for label in canonical:
        history = profile.child_counts.get(label, [])
        # histories may be shorter than instances for labels that only
        # appeared late; pad with zeros
        padded = history + [0] * (profile.instances - len(history))
        low = min(padded)
        high = max(padded)
        if low >= 1 and high == 1:
            parts.append(label)
        elif low == 0 and high == 1:
            parts.append(label + "?")
        elif low >= 1:
            parts.append(label + "+")
        else:
            parts.append(label + "*")
    return "(" + ", ".join(parts) + ")"


def infer_dtd(
    documents: Iterable[Document] | Document, root_name: str | None = None
) -> Dtd:
    """Infer a DTD from one or more document instances."""
    if isinstance(documents, Document):
        documents = [documents]
    documents = list(documents)

    profiles: dict[str, _ElementProfile] = {}
    # attribute evidence: (label, name) -> [values per doc], presence count
    presence: dict[tuple[str, str], int] = {}
    per_doc_values: list[dict[tuple[str, str], list[str]]] = []
    label_instances: dict[str, int] = {}

    for document in documents:
        doc_values: dict[tuple[str, str], list[str]] = {}
        per_doc_values.append(doc_values)
        for node in preorder(document):
            if node.kind != "element":
                continue
            label_instances[node.label] = label_instances.get(node.label, 0) + 1
            profiles.setdefault(node.label, _ElementProfile()).observe(node)
            for name, value in node.attributes.items():
                key = (node.label, name)
                presence[key] = presence.get(key, 0) + 1
                doc_values.setdefault(key, []).append(str(value))

    dtd = Dtd(root_name=root_name)
    for label, profile in profiles.items():
        dtd.add_element(ElementDecl(label, _content_model(profile)))

    for (label, name), seen in presence.items():
        total = label_instances[label]
        required = seen == total
        attr_type = "CDATA"
        if required and total >= 2 and _is_id_candidate(
            (label, name), per_doc_values
        ):
            attr_type = "ID"
        dtd.add_attribute(
            AttributeDecl(
                element=label,
                name=name,
                attr_type=attr_type,
                default_decl="#REQUIRED" if required else "#IMPLIED",
            )
        )
    return dtd


def _is_id_candidate(key, per_doc_values) -> bool:
    saw_any = False
    for doc_values in per_doc_values:
        values = doc_values.get(key)
        if not values:
            continue
        saw_any = True
        if len(values) != len(set(values)):
            return False  # duplicate within one document
        if not all(_NAME_RE.match(value) for value in values):
            return False  # IDs must be XML names
    return saw_any


#: Share of the larger value set two documents' values of an inferred
#: ID attribute must have in common.
MIN_VALUE_OVERLAP = 0.5


def infer_id_attributes(*documents: Document) -> set[tuple[str, str]]:
    """ID-typed ``(element, attribute)`` pairs safe for cross-version
    matching.

    An attribute qualifies only if it qualifies in **every** given
    document independently *and* its value sets overlap across the
    documents (:data:`MIN_VALUE_OVERLAP` of the larger side).
    The second condition is what makes inference safe for the diff: a
    merely *accidentally unique* attribute (random per-version values)
    would lock every node whose value changed — precisely the nodes the
    matcher should still match.  Real identifiers persist across
    versions, so their value sets overlap heavily.
    """
    candidate_sets = []
    value_sets: list[dict[tuple[str, str], set[str]]] = []
    for document in documents:
        dtd = infer_dtd(document)
        candidate_sets.append(dtd.id_attributes())
        values: dict[tuple[str, str], set[str]] = {}
        for node in preorder(document):
            if node.kind != "element":
                continue
            for name, value in node.attributes.items():
                values.setdefault((node.label, name), set()).add(str(value))
        value_sets.append(values)
    if not candidate_sets:
        return set()
    result = candidate_sets[0]
    for candidates in candidate_sets[1:]:
        result &= candidates
    if len(documents) < 2:
        return result
    safe = set()
    for key in result:
        overlap_ok = True
        for first, second in zip(value_sets, value_sets[1:]):
            a = first.get(key, set())
            b = second.get(key, set())
            larger = max(len(a), len(b))
            if larger and len(a & b) / larger < MIN_VALUE_OVERLAP:
                overlap_ok = False
                break
        if overlap_ok:
            safe.add(key)
    return safe
