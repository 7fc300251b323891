"""The Alerter: a delta-driven subscription system (Section 2, Figure 1).

"We implemented a subscription system that allows to detect changes of
interest in XML documents, e.g., that a new product has been added to a
catalog.  To do that, at the time we obtain a new version of some data, we
diff it and verify if some of the changes that have been detected are
relevant to subscriptions."

A :class:`Subscription` names the operation kinds it cares about, a label
pattern the changed node's location must match, and an optional value
predicate.  The :class:`Alerter` evaluates every delta (typically from a
:class:`~repro.versioning.version_control.VersionStore` commit hook) and
emits :class:`Alert` records.

Paths of changed nodes are resolved against the *new* document for inserts
/ moves / updates, and against the payload + parent for deletes — matching
what a subscriber intuitively means by "where did this happen".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.delta import Delta
from repro.core.xid import xid_index
from repro.xmlkit.model import Document, Node, preorder
from repro.xmlkit.path import LabelPattern, label_path_of

__all__ = ["Alert", "Alerter", "Subscription"]


@dataclass
class Subscription:
    """A standing query over change streams.

    Attributes:
        name: Identifier reported in alerts.
        pattern: Label pattern (see :class:`~repro.xmlkit.path.LabelPattern`)
            the changed node's label path must match, e.g.
            ``/catalog//product`` or ``//price/#text``.
        kinds: Operation kinds of interest; defaults to inserts only (the
            paper's "new product" example).  Use any of ``insert``,
            ``delete``, ``update``, ``move``, ``attr-insert``,
            ``attr-delete``, ``attr-update``.
        predicate: Optional ``f(text) -> bool`` filter over the changed
            node's text content (new value for updates/inserts, old value
            for deletes).
    """

    name: str
    pattern: str
    kinds: tuple[str, ...] = ("insert",)
    predicate: Optional[Callable[[str], bool]] = None

    def __post_init__(self):
        self._compiled = LabelPattern(self.pattern)

    def _accepts(self, kind: str, label_path: str, text: str) -> bool:
        if kind not in self.kinds:
            return False
        if not self._compiled.matches(label_path):
            return False
        if self.predicate is not None and not self.predicate(text):
            return False
        return True


@dataclass
class Alert:
    """One subscription hit.

    Attributes:
        subscription: Name of the triggered subscription.
        doc_id: Document the change belongs to (if known).
        kind: Operation kind that triggered.
        xid: Persistent identifier of the changed node.
        label_path: Where the change happened.
        text: The matched node's (new) text content, or old content for
            deletions.
    """

    subscription: str
    doc_id: Optional[str]
    kind: str
    xid: int
    label_path: str
    text: str


class Alerter:
    """Evaluates deltas against registered subscriptions."""

    def __init__(self):
        self.subscriptions: list[Subscription] = []

    def register(self, subscription: Subscription) -> Subscription:
        self.subscriptions.append(subscription)
        return subscription

    def process(
        self,
        delta: Delta,
        new_document: Document,
        doc_id: Optional[str] = None,
        old_document: Optional[Document] = None,
    ) -> list[Alert]:
        """Match one delta against all subscriptions.

        Args:
            delta: The committed delta.
            new_document: The version the delta produced (XID-labelled);
                used to resolve where inserts/moves/updates happened.
            doc_id: Optional document identifier for the alerts.
            old_document: Optional base version; enables precise label
                paths for deletions (otherwise the payload's own shape is
                used).

        Returns:
            All alerts, in delta-operation order.
        """
        if not self.subscriptions:
            return []
        alerts: list[Alert] = []
        new_index = xid_index(new_document)
        old_index = xid_index(old_document) if old_document is not None else {}

        for operation in delta.operations:
            for candidate in self._operation_targets(
                operation, new_index, old_index
            ):
                kind, xid, label_path, text = candidate
                for subscription in self.subscriptions:
                    if subscription._accepts(kind, label_path, text):
                        alerts.append(
                            Alert(
                                subscription=subscription.name,
                                doc_id=doc_id,
                                kind=kind,
                                xid=xid,
                                label_path=label_path,
                                text=text,
                            )
                        )
        return alerts

    # -- target extraction -------------------------------------------------------

    def _operation_targets(self, operation, new_index, old_index):
        """Yield ``(kind, xid, label_path, text)`` for every node an
        operation touches (payload operations touch whole subtrees)."""
        kind = operation.kind
        if kind == "insert":
            root = new_index.get(operation.xid)
            if root is not None:
                for node in preorder(root):
                    yield (
                        "insert",
                        node.xid,
                        label_path_of(node),
                        _text_of(node),
                    )
            else:  # fall back to payload shape
                yield from self._payload_targets(operation, "insert")
        elif kind == "delete":
            root = old_index.get(operation.xid)
            if root is not None:
                for node in preorder(root):
                    yield (
                        "delete",
                        node.xid,
                        label_path_of(node),
                        _text_of(node),
                    )
            else:
                yield from self._payload_targets(operation, "delete")
        elif kind == "move":
            node = new_index.get(operation.xid)
            if node is not None:
                yield ("move", node.xid, label_path_of(node), _text_of(node))
        elif kind == "update":
            node = new_index.get(operation.xid)
            if node is not None:
                yield ("update", node.xid, label_path_of(node), operation.new_value)
        else:  # attribute operations target their owning element
            node = new_index.get(operation.xid)
            if node is not None:
                yield (kind, node.xid, label_path_of(node), _text_of(node))

    def _payload_targets(self, operation, kind):
        for node in preorder(operation.subtree):
            yield (kind, node.xid, label_path_of(node), _text_of(node))


def _text_of(node: Node) -> str:
    if node.kind in ("text", "comment", "pi"):
        return node.value
    return node.text_content()
