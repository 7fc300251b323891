"""Structural validation of deltas.

A delta that arrives from disk, the network, or another tool may be
malformed in ways the applier only discovers halfway through (and without
``verify=True``, possibly not at all).  :func:`validate_delta` checks a
delta's *internal* consistency up front, and — when the base document is
at hand — its *external* fit, returning all problems instead of raising
on the first:

internal checks
    duplicate operations on one node, a node both deleted and moved,
    updates/moves targeting nodes inside a delete payload, XID reuse
    between insert payloads, attribute operations colliding on one
    ``(node, name)``, negative positions;

external checks (``base_document`` given)
    referenced XIDs exist, update targets are value nodes, attach parents
    are containers, delete payloads match the document content.

The CLI exposes it as ``xydiff validate``, its one caller; the version
store does not run it on the deltas it loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.delta import Delta
from repro.core.xid import subtree_xids, xid_index
from repro.xmlkit.model import Document

__all__ = ["ValidationProblem", "validate_delta"]


@dataclass(frozen=True)
class ValidationProblem:
    """One issue found in a delta.

    Attributes:
        severity: ``"error"`` (the delta cannot apply cleanly) or
            ``"warning"`` (suspicious but applicable).
        code: Stable machine-readable identifier.
        message: Human-readable description.
    """

    severity: str
    code: str
    message: str


def _error(code: str, message: str) -> ValidationProblem:
    return ValidationProblem("error", code, message)


def _warning(code: str, message: str) -> ValidationProblem:
    return ValidationProblem("warning", code, message)


def validate_delta(
    delta: Delta, base_document: Optional[Document] = None
) -> list[ValidationProblem]:
    """Check a delta for structural problems.

    Args:
        delta: The delta to inspect.
        base_document: Optional XID-labelled base version for external
            checks.

    Returns:
        All problems found (empty list = clean).
    """
    problems: list[ValidationProblem] = []

    deleted_payload: set[int] = set()
    inserted_payload: set[int] = set()
    deleted_roots: set[int] = set()
    moved: set[int] = set()
    updated: set[int] = set()
    attr_keys: set[tuple[int, str]] = set()

    for operation in delta.operations:
        kind = operation.kind
        if kind == "delete":
            payload = subtree_xids(operation.subtree)
            if operation.xid in deleted_roots:
                problems.append(
                    _error("duplicate-delete",
                           f"node {operation.xid} deleted twice")
                )
            overlap = deleted_payload.intersection(payload)
            if overlap:
                problems.append(
                    _error(
                        "overlapping-deletes",
                        f"nodes {sorted(overlap)[:5]} appear in more than "
                        "one delete payload",
                    )
                )
            deleted_roots.add(operation.xid)
            deleted_payload.update(payload)
        elif kind == "insert":
            payload = subtree_xids(operation.subtree)
            overlap = inserted_payload.intersection(payload)
            if overlap:
                problems.append(
                    _error(
                        "xid-reuse",
                        f"inserted XIDs {sorted(overlap)[:5]} appear in "
                        "more than one insert payload",
                    )
                )
            inserted_payload.update(payload)
            if operation.position < 0:
                problems.append(
                    _error("negative-position",
                           f"insert {operation.xid} at position "
                           f"{operation.position}")
                )
        elif kind == "move":
            if operation.xid in moved:
                problems.append(
                    _error("duplicate-move",
                           f"node {operation.xid} moved twice")
                )
            moved.add(operation.xid)
            if operation.from_position < 0 or operation.to_position < 0:
                problems.append(
                    _error("negative-position",
                           f"move {operation.xid} has a negative position")
                )
        elif kind == "update":
            if operation.xid in updated:
                problems.append(
                    _error("duplicate-update",
                           f"node {operation.xid} updated twice")
                )
            updated.add(operation.xid)
            if operation.old_value == operation.new_value:
                problems.append(
                    _warning("noop-update",
                             f"update {operation.xid} changes nothing")
                )
        else:  # attribute operations
            key = (operation.xid, operation.name)
            if key in attr_keys:
                problems.append(
                    _error(
                        "duplicate-attribute-op",
                        f"attribute {operation.name!r} of node "
                        f"{operation.xid} changed twice",
                    )
                )
            attr_keys.add(key)

    # cross-operation interactions
    for xid in moved:
        if xid in deleted_payload:
            problems.append(
                _error("move-of-deleted",
                       f"node {xid} is both moved and inside a delete")
            )
    for xid in updated:
        if xid in deleted_payload:
            problems.append(
                _error("update-of-deleted",
                       f"node {xid} is updated inside a delete payload")
            )
    collision = deleted_payload.intersection(inserted_payload)
    if collision:
        problems.append(
            _error(
                "delete-insert-xid-collision",
                f"XIDs {sorted(collision)[:5]} appear in both delete and "
                "insert payloads (identity cannot be both old and new)",
            )
        )

    if base_document is not None:
        problems.extend(_external_checks(delta, base_document,
                                         inserted_payload))
    return problems


def _external_checks(delta, base_document, inserted_payload):
    problems: list[ValidationProblem] = []
    index = xid_index(base_document)

    def exists(xid, context, allow_inserted=False):
        if xid in index:
            return True
        if allow_inserted and xid in inserted_payload:
            return True
        problems.append(
            _error("unknown-xid", f"{context} references missing XID {xid}")
        )
        return False

    for operation in delta.operations:
        kind = operation.kind
        if kind == "update":
            if exists(operation.xid, "update"):
                node = index[operation.xid]
                if node.kind not in ("text", "comment", "pi"):
                    problems.append(
                        _error(
                            "update-target-kind",
                            f"update {operation.xid} targets a "
                            f"{node.kind} node",
                        )
                    )
                elif node.value != operation.old_value:
                    problems.append(
                        _warning(
                            "stale-old-value",
                            f"update {operation.xid}: document value "
                            "differs from the recorded old value",
                        )
                    )
        elif kind == "delete":
            if exists(operation.xid, "delete"):
                node = index[operation.xid]
                parent = node.parent
                if parent is None or parent.xid != operation.parent_xid:
                    problems.append(
                        _warning(
                            "stale-parent",
                            f"delete {operation.xid}: parent differs from "
                            f"the recorded {operation.parent_xid}",
                        )
                    )
        elif kind == "insert":
            if exists(operation.parent_xid, "insert", allow_inserted=True):
                parent = index.get(operation.parent_xid)
                if parent is not None and parent.kind not in (
                    "element",
                    "document",
                ):
                    problems.append(
                        _error(
                            "attach-target-kind",
                            f"insert {operation.xid} attaches to a "
                            f"{parent.kind} node",
                        )
                    )
        elif kind == "move":
            exists(operation.xid, "move")
            exists(operation.to_parent_xid, "move target",
                   allow_inserted=True)
        else:  # attribute operations
            if exists(operation.xid, operation.kind):
                node = index[operation.xid]
                if node.kind != "element":
                    problems.append(
                        _error(
                            "attribute-target-kind",
                            f"{operation.kind} {operation.xid} targets a "
                            f"{node.kind} node",
                        )
                    )
    return problems
