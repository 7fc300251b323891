"""Canonical form of subtrees.

Two subtrees must map to the same canonical byte string exactly when they
are structurally equal (:meth:`Node.deep_equal`).  Nothing in the diff
pipeline reads them: BULD numbers subtrees exactly (see
:mod:`repro.core.signature`), and tests use this string as the
independent oracle those numbers are checked against.

The encoding is length-prefixed so that no concatenation of distinct trees
can collide with a single tree ("1" + "23" vs "12" + "3" style ambiguity).
"""

from __future__ import annotations

from repro.xmlkit.model import Node

__all__ = ["canonical_bytes"]


def canonical_bytes(node: Node) -> bytes:
    """Deterministic, unambiguous byte encoding of the subtree at ``node``."""
    parts: list[bytes] = []
    _encode(node, parts)
    return b"".join(parts)


def _field(data: bytes) -> bytes:
    return str(len(data)).encode("ascii") + b":" + data


def _encode(node: Node, parts: list[bytes]) -> None:
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, bytes):
            parts.append(current)
            continue
        kind = current.kind
        if kind == "element":
            label = current.label.encode("utf-8")
            attrs = b"".join(
                _field(name.encode("utf-8")) + _field(str(value).encode("utf-8"))
                for name, value in sorted(current.attributes.items())
            )
            parts.append(b"E" + _field(label) + _field(attrs) + b"(")
            stack.append(b")")
            stack.extend(reversed(current.children))
        elif kind == "text":
            parts.append(b"T" + _field(current.value.encode("utf-8")))
        elif kind == "comment":
            parts.append(b"C" + _field(current.value.encode("utf-8")))
        elif kind == "pi":
            parts.append(
                b"P"
                + _field(current.target.encode("utf-8"))
                + _field(current.value.encode("utf-8"))
            )
        elif kind == "document":
            parts.append(b"D(")
            stack.append(b")")
            stack.extend(reversed(current.children))
        else:  # pragma: no cover - model has no other kinds
            raise ValueError(f"unknown node kind {kind!r}")
