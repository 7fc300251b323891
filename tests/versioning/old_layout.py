"""Stores in the layout written before the head held the checksums.

Such a store keeps each document's checksums in a ``manifest.json``
beside an indented ``meta.json``, and its commit journals embed both
records.  These helpers rewrite what the current code stored into that
older form, byte for byte, so the tests can open one.
"""

import json

from repro.versioning import layout


def old_record(payload) -> bytes:
    """A ``meta.json`` or ``manifest.json`` as the older layout wrote it:
    indented JSON with sorted keys."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def old_journal(journal: dict) -> dict:
    """The journal the older layout wrote for the same commit: the head
    without checksums, and a manifest holding them."""
    head = dict(journal["meta"])
    files = head.pop("checksums")
    return dict(
        journal, meta=head, manifest={"algorithm": "sha256", "files": files}
    )


def to_old_layout(backend, prefix: str, *, manifest: bool = True) -> None:
    """Rewrite one document's head in the older layout.

    ``manifest=False`` leaves no ``manifest.json``: the layout of stores
    older than checksums.
    """
    meta_key = layout.key(prefix, "meta")
    head = json.loads(backend.get(meta_key))
    files = head.pop("checksums")
    backend.put(meta_key, old_record(head))
    if manifest:
        backend.put(
            layout.key(prefix, "manifest"),
            old_record({"algorithm": "sha256", "files": files}),
        )
