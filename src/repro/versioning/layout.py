"""The store layout: the keys a document owns and the bytes of its records.

Every document lives under one key prefix of a store
(:mod:`repro.storage.backend`), its id with each character outside
``[A-Za-z0-9._-]`` replaced by ``_``.  Under it are values of five
*kinds*: ``current.xml`` (``current``), ``delta-NNNN-MMMM.xml``
(``delta``, the completed delta from its base version NNNN to NNNN + 1),
``snapshot-NNNN.xml`` (``snapshot``, a checkpoint), ``meta.json``
(``meta``, the document's head, which holds the SHA-256 checksums of
its XML values; its appearance makes the document exist) and
``journal.json`` (``journal``, the intent record of a head change while
it is in flight).  The XML values stay readable with any XML tool.
Both records are compact JSON with sorted keys (:func:`encode_record`);
readers accept any JSON form.  The XIDs of a stored tree live in its
head, in the XID-map range notation deltas use.

Stores written before the head held the checksums keep them in an
older sixth value, ``manifest.json`` (``manifest``): :func:`checksums`
reads them there, and :func:`put_head` deletes it.

This module is the only one that knows these names and encodings; the
repository, ``fsck`` and the store statistics go through it.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain
from typing import Optional

from repro.core.xid import format_xid_map, xid_map_runs
from repro.xmlkit.errors import DeltaError, ReproError, RepositoryError

__all__ = [
    "CorruptStoreError",
    "DocIdError",
    "checksummed",
    "checksums",
    "classify",
    "collect_xids",
    "doc_keys",
    "doc_prefix",
    "doc_prefixes",
    "encode_record",
    "get_record",
    "initial_xids",
    "join",
    "journal_prefixes",
    "key",
    "name",
    "put_head",
    "put_record",
    "restore_xids",
    "split_key",
]

_NAMES = {
    "current": "current.xml",
    "meta": "meta.json",
    "journal": "journal.json",
    "manifest": "manifest.json",
}
_KINDS = {stored: kind for kind, stored in _NAMES.items()}
_DELTA_RE = re.compile(r"^delta-(\d+)-(\d+)\.xml$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.xml$")
_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


class DocIdError(ReproError):
    """A document id whose storage prefix would be the store root
    (``""``, ``"."``) or the directory above it (``".."``).

    Not a :class:`RepositoryError`: the id is malformed, not unknown.
    """


class CorruptStoreError(RepositoryError):
    """A stored file is unreadable or fails validation.

    Unlike plain :class:`RepositoryError` (misuse: unknown document,
    out-of-range version), this means bytes on disk are damaged.  The
    offending file is carried in :attr:`path` so tooling (``fsck``, a
    monitoring hook) can point at it.
    """

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = os.fspath(path) if path is not None else None


# -- keys --------------------------------------------------------------------


def doc_prefix(doc_id: str) -> str:
    """The key prefix ``doc_id`` is stored under.

    Raises:
        DocIdError: the prefix would be ``""``, ``"."`` or ``".."``.
    """
    prefix = _UNSAFE_RE.sub("_", doc_id)
    if prefix in ("", ".", ".."):
        raise DocIdError(
            f"document id {doc_id!r} cannot name a stored document"
        )
    return prefix


def name(kind: str, version: Optional[int] = None) -> str:
    """Stored name of one value of a document.

    ``version`` is the base version of a ``delta`` and the version of a
    ``snapshot``; the other kinds take none.
    """
    if kind == "delta":
        return f"delta-{version:04d}-{version + 1:04d}.xml"
    if kind == "snapshot":
        return f"snapshot-{version:04d}.xml"
    return _NAMES[kind]


def key(prefix: str, kind: str, version: Optional[int] = None) -> str:
    """The key of one value under a document prefix (see :func:`name`)."""
    return join(prefix, name(kind, version))


def join(prefix: str, stored_name: str) -> str:
    """The key of the stored name ``stored_name`` under ``prefix``."""
    return prefix + "/" + stored_name


def classify(stored_name: str) -> tuple[str, Optional[int]]:
    """``(kind, version)`` of a stored name, the inverse of :func:`name`.

    Any other name (a nested path, a stray file) is ``("other", None)``.
    """
    kind = _KINDS.get(stored_name)
    if kind is not None:
        return kind, None
    match = _DELTA_RE.match(stored_name)
    if match:
        return "delta", int(match.group(1))
    match = _SNAPSHOT_RE.match(stored_name)
    if match:
        return "snapshot", int(match.group(1))
    return "other", None


def split_key(stored_key: str) -> tuple[Optional[str], str]:
    """``(prefix, name)`` of a key; ``(None, key)`` at the store root."""
    prefix, slash, rest = stored_key.partition("/")
    return (prefix, rest) if slash else (None, stored_key)


def doc_prefixes(backend) -> list[str]:
    """Every document prefix holding a key, sorted."""
    prefixes = {split_key(stored)[0] for stored in backend.list_keys()}
    prefixes.discard(None)
    return sorted(prefixes)


def doc_keys(backend, prefix: str) -> list[str]:
    """Every key under one document prefix, sorted."""
    return backend.list_keys(prefix + "/")


def journal_prefixes(backend) -> list[str]:
    """The prefixes holding a commit journal, sorted."""
    suffix = "/" + _NAMES["journal"]
    return [
        stored[: -len(suffix)]
        for stored in backend.list_keys()
        if stored.endswith(suffix)
    ]


def checksummed(stored_name: str, meta: dict) -> bool:
    """Whether the head ``meta`` keeps a checksum of ``stored_name``:
    the current version, a delta inside the committed range, or a
    checkpoint the head lists."""
    kind, version = classify(stored_name)
    if kind == "delta":
        return 1 <= version < int(meta.get("current_version", 1))
    if kind == "snapshot":
        return version in {int(v) for v in meta.get("snapshots", {})}
    return kind == "current"


# -- records -----------------------------------------------------------------


def encode_record(payload) -> bytes:
    """The stored bytes of a record: compact JSON with sorted keys."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def get_record(backend, prefix: str, kind: str) -> dict:
    """Read one record of a document.

    Raises:
        FileNotFoundError: the record is absent.
        CorruptStoreError: it is not JSON (its ``path`` names it).
    """
    stored = key(prefix, kind)
    location = backend.location(stored)
    data = backend.get(stored)
    try:
        return json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptStoreError(
            f"corrupt {'metadata' if kind == 'meta' else kind} "
            f"at {location}: {exc}",
            path=location,
        ) from exc


def put_record(backend, prefix: str, kind: str, payload, *, label=None) -> None:
    """Write one record of a document."""
    backend.put(key(prefix, kind), encode_record(payload), label=label)


def checksums(backend, prefix: str, head: dict) -> dict:
    """``name -> SHA-256`` of the XML values ``head`` describes: its own,
    or an older head's ``manifest.json`` (raises
    :class:`CorruptStoreError` if that is not JSON), or none."""
    files = head.get("checksums")
    if files is not None:
        return files
    try:
        return get_record(backend, prefix, "manifest").get("files", {})
    except FileNotFoundError:
        return {}


def put_head(backend, prefix: str, head: dict, *, replaces=None, label="meta"):
    """Write a document's head over ``replaces``, the head it supersedes;
    if that one kept its checksums in ``manifest.json``, delete it."""
    put_record(backend, prefix, "meta", head, label=label)
    if replaces is not None and "checksums" not in replaces:
        backend.delete(key(prefix, "manifest"), label="manifest-clear")


# -- XID labels --------------------------------------------------------------


def initial_xids(nodes: int) -> str:
    """The labels of a tree of ``nodes`` nodes under its initial XIDs
    (``1..nodes`` in postorder)."""
    return format_xid_map(range(1, nodes + 1))


def collect_xids(document) -> str:
    """Postorder XID labels of a snapshot, in XID-map range notation.

    XIDs are the glue between the snapshot and its delta chain, but they
    are *not* serialized inside the XML content (that would pollute the
    document).  They are stored beside it instead, as a postorder list
    written the way deltas write one (:func:`~repro.core.xid
    .format_xid_map`, e.g. ``(1-40;57;42-56)``): initial labels are
    postorder, so most of a document is a handful of ranges.

    The list fits only if the XML parses back to the same nodes, so a
    tree holding an empty text node or adjacent text siblings (see
    :func:`~repro.xmlkit.model.coalesce_text`) is refused here, before
    anything is written.  A leaf's previous sibling, if it has one, is
    the node postorder yields just before it.
    """
    from repro.xmlkit.model import postorder

    xids = []
    previous = None
    for node in postorder(document):
        if node is document:
            continue
        if node.kind == "text" and (
            not node.value
            or (
                previous is not None
                and previous.kind == "text"
                and previous.parent is node.parent
            )
        ):
            raise RepositoryError(
                "cannot store a snapshot with empty or adjacent text "
                "nodes: it would not read back"
            )
        if node.xid is None:
            raise RepositoryError(
                "cannot store a snapshot whose nodes lack XIDs"
            )
        xids.append(node.xid)
        previous = node
    return format_xid_map(xids)


def restore_xids(document, labels: Optional[str | list]) -> None:
    """Reattach the persisted postorder XID labels to a loaded snapshot.

    ``labels`` is the range notation :func:`collect_xids` writes, or
    the plain JSON list of XIDs that stores written before it hold.
    The labels are read run by run as the walk assigns them: no list
    of every label is built.
    """
    from repro.core.xid import DOCUMENT_XID, assign_initial_xids
    from repro.xmlkit.model import postorder

    if isinstance(labels, str):
        try:
            runs = xid_map_runs(labels)
        except DeltaError as exc:
            raise RepositoryError(
                f"stored XID labels are malformed: {exc}"
            ) from exc
    else:
        runs = [labels] if labels else []
    count = sum(map(len, runs))
    if not count:
        assign_initial_xids(document)
        return
    nodes = postorder(document)
    if count != len(nodes) - 1:
        raise RepositoryError("stored XID labels do not fit the snapshot")
    # The document comes last in postorder; the labels end before it.
    for node, xid in zip(nodes, chain.from_iterable(runs)):
        node.xid = xid
    document.xid = DOCUMENT_XID
