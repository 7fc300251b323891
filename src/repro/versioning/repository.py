"""Versioned document storage (the repository of Figure 1).

A :class:`BackendRepository` keeps, per document: the **current
snapshot**, the **sequence of completed deltas** that produced it, and
the **XID allocator state**.  That is exactly the paper's storage
policy — "this delta is appended to the existing sequence of deltas
for this document; the old version is then possibly removed from the
repository" — old versions are reconstructed on demand by
:meth:`BackendRepository.materialize`, which starts from the nearest
stored state (the current snapshot or a checkpoint) and applies the
completed deltas from there in either direction: forward from a state
below the requested version, backward from one above.

It stores everything through a
:class:`repro.storage.backend.StorageBackend` (filesystem, or SQLite —
an in-memory SQLite database is what ``VersionStore()`` uses when no
repository is given).  Per document it keeps the current snapshot
(``<doc>/current.xml``), the deltas (``<doc>/delta-0001-0002.xml``
...), and one small head record (``meta.json``), under the keys and in
the record formats :mod:`repro.versioning.layout` defines.  Documents
and deltas are stored in their XML forms, so the store is inspectable
with any XML tooling — a property the paper makes a point of.

A store URL (``file://``, ``sqlite://``) or a bare path opens through
:func:`open_repository`.

Durability
----------
The delta model exists so any version can be *reconstructed* — which is
only worth something if the stored bytes survive crashes.  The backend
repository therefore writes with one discipline:

- every value is written atomically through the backend (the
  filesystem backend uses :mod:`repro.storage.atomic`: temp file +
  ``os.replace``; ``durability=`` adds ``fsync``);
- the SHA-256 checksums of the XML values live in the document's head,
  ``meta.json``, one record for the whole stored state;
- every head change is one **journaled** write
  (:meth:`BackendRepository._write`): a create, a commit (with its
  checkpoint every :data:`CHECKPOINT_EVERY` versions), and fsck's
  checksum repairs.  A
  commit-intent record (``journal.json``) carrying the new head and the
  SHA-256 of each value before (``pre``) and after (``post``) the write
  goes *first*, then the values, then the head, and the journal is
  removed *last*, inside a backend ``batch()`` scope (a no-op on
  file-based backends; a native transaction on SQLite).

On reopen, a leftover journal is resolved by one rule.  If every
``post`` value landed, the journal's head is written (rolled forward).
Otherwise each value the write added is removed, and a value it
overwrote that no longer holds its ``pre`` bytes is re-derived from the
nearest other stored state (rolled back).  A ``pre`` of ``null`` is a
hash the store never recorded: the value is trusted as it stands.

Stores written before the head held the checksums (see
:mod:`~repro.versioning.layout`) open as they are; an old journal rolls
forward into one head.

:meth:`BackendRepository.verify` audits checksums and structure and
returns findings; ``repro fsck`` (see :mod:`repro.versioning.fsck`)
wraps it with repair.  A stored file the backend cannot read (it
raises :class:`~repro.xmlkit.errors.StorageError`) is never taken for
a missing one: verification reports it as ``unreadable-file``, and
recovery leaves that document's journal in place as ``unrecoverable``.
A head read that fails raises it: the store as a whole is failing.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.core.apply import apply_backward, apply_delta
from repro.core.delta import Delta
from repro.core.deltaxml import delta_from_document, serialize_delta
from repro.core.xid import XidAllocator
from repro.storage.atomic import check_durability, sha256_bytes
from repro.storage.backend import (
    StorageBackend,
    open_backend,
    parse_store_url,
    sniff_scheme,
)
from repro.storage.filesystem import FilesystemBackend
from repro.versioning import layout
from repro.versioning.layout import CorruptStoreError
from repro.xmlkit.errors import (
    ReproError,
    RepositoryError,
    StorageError,
    XmlParseError,
)
from repro.xmlkit.model import Document
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import serialize_bytes

__all__ = [
    "BackendRepository",
    "CorruptStoreError",
    "Finding",
    "RecoveryEvent",
    "open_repository",
]


#: A pinned head not read yet (see BackendRepository.pinned_head).
_UNREAD = object()

#: A commit keeps every version that is a multiple of this as a
#: checkpoint: a second stored copy that bounds a version read's walk
#: and that fsck can rebuild a damaged ``current.xml`` from.  Read at
#: call time, so tests can patch it.
CHECKPOINT_EVERY = 8


@dataclass
class Finding:
    """One problem reported by :meth:`BackendRepository.verify`.

    Attributes:
        doc_id: Document the finding belongs to (storage prefix when
            the metadata naming it is itself unreadable).
        kind: Machine-readable category (``torn-commit``,
            ``corrupt-meta``, ``missing-manifest``, ``missing-checksum``,
            ``missing-file``, ``checksum-mismatch``, ``unreadable-file``,
            ``orphan-temp``, ``unexpected-file``, ``incomplete-document``).
        path: Offending file, key location or directory.
        message: Human-readable description.
        repairable: Whether ``fsck --repair`` has a deterministic fix.
        scheme: Backend scheme the finding came from (``file`` or
            ``sqlite``).
        key: Backend key (or orphan reference) the repair acts on.
    """

    doc_id: str
    kind: str
    path: str
    message: str
    repairable: bool = False
    scheme: str = ""
    key: str = ""


@dataclass
class RecoveryEvent:
    """One torn commit handled while opening a backend repository.

    ``action`` is ``rolled-forward``, ``rolled-back``,
    ``rolled-back-replay``, ``removed-invalid-journal`` or
    ``unrecoverable`` (the journal is left in place and
    :meth:`BackendRepository.verify` keeps reporting it; a file the
    backend could not read is also unrecoverable).
    """

    doc_dir: str
    action: str
    detail: str = ""


class BackendRepository:
    """Repository persisted through a :class:`StorageBackend`.

    Every document maps to a key prefix (its sanitised id, see
    :func:`~repro.versioning.layout.doc_prefix`); the keys under it are
    the same names the classic directory layout used, so the protocol
    is one level of indirection, not a new format.  An id whose prefix
    another id already owns reads as unknown: the metadata names its
    document.

    The repository holds no document state between calls: the backend
    is the only source of truth.  ``load_current`` parses
    ``current.xml`` and restores its XIDs and ID attributes from
    ``meta.json`` on every call, so each call returns a fresh tree and
    memory does not grow with the number of documents committed.

    Opening the repository scans for leftover commit journals and
    recovers them (see the module docstring); what happened is recorded
    in :attr:`recovery_events`.

    ``create`` and ``append`` accept an optional ``commit_record`` — an
    idempotency marker (``{"key": ..., "digest": ...}``) persisted
    *with* the commit, in the same journaled write, so a retried commit
    can be recognised even across a crash.  :meth:`last_commit` reads
    the record back (with the ``version`` it produced); a commit
    without a record clears any previous one — the record always
    describes the *latest* version or nothing.

    Args:
        backend: The storage backend holding the bytes.
        tracer: Optional :class:`repro.obs.trace.Tracer`; the
            storage-bound operations become ``repo.load-current`` and
            ``repo.append`` spans,
            nesting under whatever span the caller has open (a version
            store's ``store.commit``).
    """

    def __init__(self, backend: StorageBackend, tracer=None):
        self.backend = backend
        self.tracer = tracer
        # Per thread: [doc_id, meta or None (absent) or _UNREAD] while
        # a pinned_head scope is open (see pinned_head).
        self._pinned = threading.local()
        #: Torn commits handled while opening the store.
        self.recovery_events: list[RecoveryEvent] = []
        self.recover()

    # The write policy and the fault injector live on the backend; the
    # properties keep ``repo.durability`` / ``repo.faults = ...`` (the
    # crash matrix arms an injector mid-test) working across backends.
    @property
    def durability(self) -> str:
        return self.backend.durability

    @durability.setter
    def durability(self, value: str) -> None:
        self.backend.durability = check_durability(value)

    @property
    def faults(self):
        return self.backend.faults

    @faults.setter
    def faults(self, value) -> None:
        self.backend.faults = value

    def close(self) -> None:
        """Release backing resources; idempotent."""
        self.backend.close()

    # -- the head record -----------------------------------------------------

    @contextmanager
    def pinned_head(self, doc_id: str):
        """Read ``doc_id``'s metadata at most once inside this scope.

        The first read in the scope (a commit's ``exists`` makes it) is
        kept for the calling thread, also when it finds no document;
        later reads of the same document in the scope return it, and a
        metadata write replaces it.  :meth:`~repro.versioning
        .version_control.VersionStore.commit` runs in one, so a commit
        reads the head once and ``append`` builds on that same
        metadata, and :meth:`materialize` runs in one, so a version
        read does too.
        Inside an open scope for the same document this one reuses it;
        one for another document replaces it until this scope ends.
        """
        outer = getattr(self._pinned, "head", None)
        if outer is not None and outer[0] == doc_id:
            yield
            return
        self._pinned.head = [doc_id, _UNREAD]
        try:
            yield
        finally:
            self._pinned.head = outer

    def _pin_for(self, doc_id: str) -> Optional[list]:
        head = getattr(self._pinned, "head", None)
        return head if head is not None and head[0] == doc_id else None

    def _head(self, doc_id: str) -> Optional[dict]:
        """``doc_id``'s metadata, or ``None`` for an unknown document.

        A record naming another id (one that sanitises to the same
        prefix) leaves ``doc_id`` unknown; one naming none, as stores
        written before records named their document, is ``doc_id``'s.
        """
        pin = self._pin_for(doc_id)
        if pin is not None and pin[1] is not _UNREAD:
            return pin[1]
        try:
            meta = layout.get_record(
                self.backend, layout.doc_prefix(doc_id), "meta"
            )
        except FileNotFoundError:
            meta = None
        if meta is not None and meta.get("doc_id", doc_id) != doc_id:
            meta = None
        if pin is not None:
            pin[1] = meta
        return meta

    def _load_meta(self, doc_id: str) -> dict:
        meta = self._head(doc_id)
        if meta is None:
            raise RepositoryError(f"unknown document {doc_id!r}")
        return meta

    def _write(self, doc_id, head, new_head, values) -> None:
        """Move ``doc_id``'s head from ``head`` (``None`` for a new
        document) to ``new_head``, storing ``values`` (``name -> bytes``,
        in write order) with it.  The new head records their checksums.

        The one write of a head, journaled (see the module docstring):
        intent first, the values next, the head after the values it
        describes, journal removal last.  Every prefix of this sequence
        is recoverable; the batch scope lets a transactional backend
        make the whole sequence atomic on top of that.
        """
        backend = self.backend
        prefix = layout.doc_prefix(doc_id)
        files = dict(layout.checksums(backend, prefix, new_head))
        post = {name: sha256_bytes(data) for name, data in values.items()}
        # The values the write overwrites: the ones the old head describes.
        pre = {
            name: files.get(name)
            for name in values
            if head is not None and layout.checksummed(name, head)
        }
        files.update(post)
        new_head = dict(new_head, checksums=files)
        journal = {
            "doc_id": new_head.get("doc_id", doc_id),
            "base_version": int(head["current_version"]) if head else 0,
            "target_version": new_head["current_version"],
            "pre": pre,
            "post": post,
            "meta": new_head,
        }
        # A commit's journal also names its delta, as earlier readers
        # of the journal expect.
        for name in values:
            if layout.classify(name)[0] == "delta":
                journal["delta_file"] = name
        with backend.batch():
            layout.put_record(
                backend, prefix, "journal", journal, label="journal"
            )
            for name, data in values.items():
                backend.put(
                    layout.join(prefix, name),
                    data,
                    label=layout.classify(name)[0],
                )
            layout.put_head(backend, prefix, new_head, replaces=head)
            backend.delete(
                layout.key(prefix, "journal"), label="journal-clear"
            )
        pin = self._pin_for(doc_id)
        if pin is not None:
            pin[1] = new_head

    def _load_tree(
        self, key: str, meta: dict, labels: Optional[str | list]
    ) -> Document:
        """Parse a stored tree and reattach its XIDs and ID attributes."""
        document = parse(
            self.backend.get(key),
            strip_whitespace=False,
            origin=self.backend.location(key),
        )
        document.id_attributes = {
            tuple(pair) for pair in meta.get("id_attributes", [])
        }
        layout.restore_xids(document, labels)
        return document

    # -- documents -----------------------------------------------------------

    def create(self, doc_id, document, nodes, commit_record=None):
        """Store version 1 of a new document under its initial XIDs.

        The stored labels are what :func:`~repro.core.xid
        .assign_initial_xids` would give the tree, ``1..nodes`` in
        postorder with ``next_xid = nodes + 1``, written from the count
        alone: the tree's own XIDs are neither read nor changed.
        ``nodes`` counts every node but the document node, and the tree
        must read back as it is (see :func:`~repro.xmlkit.model
        .normalized_size`); :meth:`~repro.versioning.version_control
        .VersionStore.create` checks both in one walk.
        """
        prefix = layout.doc_prefix(doc_id)
        if self.backend.exists(layout.key(prefix, "meta")):
            meta = layout.get_record(self.backend, prefix, "meta")
            owner = str(meta.get("doc_id", doc_id))
            if owner == doc_id:
                raise RepositoryError(f"document {doc_id!r} already exists")
            raise RepositoryError(
                f"document {doc_id!r} would be stored under the prefix "
                f"{prefix!r} of document {owner!r}"
            )
        meta = {
            "doc_id": doc_id,
            "current_version": 1,
            "next_xid": nodes + 1,
            "id_attributes": sorted(
                list(pair) for pair in document.id_attributes
            ),
            "xid_labels": layout.initial_xids(nodes),
            "checksums": {},
        }
        if commit_record is not None:
            meta["last_commit"] = dict(commit_record, version=1)
            if commit_record.get("request_id"):
                meta["attribution"] = {
                    "1": str(commit_record["request_id"])
                }
        values = {layout.name("current"): serialize_bytes(document)}
        self._write(doc_id, None, meta, values)

    def exists(self, doc_id: str) -> bool:
        return self._head(doc_id) is not None

    def document_ids(self) -> list[str]:
        ids = []
        for prefix in layout.doc_prefixes(self.backend):
            if self.backend.exists(layout.key(prefix, "meta")):
                meta = layout.get_record(self.backend, prefix, "meta")
                ids.append(str(meta.get("doc_id", prefix)))
        return sorted(ids)

    def document_count(self) -> int:
        """Number of document slots in the store.

        Unlike ``len(document_ids())`` this also counts half-created
        documents (a prefix without readable metadata), which is what
        ``fsck`` reports.
        """
        return len(layout.doc_prefixes(self.backend))

    def current_version(self, doc_id: str) -> int:
        """Highest stored version number (versions start at 1)."""
        return int(self._load_meta(doc_id)["current_version"])

    def load_current(self, doc_id: str, readonly: bool = False) -> Document:
        """The current snapshot, as a fresh tree the caller may mutate.

        ``readonly`` has no effect: every call parses its own tree, so
        there is no shared instance to hand out.  It stays for callers
        that pass it.
        """
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("repo.load-current", doc_id=doc_id)
        try:
            meta = self._load_meta(doc_id)
            return self._load_tree(
                layout.key(layout.doc_prefix(doc_id), "current"),
                meta,
                meta.get("xid_labels"),
            )
        finally:
            if span is not None:
                self.tracer.end_span(span)

    def load_allocator(self, doc_id: str) -> XidAllocator:
        return XidAllocator(int(self._load_meta(doc_id)["next_xid"]))

    def last_commit(self, doc_id):
        """The idempotency record of the latest commit, or ``None``.

        The returned dict carries whatever the committer recorded
        (``key``, ``digest``) plus ``version`` — the version that
        commit produced.
        """
        record = self._load_meta(doc_id).get("last_commit")
        return dict(record) if record is not None else None

    def attribution(self, doc_id):
        """``version -> request id`` for every attributed commit.

        Unlike :meth:`last_commit` (latest record only), this map keeps
        one entry per committed version whose ``commit_record`` carried
        a ``request_id`` — the durable end of request correlation: an
        acked commit can be traced from the client's retry log to the
        exact stored version it produced.  Versions are string keys
        (JSON round trip).
        """
        return dict(self._load_meta(doc_id).get("attribution", {}))

    def load_delta(self, doc_id: str, base_version: int) -> Delta:
        """The delta from ``base_version`` to ``base_version + 1``."""
        self._load_meta(doc_id)  # the owner check
        key = layout.key(layout.doc_prefix(doc_id), "delta", base_version)
        try:
            data = self.backend.get(key)
        except FileNotFoundError as exc:
            raise RepositoryError(
                f"no delta {base_version}->{base_version + 1} for {doc_id!r}"
            ) from exc
        location = self.backend.location(key)
        try:
            return delta_from_document(
                parse(data, strip_whitespace=False, origin=location)
            )
        except XmlParseError as exc:
            raise CorruptStoreError(
                f"corrupt delta file {location}: {exc}", path=location
            ) from exc

    def append(self, doc_id, delta, new_document, allocator, commit_record=None):
        """Advance a document by one version.  A new version that is a
        multiple of :data:`CHECKPOINT_EVERY` is also kept as a
        checkpoint, in the same write."""
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("repo.append", doc_id=doc_id)
        try:
            meta = self._load_meta(doc_id)
            version = int(meta["current_version"])
            if span is not None:
                span.attrs["base_version"] = version
            current_bytes = serialize_bytes(new_document)
            new_meta = dict(
                meta,
                current_version=version + 1,
                next_xid=allocator.next_xid,
                xid_labels=layout.collect_xids(new_document),
            )
            # The idempotency record commits (and clears) *with* the
            # version it describes: it rides the journaled metadata, so
            # roll-forward preserves it and roll-back discards it along
            # with the half-commit it belonged to.
            if commit_record is not None:
                new_meta["last_commit"] = dict(
                    commit_record, version=version + 1
                )
                # Attribution accumulates (one entry per version, vs
                # last_commit's latest-only record) and rides the same
                # journaled metadata write, so crash recovery keeps it
                # consistent with the version it describes.
                if commit_record.get("request_id"):
                    attribution = dict(meta.get("attribution", {}))
                    attribution[str(version + 1)] = str(
                        commit_record["request_id"]
                    )
                    new_meta["attribution"] = attribution
            else:
                new_meta.pop("last_commit", None)
            values = {
                layout.name("delta", version): serialize_delta(delta).encode(
                    "utf-8"
                )
            }
            if (version + 1) % CHECKPOINT_EVERY == 0:
                values[layout.name("snapshot", version + 1)] = current_bytes
                snapshots = dict(meta.get("snapshots", {}))
                snapshots[str(version + 1)] = new_meta["xid_labels"]
                new_meta["snapshots"] = snapshots
            # current.xml, the one value a commit overwrites, lands
            # last: a crash before it is rolled back by removing what
            # the commit added, with nothing to re-derive.
            values[layout.name("current")] = current_bytes
            self._write(doc_id, meta, new_meta, values)
        finally:
            if span is not None:
                self.tracer.end_span(span)

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> list[RecoveryEvent]:
        """Detect and resolve torn commits (runs automatically on open).

        Returns the events appended to :attr:`recovery_events` by this
        scan.  Safe to call repeatedly; a healthy store is a no-op.
        Recovery I/O is never fault-injected — it models the fresh
        process that reopens the store after the crash.
        """
        events: list[RecoveryEvent] = []
        saved_faults = self.backend.faults
        self.backend.faults = None
        try:
            for prefix in layout.journal_prefixes(self.backend):
                try:
                    event = self._recover_doc(prefix)
                except StorageError as exc:
                    # Deciding from a file that cannot be read would
                    # take it for absent: keep the journal.
                    event = RecoveryEvent(
                        self.backend.location(prefix),
                        "unrecoverable",
                        str(exc),
                    )
                events.append(event)
        finally:
            self.backend.faults = saved_faults
        self.recovery_events.extend(events)
        return events

    def _recover_doc(self, prefix: str) -> RecoveryEvent:
        backend = self.backend
        doc_ref = backend.location(prefix)
        journal_key = layout.key(prefix, "journal")
        try:
            journal = layout.get_record(backend, prefix, "journal")
        except (CorruptStoreError, OSError):
            # The journal is written atomically *before* any content
            # key, so an unreadable journal means the tear hit the
            # journal itself and nothing else changed: discard it.
            backend.delete(journal_key)
            return RecoveryEvent(doc_ref, "removed-invalid-journal")
        pre, post = journal.get("pre", {}), journal.get("post", {})
        landed = {
            name: _digest_or_none(backend, layout.join(prefix, name))
            for name in post
        }
        if landed == post:
            # Every value landed — the crash hit the head write or the
            # journal removal.  Roll forward to the journal's head,
            # which supersedes any manifest.json; a journal written
            # before heads held the checksums carries them in its
            # manifest.
            head = journal["meta"]
            if "manifest" in journal:
                head = dict(head, checksums=journal["manifest"]["files"])
            layout.put_record(backend, prefix, "meta", head)
            backend.delete(layout.key(prefix, "manifest"))
            backend.delete(journal_key)
            return RecoveryEvent(
                doc_ref,
                "rolled-forward",
                f"to version {journal.get('target_version')}",
            )
        # Roll back; the head still describes the state before the
        # write.  A value it overwrote that no longer holds its pre
        # bytes was torn: re-derive it from the nearest other stored
        # state — the recovery completed deltas make possible.
        torn = [
            name
            for name, digest in pre.items()
            if landed.get(name) is None or digest not in (None, landed[name])
        ]
        for name in torn:
            try:
                restored = self.rederive(layout.join(prefix, name))
            except (ReproError, OSError):
                restored = False
            if not restored:
                return RecoveryEvent(
                    doc_ref,
                    "unrecoverable",
                    f"{name} torn and not re-derivable from another "
                    "stored state",
                )
        # What the write added — a delta, a checkpoint, a new
        # document's current.xml — goes.
        for name in post:
            if name not in pre:
                backend.delete(layout.join(prefix, name))
        backend.delete(journal_key)
        return RecoveryEvent(
            doc_ref,
            "rolled-back-replay" if torn else "rolled-back",
            f"to version {journal.get('base_version')}",
        )

    def rederive(self, key: str) -> bool:
        """Rebuild the current version or checkpoint stored at ``key``
        from the nearest *other* stored state (see :meth:`materialize`),
        so the damaged copy is never its own source.  It is written only
        when its SHA-256 matches the head's record (or the head has
        none); returns whether it was.
        """
        prefix, name = layout.split_key(key)
        kind, version = layout.classify(name)
        if kind not in ("current", "snapshot"):
            return False
        meta = layout.get_record(self.backend, prefix, "meta")
        if kind == "current":
            version = int(meta.get("current_version", 1))
        doc_id = str(meta.get("doc_id", prefix))
        data = serialize_bytes(self.materialize(doc_id, version, damaged=name))
        expected = layout.checksums(self.backend, prefix, meta).get(name)
        if expected is not None and sha256_bytes(data) != expected:
            return False
        self.backend.put(key, data)
        return True

    def set_checksums(self, doc_id: str, checksums: dict) -> None:
        """Replace the checksums in ``doc_id``'s head (fsck's repairs of
        a head without them), in one journaled write."""
        head = self._load_meta(doc_id)
        self._write(doc_id, head, dict(head, checksums=checksums), {})

    # -- verification --------------------------------------------------------

    def verify(self, doc_id: str | None = None) -> list[Finding]:
        """Audit checksums and structure; returns findings (empty = clean).

        Verification never mutates the store; pair it with
        :func:`repro.versioning.fsck.fsck_store` for repair.
        """
        orphans: dict[Optional[str], list[str]] = {}
        for ref in self.backend.orphans():
            orphans.setdefault(layout.split_key(ref)[0], []).append(ref)
        if doc_id is None:
            prefixes = layout.doc_prefixes(self.backend)
        else:
            prefixes = [layout.doc_prefix(doc_id)]
            if prefixes[0] not in orphans and not layout.doc_keys(
                self.backend, prefixes[0]
            ):
                raise RepositoryError(f"unknown document {doc_id!r}")
        findings: list[Finding] = []
        for prefix in prefixes:
            findings.extend(self._orphans(prefix, orphans.pop(prefix, [])))
            findings.extend(self._verify_prefix(prefix, doc_id))
        if doc_id is None:
            # Garbage not attributable to a live document (temp files in
            # removed prefixes or at the store root).
            for prefix in sorted(orphans, key=lambda prefix: prefix or ""):
                findings.extend(self._orphans(prefix or "-", orphans[prefix]))
        return findings

    def _finding(self, doc_label, kind, key, message, repairable=False):
        """A finding about ``key``, located and tagged by this backend."""
        return Finding(
            doc_label,
            kind,
            self.backend.location(key),
            message,
            repairable=repairable,
            scheme=self.backend.scheme,
            key=key,
        )

    def _orphans(self, doc_label: str, refs: list[str]) -> list[Finding]:
        message = "leftover atomic-write temp file"
        return [
            self._finding(doc_label, "orphan-temp", ref, message, True)
            for ref in refs
        ]

    def _unreadable(self, doc_label, key, error=None) -> Finding:
        """The finding for a stored value that exists but cannot be read.

        No repair applies: fsck must not delete or overwrite what it
        could not read.
        """
        detail = f": {error}" if error is not None else " (not a regular value)"
        name = layout.split_key(key)[1]
        return self._finding(
            doc_label, "unreadable-file", key, f"{name} cannot be read{detail}"
        )

    def _verify_prefix(self, prefix: str, doc_id=None) -> list[Finding]:
        backend = self.backend
        # name -> key, in name order
        keys = {
            layout.split_key(key)[1]: key
            for key in layout.doc_keys(backend, prefix)
        }
        meta_key = layout.key(prefix, "meta")
        if layout.name("meta") not in keys:
            if backend.exists(meta_key):
                # Present but not listed as a value: a directory or
                # another non-file in its place.  Not absent, so the
                # prefix is not cleaned up.
                return [self._unreadable(prefix, meta_key)]
            message = (
                f"document prefix has no {layout.name('meta')} "
                "(crash before first commit)"
            )
            return [
                self._finding(
                    prefix, "incomplete-document", prefix, message, True
                )
            ]
        try:
            meta = layout.get_record(backend, prefix, "meta")
        except CorruptStoreError as exc:
            return [self._finding(prefix, "corrupt-meta", meta_key, str(exc))]
        if doc_id is not None and meta.get("doc_id", doc_id) != doc_id:
            raise RepositoryError(f"unknown document {doc_id!r}")
        doc_label = str(meta.get("doc_id", prefix))
        findings: list[Finding] = []

        def add(kind, key, message, repairable=False):
            findings.append(
                self._finding(doc_label, kind, key, message, repairable)
            )

        if layout.name("journal") in keys:
            add(
                "torn-commit",
                layout.key(prefix, "journal"),
                "unresolved commit journal "
                "(recovery could not roll it back or forward)",
            )
        manifest = layout.name("manifest")
        manifest_key = layout.join(prefix, manifest)
        files = meta.get("checksums")
        if files is not None:
            if manifest in keys:
                message = f"{manifest} is left over: the head holds checksums"
                add("unexpected-file", manifest_key, message, True)
        elif manifest in keys:
            try:
                files = layout.checksums(backend, prefix, meta)
            except CorruptStoreError as exc:
                add("missing-manifest", manifest_key, str(exc), True)
        elif backend.exists(manifest_key):
            findings.append(self._unreadable(doc_label, manifest_key))
        else:
            message = "no checksums in the head (store predates them?)"
            add("missing-manifest", meta_key, message, True)
        files = files or {}
        stored = {}
        for name in sorted(files):
            key = layout.join(prefix, name)
            try:
                stored[name] = _digest_or_none(backend, key)
            except StorageError as exc:
                findings.append(self._unreadable(doc_label, key, exc))
        # The full copies of a version the head lists that are intact:
        # a damaged one is replayed from another of them.
        states = [layout.name("current")] + [
            layout.name("snapshot", int(version))
            for version in meta.get("snapshots", {})
        ]
        intact = {
            name for name in states
            if name in stored and stored[name] == files[name]
        }
        for name, digest in stored.items():
            if digest == files[name]:
                continue
            key = layout.join(prefix, name)
            rederivable = name in states and bool(intact - {name})
            if digest is None:
                message = f"{name} has a recorded checksum but is missing"
                kind = "missing-file"
            else:
                message = f"{name} does not match its recorded SHA-256"
                kind = "checksum-mismatch"
            if name in states and not rederivable:
                message += " (no other intact stored state to rebuild it from)"
            add(kind, key, message, rederivable)
        for base in range(1, int(meta.get("current_version", 1))):
            name = layout.name("delta", base)
            key = layout.join(prefix, name)
            if name not in keys and name not in files:
                add("missing-file", key, f"delta {base}->{base + 1} is missing")
            elif name in keys and files and name not in files:
                message = f"{name} has no recorded checksum"
                add("missing-checksum", key, message, True)
        for name, key in keys.items():
            kind = layout.classify(name)[0]
            if kind == "delta" and not layout.checksummed(name, meta):
                message = f"{name} is outside the committed version range"
                add("unexpected-file", key, message, True)
            elif kind == "snapshot" and not layout.checksummed(name, meta):
                message = f"{name} is not referenced by the metadata"
                add("unexpected-file", key, message, True)
        return findings

    # -- snapshot checkpoints ------------------------------------------------
    # Checkpoints are extra starting points for materialize(), bounding
    # the delta walk for long histories; append() stores one every
    # CHECKPOINT_EVERY versions.

    def load_snapshot(self, doc_id, version):
        """A stored historical snapshot, or ``None``."""
        meta = self._load_meta(doc_id)
        labels = meta.get("snapshots", {}).get(str(version))
        if labels is None:
            return None
        return self._load_tree(
            layout.key(layout.doc_prefix(doc_id), "snapshot", version),
            meta,
            labels,
        )

    def snapshot_versions(self, doc_id):
        """Versions with a stored snapshot (ascending, possibly empty)."""
        meta = self._load_meta(doc_id)
        return sorted(int(v) for v in meta.get("snapshots", {}))

    # -- reconstruction ------------------------------------------------------

    def materialize(
        self, doc_id: str, version: int, damaged: Optional[str] = None
    ) -> Document:
        """Rebuild any stored version from the nearest stored state.

        The stored states are the current snapshot and the checkpoints.
        Nearness counts the deltas to apply; a tie goes to the higher
        start, and the current snapshot wins over a checkpoint of the
        same version.  From a start below ``version`` the deltas apply
        forward, from one above they apply backward (completed deltas
        invert for free).  A checkpoint that cannot be loaded is passed
        over for the next-nearest start.

        Every read goes through :meth:`current_version`,
        :meth:`snapshot_versions`, :meth:`load_current`,
        :meth:`load_snapshot` and :meth:`load_delta`, so subclasses that
        instrument those see the whole walk.  The walk runs inside
        :meth:`pinned_head`, so those calls read the metadata once.

        ``damaged`` is for repair only: the stored name of a copy known
        to be bad (the current version or a checkpoint, see
        :func:`~repro.versioning.layout.name`), which the walk must not
        start from because it is what is being rebuilt.

        Raises:
            RepositoryError: ``version`` is out of range, or no intact
                stored state is left to start from.
        """
        with self.pinned_head(doc_id):
            return self._materialize(doc_id, version, damaged)

    def _materialize(self, doc_id, version, damaged):
        current = self.current_version(doc_id)
        if not 1 <= version <= current:
            raise RepositoryError(
                f"{doc_id!r} has versions 1..{current}, not {version}"
            )
        # (start version, checkpoint version or None for current.xml)
        starts = [
            (checkpoint, checkpoint)
            for checkpoint in self.snapshot_versions(doc_id)
            if layout.name("snapshot", checkpoint) != damaged
        ]
        if damaged != layout.name("current"):
            starts.append((current, None))
        starts.sort(
            key=lambda s: (abs(s[0] - version), -s[0], s[1] is not None)
        )
        for start, checkpoint in starts:
            if checkpoint is None:
                document = self.load_current(doc_id)
            else:
                try:
                    document = self.load_snapshot(doc_id, checkpoint)
                except (ReproError, OSError):
                    document = None
                if document is None:
                    continue
            if start <= version:
                replay, bases = apply_delta, range(start, version)
            else:
                replay = apply_backward
                bases = range(start - 1, version - 1, -1)
            for base in bases:
                document = replay(
                    self.load_delta(doc_id, base), document, in_place=True
                )
            return document
        raise RepositoryError(
            f"{doc_id!r}: no intact stored state to rebuild version "
            f"{version} from"
        )


#: Stores of removed backends: URL scheme -> (the marker file the
#: backend kept at the store root, why the store is refused).
_REMOVED_STORES = {
    "blob": (
        "blob.json",
        "is a content-addressed blob store, and the blob backend was "
        "removed; keep documents in a file:// or sqlite:// store",
    ),
    "shard": (
        "shard.json",
        "is a sharded store, and the shard router was removed; open "
        "each shard-NNN store under it by its own URL",
    ),
}


def open_repository(
    store,
    *,
    tracer=None,
    durability: str = "none",
    faults=None,
    must_exist: bool = False,
) -> BackendRepository:
    """Open (or create) a repository from a store URL or bare path.

    Accepted forms:

    - ``file://PATH`` (or a bare directory path) — classic
      one-directory-per-document layout;
    - ``sqlite://PATH`` — one WAL database file.

    A bare path is sniffed (:func:`~repro.storage.backend.sniff_scheme`):
    an SQLite file (or ``.sqlite`` / ``.db`` suffix) means SQLite,
    anything else is the directory layout.  A store written by a removed
    backend (the blob store, the shard router) is refused, by its scheme
    or by its root marker file, before anything is read or created.

    Args:
        store: Store URL, bare path, or an already-open
            :class:`BackendRepository` (returned unchanged — callers
            like ``fsck`` can be handed either).
        tracer: See :class:`BackendRepository`.
        durability: ``"none"`` (default), ``"fsync"`` or ``"full"`` —
            how hard every write pushes toward stable storage (see
            :mod:`repro.storage.atomic`).
        faults: Optional :class:`repro.testing.faults.FaultInjector`
            threaded through every write (crash-matrix testing).
        must_exist: Raise instead of creating a store that is not
            already on disk (``fsck`` never creates stores).
    """
    if isinstance(store, BackendRepository):
        return store
    url = os.fspath(store)
    head, sep, _ = url.partition("://")
    removed = head if sep and head in _REMOVED_STORES else None
    if removed is None:
        scheme, path = parse_store_url(url)
        for name, (marker, _) in _REMOVED_STORES.items():
            if os.path.exists(os.path.join(path, marker)):
                removed = name
    if removed is not None:
        raise RepositoryError(f"store {url!r} {_REMOVED_STORES[removed][1]}")
    if must_exist and not os.path.exists(path):
        raise RepositoryError(f"store {url!r} does not exist")
    if scheme is None:
        scheme = sniff_scheme(path)
    if scheme == "file":
        # Refused before the backend creates its root, which would
        # fail on the file with an OSError naming only the path.
        if os.path.exists(path) and not os.path.isdir(path):
            raise RepositoryError(f"store {url!r} is not a directory")
        backend = FilesystemBackend(
            path, durability=durability, faults=faults
        )
    else:
        backend = open_backend(
            f"{scheme}://{path}", durability=durability, faults=faults
        )
    return BackendRepository(backend, tracer=tracer)


def _digest_or_none(backend: StorageBackend, key: str) -> Optional[str]:
    try:
        return backend.digest(key)
    except FileNotFoundError:
        return None
