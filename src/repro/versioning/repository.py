"""Versioned document storage (the repository of Figure 1).

A :class:`Repository` keeps, per document: the **current snapshot**, the
**sequence of completed deltas** that produced it, and the **XID allocator
state**.  That is exactly the paper's storage policy — "this delta is
appended to the existing sequence of deltas for this document; the old
version is then possibly removed from the repository" — old versions are
reconstructed on demand by :meth:`Repository.materialize`, which starts
from the nearest stored state (the current snapshot or a checkpoint) and
applies the completed deltas from there in either direction: forward
from a state below the requested version, backward from one above.

One class implements it: :class:`BackendRepository` (exported as
``Repository`` too) stores everything through a
:class:`repro.storage.backend.StorageBackend` (filesystem, or SQLite —
an in-memory SQLite database is what ``VersionStore()`` uses when no
repository is given).  Per document it keeps the current snapshot
(``<doc>/current.xml``), the deltas (``<doc>/delta-0001-0002.xml``
...), and a small metadata record.  Documents and deltas are stored in
their XML forms, so the store is inspectable with any XML tooling — a
property the paper makes a point of.  :class:`DirectoryRepository` is
its constructor for the classic one-directory-per-document filesystem
layout.

A store URL (``file://``, ``sqlite://``) or a bare path opens as one of
the two through :func:`open_repository`.

Durability
----------
The delta model exists so any version can be *reconstructed* — which is
only worth something if the stored bytes survive crashes.  The backend
repository therefore commits with a write discipline:

- every value is written atomically through the backend (the
  filesystem backend uses :mod:`repro.storage.atomic`: temp file +
  ``os.replace``; ``durability=`` adds ``fsync``);
- SHA-256 checksums of the content files live in a per-document
  ``manifest.json``;
- :meth:`BackendRepository.append` is **journaled**: a commit-intent
  record (``journal.json``) carrying the post-state checksums and the
  new metadata is written *first* and removed *last*, inside a backend
  ``batch()`` scope (a no-op on file-based backends; a native
  transaction on SQLite).  On reopen, a leftover journal identifies a
  torn commit, which is rolled forward (all content landed — finish
  the metadata) or rolled back (remove the half-commit; if
  ``current.xml`` itself was torn, materialize it from the nearest
  checkpoint) deterministically.

:meth:`BackendRepository.verify` audits checksums and structure and
returns findings; ``repro fsck`` (see :mod:`repro.versioning.fsck`)
wraps it with repair.  A stored file the backend cannot read (it
raises :class:`~repro.xmlkit.errors.StorageError`) is never taken for
a missing one: verification reports it as ``unreadable-file``, and
recovery leaves that document's journal in place as ``unrecoverable``.
A metadata or manifest read that fails raises it: the store as a whole
is failing.
"""

from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.core.apply import apply_backward, apply_delta
from repro.core.delta import Delta
from repro.core.deltaxml import delta_from_document, serialize_delta
from repro.core.xid import XidAllocator, format_xid_map, parse_xid_map
from repro.storage.atomic import check_durability, sha256_bytes
from repro.storage.backend import (
    StorageBackend,
    open_backend,
    parse_store_url,
    sniff_scheme,
)
from repro.storage.filesystem import FilesystemBackend
from repro.xmlkit.errors import (
    DeltaError,
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
    "DirectoryRepository",
    "Finding",
    "RecoveryEvent",
    "Repository",
    "open_repository",
]

_DELTA_FILE_RE = re.compile(r"^delta-(\d+)-(\d+)\.xml$")
_SNAPSHOT_FILE_RE = re.compile(r"^snapshot-(\d+)\.xml$")

CURRENT_NAME = "current.xml"
META_NAME = "meta.json"
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.json"


def snapshot_name(version: int) -> str:
    """Stored name of the checkpoint snapshot of ``version``."""
    return f"snapshot-{version:04d}.xml"


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


@dataclass
class Finding:
    """One problem reported by :meth:`BackendRepository.verify`.

    Attributes:
        doc_id: Document the finding belongs to (storage prefix when
            the metadata naming it is itself unreadable).
        kind: Machine-readable category (``torn-commit``,
            ``corrupt-meta``, ``missing-manifest``, ``missing-checksum``,
            ``missing-file``, ``checksum-mismatch``, ``orphan-temp``,
            ``unexpected-file``, ``incomplete-document``).
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

    Every document maps to a key prefix (its sanitised id); the keys
    under it are the same names the classic directory layout used, so
    the protocol is one level of indirection, not a new format.

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
        # Per thread: [doc_id, meta or None] while a pinned_head scope
        # is open (see pinned_head).
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

    # -- keys ----------------------------------------------------------------

    def _doc_key(self, doc_id: str) -> str:
        return re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)

    def _meta_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + META_NAME

    def _current_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + CURRENT_NAME

    def _manifest_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + MANIFEST_NAME

    def _journal_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + JOURNAL_NAME

    def _delta_name(self, base_version: int) -> str:
        return f"delta-{base_version:04d}-{base_version + 1:04d}.xml"

    def _delta_key(self, doc_id: str, base_version: int) -> str:
        return self._doc_key(doc_id) + "/" + self._delta_name(base_version)

    def _doc_prefixes(self) -> list[str]:
        return sorted(
            {
                key.split("/", 1)[0]
                for key in self.backend.list_keys()
                if "/" in key
            }
        )

    @staticmethod
    def _orphan_prefix(ref: str) -> Optional[str]:
        """Document prefix an orphan reference belongs to (None = global)."""
        head, slash, _ = ref.partition("/")
        return head if slash else None

    # -- metadata / manifest records -----------------------------------------

    def _read_json(self, key: str, what: str) -> dict:
        location = self.backend.location(key)
        data = self.backend.get(key)
        try:
            return json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptStoreError(
                f"corrupt {what} at {location}: {exc}", path=location
            ) from exc

    @contextmanager
    def pinned_head(self, doc_id: str):
        """Read ``doc_id``'s metadata at most once inside this scope.

        The first read in the scope (``load_current`` makes it, before
        it reads the tree) is kept for the calling thread; later reads
        of the same document in the scope return it, and a metadata
        write replaces it.  :meth:`~repro.versioning.version_control
        .VersionStore.commit` runs in one, so a commit reads the head
        once and ``append`` builds on that same metadata, and
        :meth:`materialize` runs in one, so a version read does too.
        Inside an open scope for the same document this one reuses it;
        one for another document replaces it until this scope ends.
        """
        outer = getattr(self._pinned, "head", None)
        if outer is not None and outer[0] == doc_id:
            yield
            return
        self._pinned.head = [doc_id, None]
        try:
            yield
        finally:
            self._pinned.head = outer

    def _pin_for(self, doc_id: str) -> Optional[list]:
        head = getattr(self._pinned, "head", None)
        return head if head is not None and head[0] == doc_id else None

    def _load_meta(self, doc_id: str) -> dict:
        pin = self._pin_for(doc_id)
        if pin is not None and pin[1] is not None:
            return pin[1]
        try:
            meta = self._read_json(self._meta_key(doc_id), "metadata")
        except FileNotFoundError as exc:
            raise RepositoryError(f"unknown document {doc_id!r}") from exc
        if pin is not None:
            pin[1] = meta
        return meta

    def _store_meta(self, doc_id: str, meta: dict) -> None:
        self.backend.put_json(self._meta_key(doc_id), meta, label="meta")
        pin = self._pin_for(doc_id)
        if pin is not None:
            pin[1] = meta

    def _load_manifest(self, doc_id: str) -> dict:
        try:
            return self._read_json(self._manifest_key(doc_id), "manifest")
        except FileNotFoundError:
            # Only a *missing* manifest falls back — stores written
            # before manifests existed keep working and fsck --repair
            # backfills the record.  An unreadable manifest raises
            # CorruptStoreError instead (with .path): silently
            # regenerating would launder damaged checksums into
            # trusted ones.
            return {"algorithm": "sha256", "files": {}}

    def _store_manifest(self, doc_id: str, manifest: dict) -> None:
        self.backend.put_json(
            self._manifest_key(doc_id), manifest, label="manifest"
        )

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
        _restore_xids(document, labels)
        return document

    # -- documents -----------------------------------------------------------

    def create(self, doc_id, document, allocator, commit_record=None):
        """Store version 1 of a new document, under the XIDs it carries."""
        self._create(
            doc_id,
            document,
            allocator.next_xid,
            _collect_xids(document),
            commit_record,
        )

    def create_initial(self, doc_id, document, nodes, commit_record=None):
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
        self._create(
            doc_id,
            document,
            nodes + 1,
            format_xid_map(range(1, nodes + 1)),
            commit_record,
        )

    def _create(self, doc_id, document, next_xid, labels, commit_record):
        if self.backend.exists(self._meta_key(doc_id)):
            raise RepositoryError(f"document {doc_id!r} already exists")
        meta = {
            "doc_id": doc_id,
            "current_version": 1,
            "next_xid": next_xid,
            "id_attributes": sorted(
                list(pair) for pair in document.id_attributes
            ),
            "xid_labels": labels,
        }
        if commit_record is not None:
            meta["last_commit"] = dict(commit_record, version=1)
            if commit_record.get("request_id"):
                meta["attribution"] = {
                    "1": str(commit_record["request_id"])
                }
        with self.backend.batch():
            digest = self.backend.put(
                self._current_key(doc_id),
                serialize_bytes(document),
                label="current",
            )
            self._store_manifest(
                doc_id,
                {"algorithm": "sha256", "files": {CURRENT_NAME: digest}},
            )
            # meta.json lands last: its appearance is what makes the
            # document exist.  A crash before this point leaves an
            # incomplete prefix that the next create() overwrites and
            # fsck flags.
            self._store_meta(doc_id, meta)

    def exists(self, doc_id: str) -> bool:
        return self.backend.exists(self._meta_key(doc_id))

    def document_ids(self) -> list[str]:
        ids = []
        for prefix in self._doc_prefixes():
            meta_key = prefix + "/" + META_NAME
            if self.backend.exists(meta_key):
                ids.append(str(self._read_json(meta_key, "metadata")["doc_id"]))
        return sorted(ids)

    def document_count(self) -> int:
        """Number of document slots in the store.

        Unlike ``len(document_ids())`` this also counts half-created
        documents (a prefix without readable metadata), which is what
        ``fsck`` reports.
        """
        return len(self._doc_prefixes())

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
                self._current_key(doc_id), meta, meta.get("xid_labels")
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
        key = self._delta_key(doc_id, base_version)
        try:
            data = self.backend.get(key)
        except FileNotFoundError as exc:
            # Probe only on the miss, to tell the two errors apart.
            if not self.exists(doc_id):
                raise RepositoryError(f"unknown document {doc_id!r}")
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
        """Advance a document by one version."""
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("repo.append", doc_id=doc_id)
        try:
            meta = self._load_meta(doc_id)
            version = int(meta["current_version"])
            if span is not None:
                span.attrs["base_version"] = version
            delta_name = self._delta_name(version)
            delta_bytes = serialize_delta(delta).encode("utf-8")
            current_bytes = serialize_bytes(new_document)
            manifest = self._load_manifest(doc_id)
            new_meta = dict(meta)
            new_meta["current_version"] = version + 1
            new_meta["next_xid"] = allocator.next_xid
            new_meta["xid_labels"] = _collect_xids(new_document)
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
            new_manifest = {
                "algorithm": "sha256",
                "files": dict(manifest.get("files", {})),
            }
            new_manifest["files"][delta_name] = sha256_bytes(delta_bytes)
            new_manifest["files"][CURRENT_NAME] = sha256_bytes(current_bytes)
            journal = {
                "doc_id": meta.get("doc_id", doc_id),
                "base_version": version,
                "target_version": version + 1,
                "delta_file": delta_name,
                "pre": {
                    CURRENT_NAME: manifest.get("files", {}).get(CURRENT_NAME)
                },
                "post": {
                    CURRENT_NAME: new_manifest["files"][CURRENT_NAME],
                    delta_name: new_manifest["files"][delta_name],
                },
                "meta": new_meta,
                "manifest": new_manifest,
            }
            # Commit protocol: intent first, content next, metadata
            # after the content it describes, journal removal last.
            # Every prefix of this sequence is recoverable.  The batch
            # scope lets a transactional backend make the whole
            # sequence atomic on top of that.
            with self.backend.batch():
                self.backend.put_json(
                    self._journal_key(doc_id), journal, label="journal"
                )
                self.backend.put(
                    self._delta_key(doc_id, version),
                    delta_bytes,
                    label="delta",
                )
                self.backend.put(
                    self._current_key(doc_id),
                    current_bytes,
                    label="current",
                )
                self._store_manifest(doc_id, new_manifest)
                self._store_meta(doc_id, new_meta)
                self.backend.delete(
                    self._journal_key(doc_id), label="journal-clear"
                )
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
            for key in self.backend.list_keys():
                if key.endswith("/" + JOURNAL_NAME):
                    prefix = key.rsplit("/", 1)[0]
                    try:
                        event = self._recover_doc(prefix)
                    except StorageError as exc:
                        # Deciding from a file that cannot be read
                        # would take it for absent: keep the journal.
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
        journal_key = prefix + "/" + JOURNAL_NAME
        try:
            journal = self._read_json(journal_key, "journal")
        except (CorruptStoreError, OSError):
            # The journal is written atomically *before* any content
            # key, so an unreadable journal means the tear hit the
            # journal itself and nothing else changed: discard it.
            backend.delete(journal_key)
            return RecoveryEvent(doc_ref, "removed-invalid-journal")
        post = journal.get("post", {})
        pre = journal.get("pre", {})
        delta_name = journal.get("delta_file", "")
        delta_key = prefix + "/" + delta_name
        current_key = prefix + "/" + CURRENT_NAME
        delta_ok = bool(delta_name) and _digest_or_none(
            backend, delta_key
        ) == post.get(delta_name)
        current_digest = _digest_or_none(backend, current_key)
        if delta_ok and current_digest == post.get(CURRENT_NAME):
            # All content landed — the crash hit the metadata writes or
            # the journal removal.  Roll forward from the journal's
            # embedded copies.
            backend.put_json(
                prefix + "/" + MANIFEST_NAME, journal["manifest"]
            )
            backend.put_json(prefix + "/" + META_NAME, journal["meta"])
            backend.delete(journal_key)
            return RecoveryEvent(
                doc_ref,
                "rolled-forward",
                f"to version {journal.get('target_version')}",
            )
        pre_current = pre.get(CURRENT_NAME)
        if current_digest is not None and pre_current in (None, current_digest):
            # current.xml is still the pre-commit content (or a legacy
            # store never recorded its hash — trust the write order:
            # delta precedes current, and the delta did not land).
            backend.delete(delta_key)
            backend.delete(journal_key)
            return RecoveryEvent(
                doc_ref,
                "rolled-back",
                f"to version {journal.get('base_version')}",
            )
        # current.xml is neither pre nor post: it was torn.  Re-derive
        # the pre-commit content from the nearest checkpoint — the
        # recovery mechanism completed deltas make possible.  The
        # metadata still describes the pre-commit version.
        try:
            replayed = self.materialize(
                str(journal["doc_id"]),
                int(journal.get("base_version", 0)),
                damaged=CURRENT_NAME,
            )
        except (KeyError, ReproError, OSError):
            replayed = None
        if replayed is None:
            return RecoveryEvent(
                doc_ref,
                "unrecoverable",
                "current.xml torn and no checkpoint to replay from",
            )
        restored = serialize_bytes(replayed)
        if pre_current is not None and sha256_bytes(restored) != pre_current:
            return RecoveryEvent(
                doc_ref,
                "unrecoverable",
                "replayed content does not match the recorded checksum",
            )
        backend.put(current_key, restored)
        backend.delete(delta_key)
        backend.delete(journal_key)
        return RecoveryEvent(
            doc_ref,
            "rolled-back-replay",
            f"current.xml re-derived for version {journal.get('base_version')}",
        )

    # -- verification --------------------------------------------------------

    def verify(self, doc_id: str | None = None) -> list[Finding]:
        """Audit checksums and structure; returns findings (empty = clean).

        Verification never mutates the store; pair it with
        :func:`repro.versioning.fsck.fsck_store` for repair.
        """
        orphan_map: dict[Optional[str], list[str]] = {}
        for ref in self.backend.orphans():
            orphan_map.setdefault(self._orphan_prefix(ref), []).append(ref)
        if doc_id is not None:
            prefix = self._doc_key(doc_id)
            scoped = orphan_map.get(prefix, [])
            if not scoped and not self.backend.list_keys(prefix + "/"):
                raise RepositoryError(f"unknown document {doc_id!r}")
            return self._verify_prefix(prefix, scoped)
        findings: list[Finding] = []
        for prefix in self._doc_prefixes():
            findings.extend(
                self._verify_prefix(prefix, orphan_map.pop(prefix, []))
            )
        # Garbage not attributable to a live document (temp files in
        # removed prefixes or at the store root).
        for prefix, refs in sorted(
            orphan_map.items(), key=lambda item: item[0] or ""
        ):
            for ref in refs:
                findings.append(self._orphan_finding(prefix or "-", ref))
        return findings

    def _orphan_finding(self, doc_label: str, ref: str) -> Finding:
        return Finding(
            doc_label,
            "orphan-temp",
            self.backend.location(ref),
            "leftover atomic-write temp file",
            repairable=True,
            scheme=self.backend.scheme,
            key=ref,
        )

    def _verify_prefix(
        self, prefix: str, orphan_refs: list[str]
    ) -> list[Finding]:
        backend = self.backend
        scheme = backend.scheme
        findings: list[Finding] = []
        for ref in orphan_refs:
            findings.append(self._orphan_finding(prefix, ref))
        keys = backend.list_keys(prefix + "/")
        names = sorted(
            key[len(prefix) + 1 :]
            for key in keys
            if "/" not in key[len(prefix) + 1 :]
        )
        meta_key = prefix + "/" + META_NAME
        if META_NAME not in names:
            if backend.exists(meta_key):
                # Present but not listed as a value: a directory or
                # another non-file in its place.  Not absent, so the
                # prefix is not cleaned up.
                findings.append(
                    _unreadable(prefix, backend, meta_key, META_NAME)
                )
                return findings
            findings.append(
                Finding(
                    prefix,
                    "incomplete-document",
                    backend.location(prefix),
                    "document prefix has no meta.json "
                    "(crash before first commit)",
                    repairable=True,
                    scheme=scheme,
                    key=prefix,
                )
            )
            return findings
        try:
            meta = self._read_json(meta_key, "metadata")
        except CorruptStoreError as exc:
            findings.append(
                Finding(
                    prefix,
                    "corrupt-meta",
                    backend.location(meta_key),
                    str(exc),
                    scheme=scheme,
                    key=meta_key,
                )
            )
            return findings
        doc_label = str(meta.get("doc_id", prefix))
        if JOURNAL_NAME in names:
            findings.append(
                Finding(
                    doc_label,
                    "torn-commit",
                    backend.location(prefix + "/" + JOURNAL_NAME),
                    "unresolved commit journal "
                    "(recovery could not roll it back or forward)",
                    scheme=scheme,
                    key=prefix + "/" + JOURNAL_NAME,
                )
            )
        manifest_key = prefix + "/" + MANIFEST_NAME
        manifest_files: dict = {}
        if MANIFEST_NAME not in names and backend.exists(manifest_key):
            findings.append(
                _unreadable(doc_label, backend, manifest_key, MANIFEST_NAME)
            )
        elif MANIFEST_NAME not in names:
            findings.append(
                Finding(
                    doc_label,
                    "missing-manifest",
                    backend.location(manifest_key),
                    "no checksum manifest (store predates manifests?)",
                    repairable=True,
                    scheme=scheme,
                    key=manifest_key,
                )
            )
        else:
            try:
                manifest_files = dict(
                    self._read_json(manifest_key, "manifest").get("files", {})
                )
            except CorruptStoreError as exc:
                findings.append(
                    Finding(
                        doc_label,
                        "missing-manifest",
                        backend.location(manifest_key),
                        str(exc),
                        repairable=True,
                        scheme=scheme,
                        key=manifest_key,
                    )
                )
        current_version = int(meta.get("current_version", 1))
        for name, digest in sorted(manifest_files.items()):
            key = prefix + "/" + name
            rederivable = name == CURRENT_NAME or bool(
                _SNAPSHOT_FILE_RE.match(name)
            )
            try:
                stored = _digest_or_none(backend, key)
            except StorageError as exc:
                findings.append(
                    _unreadable(doc_label, backend, key, name, exc)
                )
                continue
            if stored is None:
                findings.append(
                    Finding(
                        doc_label,
                        "missing-file",
                        backend.location(key),
                        f"{name} is listed in the manifest but missing",
                        repairable=rederivable,
                        scheme=scheme,
                        key=key,
                    )
                )
            elif stored != digest:
                findings.append(
                    Finding(
                        doc_label,
                        "checksum-mismatch",
                        backend.location(key),
                        f"{name} does not match its recorded SHA-256",
                        repairable=rederivable,
                        scheme=scheme,
                        key=key,
                    )
                )
        for base in range(1, current_version):
            name = self._delta_name(base)
            key = prefix + "/" + name
            if name not in names:
                if name not in manifest_files:
                    findings.append(
                        Finding(
                            doc_label,
                            "missing-file",
                            backend.location(key),
                            f"delta {base}->{base + 1} is missing",
                            scheme=scheme,
                            key=key,
                        )
                    )
            elif manifest_files and name not in manifest_files:
                findings.append(
                    Finding(
                        doc_label,
                        "missing-checksum",
                        backend.location(key),
                        f"{name} has no recorded checksum",
                        repairable=True,
                        scheme=scheme,
                        key=key,
                    )
                )
        snapshot_versions = {int(v) for v in meta.get("snapshots", {})}
        for name in names:
            key = prefix + "/" + name
            delta_match = _DELTA_FILE_RE.match(name)
            snapshot_match = _SNAPSHOT_FILE_RE.match(name)
            if delta_match and not (
                1 <= int(delta_match.group(1)) < current_version
            ):
                findings.append(
                    Finding(
                        doc_label,
                        "unexpected-file",
                        backend.location(key),
                        f"{name} is outside the committed version range",
                        repairable=True,
                        scheme=scheme,
                        key=key,
                    )
                )
            elif snapshot_match and int(
                snapshot_match.group(1)
            ) not in snapshot_versions:
                findings.append(
                    Finding(
                        doc_label,
                        "unexpected-file",
                        backend.location(key),
                        f"{name} is not referenced by the metadata",
                        repairable=True,
                        scheme=scheme,
                        key=key,
                    )
                )
        return findings

    # -- snapshot checkpoints ------------------------------------------------
    # Checkpoints are extra starting points for materialize(), bounding
    # the delta walk for long histories.

    def _snapshot_key(self, doc_id: str, version: int) -> str:
        return self._doc_key(doc_id) + "/" + snapshot_name(version)

    def store_snapshot(self, doc_id, version, document):
        """Keep a full copy of one historical version."""
        meta = self._load_meta(doc_id)
        with self.backend.batch():
            digest = self.backend.put(
                self._snapshot_key(doc_id, version),
                serialize_bytes(document),
                label="snapshot",
            )
            manifest = self._load_manifest(doc_id)
            manifest.setdefault("files", {})[snapshot_name(version)] = digest
            self._store_manifest(doc_id, manifest)
            snapshots = dict(meta.get("snapshots", {}))
            snapshots[str(version)] = _collect_xids(document)
            self._store_meta(doc_id, dict(meta, snapshots=snapshots))

    def load_snapshot(self, doc_id, version):
        """A stored historical snapshot, or ``None``."""
        meta = self._load_meta(doc_id)
        labels = meta.get("snapshots", {}).get(str(version))
        if labels is None:
            return None
        return self._load_tree(
            self._snapshot_key(doc_id, version), meta, labels
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

        ``damaged`` is for repair only: the name of a stored copy known
        to be bad (``current.xml`` or ``snapshot-NNNN.xml``), which the
        walk must not start from because it is what is being rebuilt.

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
            if snapshot_name(checkpoint) != damaged
        ]
        if damaged != CURRENT_NAME:
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


#: The repository class under its interface name: annotations and
#: ``isinstance`` checks read ``Repository``.
Repository = BackendRepository


class DirectoryRepository(BackendRepository):
    """Filesystem-backed repository (one subdirectory per document).

    A :class:`BackendRepository` over a
    :class:`~repro.storage.filesystem.FilesystemBackend` — the classic,
    byte-identical on-disk layout every pre-protocol store used.

    Args:
        base_path: Root directory of the store (created if missing).
        tracer: See :class:`BackendRepository`.
        durability: ``"none"`` (default), ``"fsync"`` or ``"full"`` —
            how hard every write pushes toward stable storage (see
            :mod:`repro.storage.atomic`).
        faults: Optional :class:`repro.testing.faults.FaultInjector`
            threaded through every write (crash-matrix testing).
    """

    def __init__(self, base_path, tracer=None, *, durability="none", faults=None):
        backend = FilesystemBackend(
            base_path, durability=durability, faults=faults
        )
        self.base_path = backend.root
        super().__init__(backend, tracer=tracer)


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
) -> Repository:
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
            :class:`Repository` (returned unchanged — callers like
            ``fsck`` can be handed either).
        must_exist: Raise instead of creating a store that is not
            already on disk (``fsck`` never creates stores).
    """
    if isinstance(store, Repository):
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
        if must_exist and not os.path.isdir(path):
            raise RepositoryError(f"store {url!r} is not a directory")
        return DirectoryRepository(
            path, tracer, durability=durability, faults=faults
        )
    backend = open_backend(
        f"{scheme}://{path}", durability=durability, faults=faults
    )
    return BackendRepository(backend, tracer=tracer)


def _unreadable(
    doc_label: str,
    backend: StorageBackend,
    key: str,
    name: str,
    error: Optional[StorageError] = None,
) -> Finding:
    """The finding for a stored value that exists but cannot be read.

    No repair applies: fsck must not delete or overwrite what it could
    not read.
    """
    detail = f": {error}" if error is not None else " (not a regular value)"
    return Finding(
        doc_label,
        "unreadable-file",
        backend.location(key),
        f"{name} cannot be read{detail}",
        scheme=backend.scheme,
        key=key,
    )


def _digest_or_none(backend: StorageBackend, key: str) -> Optional[str]:
    try:
        return backend.digest(key)
    except FileNotFoundError:
        return None


def _collect_xids(document: Document) -> str:
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


def _restore_xids(document: Document, labels: Optional[str | list]) -> None:
    """Reattach the persisted postorder XID labels to a loaded snapshot.

    ``labels`` is the range notation :func:`_collect_xids` writes, or
    the plain JSON list of XIDs that stores written before it hold.
    """
    from repro.core.xid import DOCUMENT_XID, assign_initial_xids
    from repro.xmlkit.model import postorder

    if isinstance(labels, str):
        try:
            labels = parse_xid_map(labels)
        except DeltaError as exc:
            raise RepositoryError(
                f"stored XID labels are malformed: {exc}"
            ) from exc
    if labels:
        nodes = postorder(document)
        if len(labels) != len(nodes) - 1:
            raise RepositoryError("stored XID labels do not fit the snapshot")
        for node, xid in zip(nodes, labels):
            node.xid = int(xid)
        document.xid = DOCUMENT_XID
    else:
        assign_initial_xids(document)
