"""Store checking and repair (the ``xydiff fsck`` subcommand).

``fsck_store`` audits any repository reachable through a store URL
(``file://``, ``sqlite://`` — see
:func:`repro.versioning.repository.open_repository`) — opening it first
runs journal recovery for torn commits — then verifies checksums
against each document's ``manifest.json`` record and, with
``repair=True``, applies the deterministic fixes:

- **orphan temp files / unexpected files**
  are removed (they are invisible to every read path: the metadata
  never references them);
- a **half-created document** (a prefix without metadata, left by a
  crash before the first commit completed) is removed;
- a **missing or unreadable manifest** is rebuilt from the stored
  values (trust-on-first-hash, the only option for legacy stores);
- a **damaged ``current.xml`` or checkpoint snapshot** is re-derived
  with :meth:`~repro.versioning.repository.Repository.materialize`
  from the nearest *other* stored state, either direction: a
  checkpoint below replays the delta chain forward, ``current.xml`` or
  a checkpoint above replays it backward (completed deltas invert for
  free) — the recovery move the paper's completed deltas are designed
  for.

A replay only counts as a repair when the reconstructed bytes match
the manifest's recorded SHA-256 — a repair can never silently
substitute different content.  Damaged delta files and metadata are
reported but not repaired: their content exists nowhere else.

Every finding carries the backend scheme it came from.

Metrics (``metrics=``): ``repro_fsck_documents_total``,
``repro_fsck_findings_total{kind=...}``,
``repro_fsck_repairs_total{kind=...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.atomic import sha256_bytes
from repro.versioning.repository import (
    CURRENT_NAME,
    MANIFEST_NAME,
    META_NAME,
    BackendRepository,
    Finding,
    RecoveryEvent,
    _DELTA_FILE_RE,
    _SNAPSHOT_FILE_RE,
    open_repository,
)
from repro.xmlkit.errors import ReproError
from repro.xmlkit.serializer import serialize_bytes

__all__ = ["FsckReport", "fsck_store"]


@dataclass
class FsckReport:
    """Outcome of one ``fsck`` run.

    Attributes:
        documents: Number of document slots checked.
        recovery_events: Torn commits resolved while opening the store.
        findings: Problems found by verification (pre-repair).
        repaired: The subset of ``findings`` that was fixed.
        unrepaired: The subset still present after the run.
    """

    documents: int = 0
    recovery_events: list[RecoveryEvent] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    repaired: list[Finding] = field(default_factory=list)
    unrepaired: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was found and nothing needed recovery."""
        return not self.findings and not self.recovery_events

    def exit_code(self) -> int:
        """0 = clean, 1 = problems found but all resolved, 2 = problems
        remain (run again with ``repair=True``, or the damage is
        unrepairable)."""
        if self.unrepaired:
            return 2
        return 0 if self.clean else 1


def fsck_store(
    store,
    *,
    repair: bool = False,
    durability: str = "none",
    metrics=None,
) -> FsckReport:
    """Check (and optionally repair) a version store.

    Args:
        store: Store URL, bare path, or an open
            :class:`~repro.versioning.repository.Repository`.  Must
            exist — fsck never creates a store.
        repair: Apply the deterministic fixes described in the module
            docstring.
        durability: Write policy for repairs.
        metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`.

    Raises:
        RepositoryError: when the store does not exist.
    """
    repo = open_repository(store, durability=durability, must_exist=True)
    report = FsckReport(recovery_events=list(repo.recovery_events))
    report.documents = repo.document_count()
    report.findings = repo.verify()
    if repair:
        for finding in report.findings:
            if finding.repairable and _repair(repo, finding):
                report.repaired.append(finding)
            else:
                report.unrepaired.append(finding)
    else:
        report.unrepaired = list(report.findings)
    if metrics is not None:
        registry_documents = metrics.counter(
            "repro_fsck_documents_total",
            help="Documents checked by fsck.",
        )
        registry_findings = metrics.counter(
            "repro_fsck_findings_total",
            help="Problems found by fsck, by kind.",
        )
        registry_repairs = metrics.counter(
            "repro_fsck_repairs_total",
            help="Problems repaired by fsck, by kind.",
        )
        if report.documents:
            registry_documents.inc(report.documents)
        for finding in report.findings:
            registry_findings.inc(kind=finding.kind)
        for finding in report.repaired:
            registry_repairs.inc(kind=finding.kind)
    return report


def _repair(repo: BackendRepository, finding: Finding) -> bool:
    """Apply the fix for one finding; True on success."""
    try:
        backend = repo.backend
        if finding.kind == "orphan-temp":
            return backend.sweep_orphan(finding.key)
        if finding.kind == "unexpected-file":
            backend.delete(finding.key)
            return True
        if finding.kind == "incomplete-document":
            for key in backend.list_keys(finding.key + "/"):
                backend.delete(key)
            return True
        prefix = finding.key.split("/", 1)[0]
        if finding.kind == "missing-manifest":
            return _rebuild_manifest(repo, prefix)
        if finding.kind == "missing-checksum":
            return _record_checksum(repo, finding.key)
        if finding.kind in ("checksum-mismatch", "missing-file"):
            name = finding.key.rsplit("/", 1)[-1]
            if name == CURRENT_NAME or _SNAPSHOT_FILE_RE.match(name):
                return _rederive(repo, prefix, name)
        return False
    except (ReproError, OSError):
        return False


def _read_meta(repo: BackendRepository, prefix: str) -> dict:
    return repo._read_json(prefix + "/" + META_NAME, "metadata")


def _rebuild_manifest(repo: BackendRepository, prefix: str) -> bool:
    """Recompute every checksum from the stored values."""
    meta = _read_meta(repo, prefix)
    current_version = int(meta.get("current_version", 1))
    snapshot_versions = {int(v) for v in meta.get("snapshots", {})}
    files: dict[str, str] = {}
    for key in repo.backend.list_keys(prefix + "/"):
        name = key[len(prefix) + 1 :]
        delta_match = _DELTA_FILE_RE.match(name)
        snapshot_match = _SNAPSHOT_FILE_RE.match(name)
        if name == CURRENT_NAME:
            files[name] = repo.backend.digest(key)
        elif delta_match and 1 <= int(delta_match.group(1)) < current_version:
            files[name] = repo.backend.digest(key)
        elif snapshot_match and int(snapshot_match.group(1)) in snapshot_versions:
            files[name] = repo.backend.digest(key)
    repo.backend.put_json(
        prefix + "/" + MANIFEST_NAME,
        {"algorithm": "sha256", "files": files},
    )
    return True


def _record_checksum(repo: BackendRepository, key: str) -> bool:
    prefix, name = key.rsplit("/", 1)
    manifest = repo._read_json(prefix + "/" + MANIFEST_NAME, "manifest")
    manifest.setdefault("files", {})[name] = repo.backend.digest(key)
    repo.backend.put_json(prefix + "/" + MANIFEST_NAME, manifest)
    return True


def _rederive(repo: BackendRepository, prefix: str, name: str) -> bool:
    """Rebuild the damaged ``current.xml`` or checkpoint ``name``.

    :meth:`~repro.versioning.repository.Repository.materialize` walks
    from the nearest *other* stored state, so the damaged copy is never
    its own source.  The result only replaces it when its SHA-256
    matches the manifest's record.
    """
    meta = _read_meta(repo, prefix)
    doc_id = str(meta.get("doc_id", prefix))
    snapshot = _SNAPSHOT_FILE_RE.match(name)
    version = (
        int(snapshot.group(1))
        if snapshot
        else int(meta.get("current_version", 1))
    )
    manifest = repo._read_json(prefix + "/" + MANIFEST_NAME, "manifest")
    expected = manifest.get("files", {}).get(name)
    data = serialize_bytes(repo.materialize(doc_id, version, damaged=name))
    if expected is not None and sha256_bytes(data) != expected:
        return False
    repo.backend.put(prefix + "/" + name, data)
    return True
