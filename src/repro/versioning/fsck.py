"""Store checking and repair (the ``xydiff fsck`` subcommand).

``fsck_store`` audits any repository reachable through a store URL
(``file://``, ``sqlite://`` — see
:func:`repro.versioning.repository.open_repository`) — opening it first
runs journal recovery for torn commits — then verifies the stored
values against the checksums in each document's head (``meta.json``)
and, with ``repair=True``, applies the deterministic fixes:

- **orphan temp files / unexpected files** (a ``manifest.json`` left
  beside a head that holds the checksums among them) are removed
  (they are invisible to every read path: the head never references
  them);
- a **half-created document** (a prefix with neither a head nor a
  journal, which a crashed create left before creates were journaled)
  is removed;
- **missing checksums** (``missing-manifest``: a head with none and no
  readable ``manifest.json``; ``missing-checksum``: a delta the head
  does not list) are recomputed from the stored values into the head
  (trust-on-first-hash, the only option for stores older than
  checksums), through the same journaled write as a commit, so a crash
  mid-repair recovers like a crashed commit;
- a **damaged ``current.xml`` or checkpoint snapshot** is re-derived
  with :meth:`~repro.versioning.repository.BackendRepository.rederive`
  from the nearest *other* stored state, either direction: a
  checkpoint below replays the delta chain forward, ``current.xml`` or
  a checkpoint above replays it backward (completed deltas invert for
  free) — the recovery move the paper's completed deltas are designed
  for.

A replay only counts as a repair when the reconstructed bytes match
the head's recorded SHA-256 — a repair can never silently
substitute different content.  Damaged delta files and metadata are
reported but not repaired: their content exists nowhere else.

Every finding carries the backend scheme it came from.

Metrics (``metrics=``): ``repro_fsck_documents_total``,
``repro_fsck_findings_total{kind=...}``,
``repro_fsck_repairs_total{kind=...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.versioning import layout
from repro.versioning.repository import (
    BackendRepository,
    Finding,
    RecoveryEvent,
    open_repository,
)
from repro.xmlkit.errors import ReproError

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
            :class:`~repro.versioning.repository.BackendRepository`.  Must
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
    """Apply the fix for one repairable finding; True on success."""
    try:
        backend = repo.backend
        if finding.kind == "orphan-temp":
            return backend.sweep_orphan(finding.key)
        if finding.kind == "unexpected-file":
            backend.delete(finding.key)
            return True
        if finding.kind == "incomplete-document":
            for key in layout.doc_keys(backend, finding.key):
                backend.delete(key)
            return True
        if finding.kind in ("missing-manifest", "missing-checksum"):
            return _rehash(repo, finding)
        if finding.kind in ("checksum-mismatch", "missing-file"):
            return repo.rederive(finding.key)
        return False
    except (ReproError, OSError):
        return False


def _rehash(repo: BackendRepository, finding: Finding) -> bool:
    """Record stored values' SHA-256 in the head: the one value a
    ``missing-checksum`` finding names, or, for a head without readable
    checksums, every value it describes (trust-on-first-hash)."""
    backend = repo.backend
    prefix, name = layout.split_key(finding.key)
    head = layout.get_record(backend, prefix, "meta")
    if finding.kind == "missing-checksum":
        files = dict(layout.checksums(backend, prefix, head))
        names = [name]
    else:
        files = {}
        names = [
            layout.split_key(key)[1] for key in layout.doc_keys(backend, prefix)
        ]
    for name in names:
        if layout.checksummed(name, head):
            files[name] = backend.digest(layout.join(prefix, name))
    repo.set_checksums(str(head.get("doc_id", prefix)), files)
    return True
