"""Xyleme-style change control built on the diff (the paper's Figure 1).

- :mod:`repro.versioning.repository` — snapshot + delta-chain storage
  through any :class:`repro.storage.StorageBackend` (filesystem or
  SQLite, on disk or in memory),
  and :func:`open_repository`, the store-URL front door.
- :mod:`repro.versioning.version_control` — the one commit path
  (:class:`VersionStore`), version reconstruction, cross-version
  aggregation.
- :mod:`repro.versioning.alerter` — the subscription system, driven
  through ``VersionStore(on_commit=...)``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Alert",
    "Alerter",
    "BackendRepository",
    "Conflict",
    "CorruptStoreError",
    "DirectoryRepository",
    "Finding",
    "FsckReport",
    "MergeResult",
    "fsck_store",
    "merge",
    "RecoveryEvent",
    "Repository",
    "SiteDelta",
    "SiteSnapshot",
    "Subscription",
    "diff_sites",
    "open_repository",
    "VersionStore",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "alerter": ("Alert", "Alerter", "Subscription"),
    "fsck": ("FsckReport", "fsck_store"),
    "merge": ("Conflict", "MergeResult", "merge"),
    "repository": (
        "BackendRepository", "CorruptStoreError", "DirectoryRepository",
        "Finding", "RecoveryEvent", "Repository",
        "open_repository",
    ),
    "sitediff": ("SiteDelta", "SiteSnapshot", "diff_sites"),
    "version_control": ("VersionStore",),
})
