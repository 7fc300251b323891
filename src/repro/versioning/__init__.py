"""Xyleme-style change control built on the diff (the paper's Figure 1).

- :mod:`repro.versioning.repository` — snapshot + delta-chain storage
  (in memory, or through any :class:`repro.storage.StorageBackend`).
- :mod:`repro.versioning.sharded` — the ``hash(doc_id) → shard``
  router and :func:`open_repository`, the store-URL front door.
- :mod:`repro.versioning.version_control` — commit pipeline, version
  reconstruction, cross-version aggregation.
- :mod:`repro.versioning.temporal` — querying the past via XIDs.
- :mod:`repro.versioning.alerter` — the subscription system.
- :mod:`repro.versioning.textindex` — delta-maintained full-text index.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Alert",
    "Alerter",
    "BackendRepository",
    "ChangeStatistics",
    "Conflict",
    "CorruptStoreError",
    "DirectoryRepository",
    "Finding",
    "FsckReport",
    "LoaderStats",
    "MergeResult",
    "WarehouseLoader",
    "fsck_store",
    "merge",
    "MemoryRepository",
    "NodeHistory",
    "RecoveryEvent",
    "Repository",
    "ShardedRepository",
    "SiteDelta",
    "SiteSnapshot",
    "Subscription",
    "diff_sites",
    "open_repository",
    "TemporalQueries",
    "TextIndex",
    "VersionEvent",
    "VersionStore",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "alerter": ("Alert", "Alerter", "Subscription"),
    "fsck": ("FsckReport", "fsck_store"),
    "loader": ("LoaderStats", "WarehouseLoader"),
    "merge": ("Conflict", "MergeResult", "merge"),
    "repository": (
        "BackendRepository", "CorruptStoreError", "DirectoryRepository",
        "Finding", "MemoryRepository", "RecoveryEvent", "Repository",
    ),
    "sharded": ("ShardedRepository", "open_repository"),
    "sitediff": ("SiteDelta", "SiteSnapshot", "diff_sites"),
    "statistics": ("ChangeStatistics",),
    "temporal": ("NodeHistory", "TemporalQueries", "VersionEvent"),
    "textindex": ("TextIndex",),
    "version_control": ("VersionStore",),
})
