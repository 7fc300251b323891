"""Durable storage primitives shared by the persistence layer.

The version store's value proposition — any version is reconstructible
from the completed deltas — only holds if the bytes carrying those
deltas survive crashes.  Two layers provide that:

- :mod:`repro.storage.atomic` — the write discipline every file-based
  path uses: temp file + ``os.replace`` (readers never observe a
  half-written file) and optional ``fsync`` per a durability policy;
  also the SHA-256 helpers with which a head record later proves that
  the bytes on disk are the bytes that were committed.
- :mod:`repro.storage.backend` — the :class:`StorageBackend` protocol
  the repository commits through, with two conforming
  implementations: :class:`~repro.storage.filesystem.FilesystemBackend`
  (the classic directory layout, byte-identical with pre-protocol
  stores) and :class:`~repro.storage.sqlite_store.SQLiteBackend` (one
  WAL database file, transactional commits).  Backends are addressed
  by store URL (``file://``, ``sqlite://``) via :func:`open_backend`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DURABILITY_LEVELS",
    "STORE_SCHEMES",
    "FilesystemBackend",
    "SQLiteBackend",
    "StorageBackend",
    "atomic_write",
    "check_durability",
    "open_backend",
    "parse_store_url",
    "sha256_bytes",
    "sha256_file",
]

_getattr, __dir__ = lazy_exports(__name__, {
    "atomic": (
        "DURABILITY_LEVELS", "atomic_write",
        "check_durability", "sha256_bytes", "sha256_file",
    ),
    "backend": (
        "STORE_SCHEMES", "StorageBackend", "open_backend", "parse_store_url",
    ),
    "filesystem": ("FilesystemBackend",),
    "sqlite_store": ("SQLiteBackend",),
})


def __getattr__(name: str):
    # The scheme registry fills as backend modules import; read through
    # the package it lists the built-in two.
    if name == "STORE_SCHEMES":
        from repro.storage.backend import load_backends

        load_backends()
    return _getattr(name)
