"""The storage protocol every repository backend implements.

A :class:`StorageBackend` is a flat, durable key/value namespace.  Keys
are POSIX-style relative paths (``"doc-1/current.xml"``); values are the
exact bytes a repository committed.  The contract every backend must
honour (and :mod:`tests.storage.test_backend_contract` proves):

- :meth:`~StorageBackend.put` is **atomic**: a reader — including one
  in a process that crashed mid-write and restarted — observes either
  the previous value or the new value, never a torn mixture (fault
  injection deliberately violates this to exercise recovery).
- Writes respect the backend's ``durability`` policy
  (:data:`repro.storage.atomic.DURABILITY_LEVELS`).
- Every mutation consults the backend's ``faults`` injector first, so
  the crash matrix of :mod:`repro.versioning.repository` runs unchanged
  against any backend.
- :meth:`~StorageBackend.batch` opens a transactional scope where the
  backend *may* make the enclosed writes all-or-nothing (SQLite does;
  the filesystem backend falls back to the journal protocol layered
  above it).

Store URLs
----------
Backends are addressed by URL: ``file://PATH`` (directory layout,
byte-identical with the pre-protocol store) and ``sqlite://PATH`` (one
database file).  :func:`open_backend` resolves a URL — or a bare
filesystem path, whose backend is sniffed from what is on disk — to a
backend instance.  A store URL takes no query parameters.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

from repro.storage.atomic import check_durability, sha256_bytes

__all__ = [
    "STORE_SCHEMES",
    "StorageBackend",
    "open_backend",
    "parse_store_url",
]


class StorageBackend:
    """Abstract durable key/value namespace (see the module docstring).

    Attributes:
        scheme: URL scheme of the backend class (``"file"``, ...).
        root: Filesystem anchor of the store (directory or file path).
        durability: Current write policy (mutable).
        faults: Optional :class:`repro.testing.faults.FaultInjector`
            consulted before every mutation (mutable; the crash-matrix
            tests re-arm it between operations).
    """

    scheme = "?"

    def __init__(self, root, *, durability: str = "none", faults=None):
        self.root = os.fspath(root)
        self.durability = check_durability(durability)
        self.faults = faults

    # -- required primitives -------------------------------------------------

    def put(self, key: str, data: bytes, *, label: Optional[str] = None) -> str:
        """Atomically create or overwrite ``key``; returns the hex SHA-256."""
        raise NotImplementedError

    def get(self, key: str) -> bytes:
        """The stored bytes; raises :class:`FileNotFoundError` if absent."""
        raise NotImplementedError

    def delete(self, key: str, *, label: Optional[str] = None) -> None:
        """Remove ``key``; idempotent (missing keys are ignored)."""
        raise NotImplementedError

    def list_keys(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""
        raise NotImplementedError

    # -- derived operations (override when the backend has a faster way) -----

    def replace(self, key: str, data: bytes, *, label: Optional[str] = None) -> str:
        """Overwrite an *existing* key; raises if it does not exist."""
        if not self.exists(key):
            raise FileNotFoundError(key)
        return self.put(key, data, label=label)

    def exists(self, key: str) -> bool:
        try:
            self.get(key)
        except FileNotFoundError:
            return False
        return True

    def digest(self, key: str) -> str:
        """Hex SHA-256 of the stored bytes (recomputed, never trusted)."""
        return sha256_bytes(self.get(key))

    def size(self, key: str) -> int:
        """Stored size of ``key`` in bytes; raises
        :class:`FileNotFoundError` if absent.  Backends override this
        with a stat/length query so store-wide accounting
        (:mod:`repro.obs.storewatch`) never reads the values."""
        return len(self.get(key))

    def put_json(
        self,
        key: str,
        payload,
        *,
        label: Optional[str] = None,
        compact: bool = False,
    ) -> str:
        """Store ``payload`` as stable, sorted JSON (the metadata format).

        The default indents by two spaces.  ``compact`` writes no
        whitespace at all, which ``json`` encodes with its C encoder:
        the indenting encoder is pure Python, and its closures leave
        reference cycles behind on every call.  Readers accept either.
        """
        if compact:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        else:
            text = json.dumps(payload, indent=2, sort_keys=True)
        return self.put(key, (text + "\n").encode("utf-8"), label=label)

    def batch(self):
        """Transactional scope; the default is a no-op context manager."""
        return _NullBatch()

    def location(self, key: str) -> str:
        """Human-readable pointer at a key (for findings and errors)."""
        return f"{self.url}::{key}"

    def orphans(self) -> list[str]:
        """References to stored garbage no key accounts for (leftover
        temp files).  Sweep one with :meth:`sweep_orphan`."""
        return []

    def sweep_orphan(self, ref: str) -> bool:
        """Remove one entry of :meth:`orphans`; True on success."""
        return False

    def close(self) -> None:
        """Release resources (connections, handles); idempotent."""

    @property
    def url(self) -> str:
        return f"{self.scheme}://{self.root}"

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class _NullBatch:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


# ---------------------------------------------------------------------------
# store URLs
# ---------------------------------------------------------------------------

#: scheme -> backend class; populated by the backend modules on import.
#: :func:`load_backends` imports the built-in two.
STORE_SCHEMES: dict[str, type] = {}


def load_backends() -> dict[str, type]:
    """:data:`STORE_SCHEMES` with the built-in backends registered.

    Importing the backend modules here, not at module level, keeps
    callers that never open a store from paying for them.
    """
    import repro.storage.filesystem  # noqa: F401  (registers "file")
    import repro.storage.sqlite_store  # noqa: F401  (registers "sqlite")

    return STORE_SCHEMES


def register_scheme(cls) -> type:
    STORE_SCHEMES[cls.scheme] = cls
    return cls


def parse_store_url(url) -> tuple[Optional[str], str]:
    """``"scheme://path"`` -> ``(scheme, path)``.

    A bare filesystem path parses as ``(None, path)`` — the caller
    sniffs the backend from what is on disk.

    Raises:
        RepositoryError: the URL has an empty path or a query string.
    """
    url = os.fspath(url)
    if "://" not in url:
        return None, url
    scheme, _, path = url.partition("://")
    if "?" in path or not path:
        from repro.xmlkit.errors import RepositoryError

        problem = "takes no query parameters" if path else "has an empty path"
        raise RepositoryError(f"store URL {url!r} {problem}")
    return scheme, path


def sniff_scheme(path) -> str:
    """Backend scheme of an on-disk store at a bare path.

    - a file (or a ``.sqlite``/``.db`` name) is a SQLite store;
    - anything else is the plain directory layout.
    """
    path = os.fspath(path)
    if os.path.isfile(path) or path.endswith((".sqlite", ".db")):
        return "sqlite"
    return "file"


def open_backend(url, *, durability: str = "none", faults=None) -> StorageBackend:
    """Resolve a store URL (or bare path) to a backend instance."""
    schemes = load_backends()
    scheme, path = parse_store_url(url)
    if scheme is None:
        scheme = sniff_scheme(path)
    try:
        backend_class = schemes[scheme]
    except KeyError:
        from repro.xmlkit.errors import RepositoryError

        raise RepositoryError(
            f"unknown store scheme {scheme!r}; "
            f"expected one of {sorted(STORE_SCHEMES)}"
        ) from None
    return backend_class(path, durability=durability, faults=faults)
