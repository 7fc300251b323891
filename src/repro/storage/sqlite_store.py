"""SQLite backend: the whole store in one database file.

Keys live in a single ``kv`` table; the database runs in WAL mode so
readers never block the writer.  Writes are transactional, which makes
the repository's journal protocol *stronger* here than on a
filesystem: :meth:`SQLiteBackend.batch` wraps a whole commit in one
``BEGIN IMMEDIATE`` transaction, so a crash at any interior write
point rolls the entire commit back natively instead of relying on
journal replay.

The durability policy maps onto ``PRAGMA synchronous``: ``"none"`` is
``OFF`` (fast, an OS crash may lose the tail), ``"fsync"`` is
``NORMAL`` and ``"full"`` is ``FULL``.

Fault injection: a **torn** write cannot happen inside an intact
SQLite transaction, so the injected tear models the crash *flushing*
the transaction with a corrupted page — the half payload is committed
along with every write that preceded it in the open batch.  That keeps
the recovery semantics aligned with the filesystem backend: the
journal record (written first) survives, and reopening the store rolls
the commit forward or back exactly as it would on disk.

Errors: a ``sqlite3.Error`` from opening the store, or from any read,
write or transaction of an open one (a dropped table, a locked or
damaged file), is raised as one :class:`~repro.xmlkit.errors
.StorageError` naming the store URL.  It is a ``RepositoryError`` that
callers keep apart from an unknown document: the store is at fault,
not the request.
"""

from __future__ import annotations

import functools
import os
import sqlite3
from typing import Optional

from repro.storage.backend import StorageBackend, register_scheme
from repro.xmlkit.errors import StorageError

__all__ = ["SQLiteBackend"]

_SYNCHRONOUS = {"none": "OFF", "fsync": "NORMAL", "full": "FULL"}


def _store_errors(method):
    """Turn a ``sqlite3.Error`` raised by an open store's ``method`` into
    one caller-facing :class:`StorageError` naming the store URL."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except sqlite3.Error as exc:
            raise StorageError(f"store {self.url!r}: {exc}") from exc

    return wrapper


@register_scheme
class SQLiteBackend(StorageBackend):
    """All keys in one SQLite database file (``sqlite://PATH``)."""

    scheme = "sqlite"

    def __init__(self, root, *, durability: str = "none", faults=None):
        super().__init__(root, durability=durability, faults=faults)
        parent = os.path.dirname(self.root)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # isolation_level=None: autocommit, with explicit BEGIN for
        # batch() — the stdlib's implicit transaction management would
        # fight the protocol's write ordering.
        self._conn = None
        try:
            self._conn = sqlite3.connect(
                self.root, isolation_level=None, check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                f"PRAGMA synchronous={_SYNCHRONOUS[self.durability]}"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS kv ("
                "key TEXT PRIMARY KEY, data BLOB NOT NULL)"
            )
        except sqlite3.Error as exc:
            # A directory, or a file that is not a database: one
            # caller-facing error, not a driver traceback.
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            raise StorageError(
                f"cannot open store {self.url!r}: {exc}"
            ) from exc
        self._in_batch = False

    # -- primitives ----------------------------------------------------------

    def _upsert(self, key: str, data: bytes) -> None:
        self._conn.execute(
            "INSERT INTO kv(key, data) VALUES(?, ?) "
            "ON CONFLICT(key) DO UPDATE SET data=excluded.data",
            (key, sqlite3.Binary(data)),
        )

    @_store_errors
    def put(self, key: str, data: bytes, *, label: Optional[str] = None) -> None:
        if self.faults is not None:

            def tear(half: bytes) -> None:
                # Commit the transaction so far *plus* the torn row —
                # the "crash flushed a corrupt page" shape (see the
                # module docstring).
                self._upsert(key, half)
                self._commit_if_open()

            self.faults.on_write(
                label or key.rsplit("/", 1)[-1],
                self.location(key),
                data,
                tear=tear,
            )
        self._upsert(key, data)
        if not self._in_batch:
            self._commit_if_open()

    @_store_errors
    def get(self, key: str) -> bytes:
        row = self._conn.execute(
            "SELECT data FROM kv WHERE key=?", (key,)
        ).fetchone()
        if row is None:
            raise FileNotFoundError(key)
        return bytes(row[0])

    @_store_errors
    def delete(self, key: str, *, label: Optional[str] = None) -> None:
        if self.faults is not None:
            self.faults.on_unlink(
                label or key.rsplit("/", 1)[-1], self.location(key)
            )
        self._conn.execute("DELETE FROM kv WHERE key=?", (key,))
        if not self._in_batch:
            self._commit_if_open()

    @_store_errors
    def list_keys(self, prefix: str = "") -> list[str]:
        if not prefix:
            rows = self._conn.execute("SELECT key FROM kv ORDER BY key")
            return [key for (key,) in rows]
        # Range scan on the primary key: LIKE would need escaping (keys
        # contain "_" from doc-id sanitising) and forfeit the index.
        # U+10FFFF sorts above every other scalar in BINARY collation.
        rows = self._conn.execute(
            "SELECT key FROM kv WHERE key >= ? AND key < ? ORDER BY key",
            (prefix, prefix + "\U0010ffff"),
        )
        return [key for (key,) in rows]

    @_store_errors
    def exists(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM kv WHERE key=?", (key,)
        ).fetchone()
        return row is not None

    @_store_errors
    def size(self, key: str) -> int:
        row = self._conn.execute(
            "SELECT length(data) FROM kv WHERE key=?", (key,)
        ).fetchone()
        if row is None:
            raise FileNotFoundError(key)
        return int(row[0])

    # -- transactions --------------------------------------------------------

    def batch(self):
        return _SQLiteBatch(self)

    @_store_errors
    def _begin(self) -> None:
        self._conn.execute("BEGIN IMMEDIATE")

    @_store_errors
    def _commit_if_open(self) -> None:
        if self._conn.in_transaction:
            self._conn.commit()

    @_store_errors
    def _rollback_if_open(self) -> None:
        if self._conn.in_transaction:
            self._conn.rollback()

    def close(self) -> None:
        if self._conn is not None:
            self._rollback_if_open()
            self._conn.close()
            self._conn = None


class _SQLiteBatch:
    def __init__(self, backend: SQLiteBackend):
        self._backend = backend

    def __enter__(self):
        backend = self._backend
        if not backend._in_batch:
            backend._begin()
            backend._in_batch = True
            self._outermost = True
        else:
            self._outermost = False
        return self

    def __exit__(self, exc_type, exc, tb):
        backend = self._backend
        if self._outermost:
            backend._in_batch = False
            if exc_type is None:
                backend._commit_if_open()
            else:
                # An injected tear already committed; rolling back a
                # closed transaction is a no-op.
                backend._rollback_if_open()
        return False
