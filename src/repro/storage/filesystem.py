"""Filesystem backend: keys map 1:1 to files under the store root.

This is a behaviour-preserving wrap of the one-directory-per-document
layout file stores always used — the bytes it writes are
**identical** to the pre-protocol store, so
every existing store opens unchanged and ``fsck`` stays clean across
the refactor.  Atomicity comes from :func:`repro.storage.atomic.
atomic_write` (temp file + ``os.replace``); the temp files a crash can
leave behind surface through :meth:`FilesystemBackend.orphans`.

Errors: a missing key reads as :class:`FileNotFoundError`, as the
backend contract says.  Any other ``OSError`` of ``get``, ``put``,
``delete``, ``digest`` or ``size`` (a directory where a file belongs,
a permission or device error) is raised as one :class:`~repro.xmlkit
.errors.StorageError` naming the store, as the SQLite backend does:
an unreadable file is a damaged store, not an absent key.  A fault of
an attached injector passes through unchanged, on both backends.
"""

from __future__ import annotations

import functools
import os
import stat
from typing import Optional

from repro.storage.atomic import (
    atomic_write,
    fault_aware_unlink,
    is_temp_file,
    sha256_file,
)
from repro.storage.backend import StorageBackend, register_scheme
from repro.xmlkit.errors import StorageError

__all__ = ["FilesystemBackend"]


def _store_errors(method):
    """Raise an ``OSError`` of ``method`` as a :class:`StorageError`
    naming the store, unless it is a missing file or an injected
    fault."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except FileNotFoundError:
            raise
        except OSError as exc:
            # Imported on this path only: stores that never fail do not
            # load the fault injector.
            from repro.testing.faults import InjectedFault

            if isinstance(exc, InjectedFault):
                raise
            raise StorageError(f"store {self.url!r}: {exc}") from exc

    return wrapper


@register_scheme
class FilesystemBackend(StorageBackend):
    """One file per key under ``root`` (``file://PATH``)."""

    scheme = "file"

    def __init__(self, root, *, durability: str = "none", faults=None):
        super().__init__(root, durability=durability, faults=faults)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    @_store_errors
    def put(self, key: str, data: bytes, *, label: Optional[str] = None) -> None:
        path = self._path(key)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        atomic_write(
            path,
            data,
            durability=self.durability,
            faults=self.faults,
            label=label or os.path.basename(path),
        )

    @_store_errors
    def get(self, key: str) -> bytes:
        with open(self._path(key), "rb") as handle:
            return handle.read()

    @_store_errors
    def delete(self, key: str, *, label: Optional[str] = None) -> None:
        path = self._path(key)
        fault_aware_unlink(
            path,
            faults=self.faults,
            label=label or os.path.basename(path),
        )

    def list_keys(self, prefix: str = "") -> list[str]:
        # Everything up to the prefix's last "/" names a directory —
        # walk only that subtree, so per-document enumeration (fsck
        # verifying a 100k-document store) stays O(document), not
        # O(store).
        base = self.root
        head, _, _ = prefix.rpartition("/")
        if head:
            base = os.path.join(self.root, *head.split("/"))
            if not os.path.isdir(base):
                return []
        keys = []
        for directory, _, names in os.walk(base):
            for name in names:
                if is_temp_file(name):
                    continue
                path = os.path.join(directory, name)
                key = os.path.relpath(path, self.root).replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    @_store_errors
    def digest(self, key: str) -> str:
        return sha256_file(self._path(key))

    @_store_errors
    def size(self, key: str) -> int:
        path = self._path(key)
        status = os.stat(path)
        if not stat.S_ISREG(status.st_mode):
            raise IsADirectoryError(f"{path} is not a regular file")
        return status.st_size

    def location(self, key: str) -> str:
        return self._path(key)

    def orphans(self) -> list[str]:
        refs = []
        for directory, _, names in os.walk(self.root):
            for name in names:
                if is_temp_file(name):
                    path = os.path.join(directory, name)
                    refs.append(
                        os.path.relpath(path, self.root).replace(os.sep, "/")
                    )
        return sorted(refs)

    def sweep_orphan(self, ref: str) -> bool:
        try:
            os.unlink(self._path(ref))
        except OSError:
            return False
        return True
