"""Atomic file writes under a durability policy, and SHA-256 helpers.

Every write goes to a hidden temp file in the *same directory* as the
target and is published with ``os.replace`` — on POSIX a reader (or a
process that crashed mid-write and restarted) sees either the old file
or the new file, never a torn mixture.  What a crash *can* leave behind
is the temp file itself; temp names follow a fixed pattern
(:func:`is_temp_file`) so recovery and ``fsck`` can sweep them.

Durability levels (the ``durability=`` policy):

- ``"none"`` (default) — atomic replace only.  Survives process
  crashes; an OS crash may lose the very last writes.  This is the
  benchmark configuration.
- ``"fsync"`` — additionally ``fsync`` the temp file before the
  replace, so the *content* is on stable storage when the new name
  appears.
- ``"full"`` — additionally ``fsync`` the containing directory after
  the replace, so the *rename itself* is on stable storage.

Fault injection: callers may pass a
:class:`repro.testing.faults.FaultInjector` (or anything with the same
``on_write``/``on_unlink`` hooks); the hook runs before any bytes are
written, which is where crashes, EIO and torn writes are simulated.
"""

from __future__ import annotations

import hashlib
import os
import uuid

__all__ = [
    "DURABILITY_LEVELS",
    "atomic_write",
    "check_durability",
    "fault_aware_unlink",
    "is_temp_file",
    "sha256_bytes",
    "sha256_file",
]

#: Valid ``durability=`` policy values, weakest first.
DURABILITY_LEVELS = ("none", "fsync", "full")

_TEMP_SUFFIX = ".tmp"


def check_durability(durability: str) -> str:
    """Validate a durability policy value and return it."""
    if durability not in DURABILITY_LEVELS:
        raise ValueError(
            f"unknown durability {durability!r}; "
            f"expected one of {DURABILITY_LEVELS}"
        )
    return durability


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 of a byte string."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    """Hex SHA-256 of a file's contents, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def is_temp_file(name: str) -> bool:
    """Whether a file name matches the atomic-write temp pattern."""
    return name.startswith(".") and name.endswith(_TEMP_SUFFIX)


def _fsync_directory(directory: str) -> None:
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:  # pragma: no cover - platform without dir fsync
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(
    path,
    data: bytes,
    *,
    durability: str = "none",
    faults=None,
    label: str | None = None,
) -> None:
    """Atomically replace ``path`` with ``data``.

    Args:
        path: Target file path.
        data: The complete new contents.
        durability: One of :data:`DURABILITY_LEVELS`.
        faults: Optional fault injector consulted before writing.
        label: Name of this write point for fault targeting (defaults
            to the file's base name).
    """
    check_durability(durability)
    path = os.fspath(path)
    if faults is not None:
        faults.on_write(label or os.path.basename(path), path, data)
    directory = os.path.dirname(path) or "."
    temp_path = os.path.join(
        directory,
        f".{os.path.basename(path)}.{uuid.uuid4().hex[:8]}{_TEMP_SUFFIX}",
    )
    try:
        with open(temp_path, "wb") as handle:
            handle.write(data)
            if durability != "none":
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    if durability == "full":
        _fsync_directory(directory)


def fault_aware_unlink(path, *, faults=None, label: str | None = None) -> None:
    """Remove a file, consulting the fault injector first.

    Missing files are ignored — unlink is used for cleanup steps
    (journal removal, temp sweeping) that must be idempotent.
    """
    path = os.fspath(path)
    if faults is not None:
        faults.on_unlink(label or os.path.basename(path), path)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
