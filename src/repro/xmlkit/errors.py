"""Exception hierarchy shared by the whole library.

All errors raised by :mod:`repro` derive from :class:`ReproError`, so callers
can catch one type when they only care about "something in this library went
wrong".  Each subsystem raises the most specific subclass it can.
"""

from __future__ import annotations

__all__ = [
    "ApplyError",
    "DeltaError",
    "DtdError",
    "PathError",
    "ReproError",
    "RepositoryError",
    "StorageError",
    "XmlParseError",
    "XmlSerializeError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class XmlParseError(ReproError):
    """Raised when a document cannot be parsed into the tree model.

    Carries the parser's best guess at a location so tooling can point
    at the offending input: :attr:`line` / :attr:`column` (1-based, when
    known), :attr:`source` (the file the text came from, when known) and
    :attr:`message` (the bare parser message without the location
    suffix).  :meth:`location` formats the conventional
    ``file:line:column: message`` one-liner compilers emit.
    """

    def __init__(self, message, line=None, column=None, source=None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message + location)
        self.message = message
        self.line = line
        self.column = column
        self.source = source

    def location(self) -> str:
        """``<file>:<line>:<col>: <message>`` with unknown parts omitted."""
        prefix = [str(self.source) if self.source else "<input>"]
        if self.line is not None:
            prefix.append(str(self.line))
            if self.column is not None:
                prefix.append(str(self.column))
        return ":".join(prefix) + f": {self.message}"


class XmlSerializeError(ReproError):
    """Raised when a tree contains content that cannot be serialized."""


class DtdError(ReproError):
    """Raised on malformed internal DTD subsets or declaration conflicts."""


class DeltaError(ReproError):
    """Raised when a delta is structurally invalid (bad XIDs, bad ops)."""


class ApplyError(DeltaError):
    """Raised when a structurally valid delta does not fit the document
    it is applied to (missing XID, position out of range, ...)."""


class PathError(ReproError):
    """Raised for unresolvable or syntactically invalid node paths."""


class RepositoryError(ReproError):
    """Raised by the versioned document repository on misuse or corruption."""


class StorageError(RepositoryError):
    """Raised when the storage backend itself fails (a locked, damaged
    or unreadable store), not because a request named an unknown
    document or version.  The fault lies with the store, so a server
    answers it with a 5xx and a scrubber reports it as a finding."""
