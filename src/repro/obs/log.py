"""Structured event log: ring-buffered JSONL, schema ``repro.log/1``.

Spans answer *how long*, metrics answer *how many* — the event log
answers **what happened, in order, to which request**.  Every record is
one JSON object with a fixed envelope::

    {"schema": "repro.log/1", "ts": 1700000000.123456,
     "level": "info", "event": "server.complete",
     "request_id": "9f2c...", "route": "commit", "duration_ms": 12.4}

``request_id`` / ``span_id`` are attached automatically from the
active :class:`repro.obs.context.RequestContext` — an emitter never
threads the id by hand, which is exactly what makes the log
correlatable with traces and responses.

Event names come from :data:`EVENT_CATALOG` — emitting an unknown name
raises, so the catalogue in ``docs/observability.md`` (drift-checked
by ``tools/check_docs.py``) can never silently diverge from the code.

The logger keeps the newest ``capacity`` records in a ring
(``GET /logz`` tails it) and optionally mirrors every record to a
JSONL sink (``xydiff serve --log-out``).  It is thread-safe: the
server emits from the event loop, worker threads, and client threads
concurrently.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from typing import IO

from repro.obs.context import current_context

__all__ = [
    "EVENT_CATALOG",
    "EventLogger",
    "LEVELS",
    "SCHEMA",
]

#: Schema identifier stamped on every record.
SCHEMA = "repro.log/1"

#: Severity levels, numeric order = filtering order.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: The emitter registry: every event name the codebase may emit, with
#: its meaning.  ``docs/observability.md`` carries the same table and
#: ``tools/check_docs.py`` diffs the two in both directions.
EVENT_CATALOG = {
    "server.accept": (
        "a request was parsed and routed (fields: route, method, path)"
    ),
    "server.dispatch": (
        "a pooled job was submitted to the worker pool (fields: route, "
        "label)"
    ),
    "server.complete": (
        "a response was written (fields: route, status, duration_ms)"
    ),
    "server.shed": (
        "a request was rejected with 429 because the pool queue was "
        "full (fields: route, queue_depth)"
    ),
    "server.expire": (
        "a request's deadline budget ran out — the 504s (fields: "
        "route, stage)"
    ),
    "server.replay": (
        "an idempotent commit was answered from a recorded response "
        "instead of re-executing (fields: store, doc_id, source)"
    ),
    "server.trace-dropped": (
        "a sampled request's span tree could not be closed or written, "
        "so its trace was dropped; the response is unaffected "
        "(fields: error)"
    ),
    "pool.batch-start": (
        "a worker batch left the queue for an executor thread "
        "(fields: size)"
    ),
    "pool.batch-end": (
        "a worker batch finished executing (fields: size, duration_ms)"
    ),
    "repo.create": (
        "a document's first version was stored (fields: store, "
        "doc_id)"
    ),
    "repo.commit": (
        "a new version was committed to a store (fields: store, "
        "doc_id, version, duration_ms)"
    ),
    "repo.recover": (
        "opening a store resolved a journaled commit left by a crash "
        "(fields: store, action, detail)"
    ),
    "scrub.start": (
        "a background scrub tick began walking documents (fields: "
        "batch, stores)"
    ),
    "scrub.finding": (
        "the scrubber saw a verification finding — corruption, a torn "
        "commit, or an I/O error mid-verify (fields: store, doc_id, "
        "kind, path)"
    ),
    "scrub.done": (
        "a background scrub tick finished (fields: docs, findings, "
        "duration_ms)"
    ),
    "store.stats": (
        "a store-health report was collected for /statz (fields: "
        "store, documents, versions, bytes_total)"
    ),
    "client.request": (
        "one logical DiffClient request finished, successfully or not "
        "(fields: method, path, status, attempts)"
    ),
    "client.retry": (
        "the client is about to back off and retry (fields: reason, "
        "attempt, path)"
    ),
    "client.breaker": (
        "the client circuit breaker changed state (fields: from, to)"
    ),
}


class EventLogger:
    """Bounded in-memory event ring with an optional JSONL sink.

    Args:
        capacity: Newest records kept for :meth:`tail`.
        level: Minimum severity recorded (``LEVELS`` key).
        stream: Optional text stream every record is also written to
            (one JSON object per line, flushed per record).
        path: Convenience alternative to ``stream`` — the file is
            opened for append and owned by the logger
            (:meth:`close` closes it).
        clock: Injectable time source (seconds since epoch).
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        level: str = "info",
        stream: IO[str] | None = None,
        path: str | None = None,
        clock=time.time,
    ):
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; expected one of "
                f"{sorted(LEVELS)}"
            )
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if stream is not None and path is not None:
            raise ValueError("pass stream= or path=, not both")
        self._threshold = LEVELS[level]
        self.level = level
        self._ring: collections.deque[dict] = collections.deque(
            maxlen=capacity
        )
        self._lock = threading.Lock()
        self._clock = clock
        self._owned = None
        if path is not None:
            self._owned = open(path, "a", encoding="utf-8")
            stream = self._owned
        self._stream = stream

    def enabled_for(self, level: str) -> bool:
        return LEVELS[level] >= self._threshold

    def emit(self, event: str, level: str = "info", **fields) -> dict | None:
        """Record one event; returns the record, or ``None`` if filtered.

        ``None``-valued fields are dropped; ``request_id`` / ``span_id``
        default to the active :class:`RequestContext`.
        """
        if event not in EVENT_CATALOG:
            raise ValueError(
                f"unknown event {event!r}: add it to "
                "repro.obs.log.EVENT_CATALOG (and the docs catalogue) "
                "before emitting it"
            )
        if LEVELS[level] < self._threshold:
            return None
        record = {
            "schema": SCHEMA,
            "ts": round(self._clock(), 6),
            "level": level,
            "event": event,
        }
        context = current_context()
        if context is not None:
            record["request_id"] = context.request_id
            if context.span_id is not None:
                record["span_id"] = context.span_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        with self._lock:
            self._ring.append(record)
            if self._stream is not None:
                self._stream.write(json.dumps(record, sort_keys=True) + "\n")
                self._stream.flush()
        return record

    def tail(
        self,
        limit: int | None = None,
        *,
        request_id: str | None = None,
        event: str | None = None,
    ) -> list[dict]:
        """The newest matching records, oldest first."""
        with self._lock:
            records = list(self._ring)
        if request_id is not None:
            records = [
                record
                for record in records
                if record.get("request_id") == request_id
            ]
        if event is not None:
            records = [
                record for record in records if record["event"] == event
            ]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        """Close a ``path=``-owned sink (no-op otherwise)."""
        if self._owned is not None:
            self._owned.close()
            self._owned = None
            self._stream = None
