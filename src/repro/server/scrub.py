"""Background store scrubber: incremental checksum re-verification.

The warehouse setting assumes stores live for years; bit rot, torn
commits and operator accidents surface long after the write that caused
them.  The scrubber is the server's answer: an asyncio task that every
``scrub_interval`` seconds re-verifies the manifest checksums of at
most ``scrub_batch`` documents (round-robin across the configured
stores, resuming where the previous tick stopped), so a whole store is
eventually audited without ever taxing the hot path:

- a tick **auto-pauses** when the worker-pool queue is at half its
  shed limit — scrubbing yields to real traffic;
- verification runs on the default executor (not the worker pool, so a
  scrub can never occupy a request slot) and takes the store's commit
  lock per document, never for the whole batch;
- every finding is emitted as a ``scrub.finding`` event and counted in
  ``repro_scrub_errors_total{store,kind}``; an I/O error *during*
  verification (a dying disk — the exact case scrubbing exists for) is
  converted into a synthetic ``scrub-error`` finding instead of
  crashing the task;
- ``GET /healthz`` degrades to ``"degraded"`` while findings stand
  (see :meth:`Scrubber.summary`).

Enabled with ``xydiff serve --scrub-interval SECONDS``; disabled by
default.
"""

from __future__ import annotations

import asyncio
import collections
import time
from typing import Optional

from repro.xmlkit.errors import RepositoryError, StorageError

__all__ = ["Scrubber"]

#: Newest findings kept for the /healthz summary.
FINDING_WINDOW = 32


class Scrubber:
    """Incremental verifier owned by a :class:`~repro.server.app.
    DiffServer` (one instance per server, created when
    ``scrub_interval > 0``)."""

    def __init__(self, server):
        self.server = server
        self.interval = server.config.scrub_interval
        self.batch = server.config.scrub_batch
        self.docs_scrubbed = 0
        self.findings_total = 0
        self.findings_by_kind: dict[str, int] = {}
        self.ticks = 0
        self.paused_ticks = 0
        self.last_findings: collections.deque = collections.deque(
            maxlen=FINDING_WINDOW
        )
        # name -> (doc-id list snapshot, next position); refreshed when
        # a store's cursor runs off the end, so new documents join the
        # rotation on the next lap.
        self._cursors: dict[str, tuple[list, int]] = {}
        self._next_store = 0
        self._docs_total = server.metrics.counter(
            "repro_scrub_docs_total",
            help="Documents re-verified by the background scrubber.",
        )
        self._errors_total = server.metrics.counter(
            "repro_scrub_errors_total",
            help="Scrub findings, by store and finding kind.",
        )

    # -- health surface ------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.findings_total > 0

    def summary(self) -> dict:
        """The ``scrub`` block of ``GET /healthz``."""
        last = self.last_findings[-1] if self.last_findings else None
        return {
            "interval": self.interval,
            "batch": self.batch,
            "ticks": self.ticks,
            "paused_ticks": self.paused_ticks,
            "docs_scrubbed": self.docs_scrubbed,
            "findings": self.findings_total,
            "findings_by_kind": dict(self.findings_by_kind),
            "last_finding": last,
        }

    # -- the task ------------------------------------------------------------

    async def run(self) -> None:
        """Tick until cancelled (the server cancels on shutdown)."""
        try:
            while True:
                await asyncio.sleep(self.interval)
                if self.server.draining:
                    return
                await self.tick()
        except asyncio.CancelledError:
            return

    async def tick(self) -> int:
        """One scrub pass; returns the number of documents verified."""
        pool = self.server.pool
        if pool.queue_depth * 2 >= pool.queue_limit:
            self.paused_ticks += 1
            return 0
        names = sorted(self.server.config.stores)
        if not names:
            return 0
        self.ticks += 1
        self.server.events.emit(
            "scrub.start", level="debug", batch=self.batch, stores=len(names)
        )
        loop = asyncio.get_event_loop()
        started = time.perf_counter()
        scrubbed = 0
        findings = 0
        remaining = self.batch
        # Visit every store at most once per tick, starting after the
        # one the previous tick ended on.
        for offset in range(len(names)):
            if remaining <= 0:
                break
            name = names[(self._next_store + offset) % len(names)]
            try:
                store, lock = self.server.store_entry(name)
            except Exception:
                continue  # mis-configured store: nothing to scrub
            docs, position = self._cursors.get(name, ([], 0))
            if position >= len(docs):
                try:
                    docs = await loop.run_in_executor(
                        None, self._list_documents, store, lock
                    )
                except StorageError as exc:
                    # A store that cannot even list its documents is
                    # the broken disk this task exists to report.
                    findings += 1
                    self._record(name, _scrub_error("", exc))
                    docs = []
                except Exception:
                    docs = []
                position = 0
            take = docs[position : position + remaining]
            self._cursors[name] = (docs, position + len(take))
            remaining -= len(take)
            for doc_id in take:
                doc_findings = await loop.run_in_executor(
                    None, self._verify_one, store, lock, doc_id
                )
                scrubbed += 1
                self.docs_scrubbed += 1
                self._docs_total.inc(store=name)
                for finding in doc_findings:
                    findings += 1
                    self._record(name, finding)
        self._next_store = (self._next_store + 1) % len(names)
        self.server.events.emit(
            "scrub.done",
            docs=scrubbed,
            findings=findings,
            duration_ms=round((time.perf_counter() - started) * 1000.0, 3),
        )
        return scrubbed

    # -- per-document verification (executor thread) -------------------------

    @staticmethod
    def _list_documents(store, lock) -> list:
        with lock:
            return sorted(store.repository.document_ids())

    @staticmethod
    def _verify_one(store, lock, doc_id: str) -> list:
        """Verify one document under the store's commit lock.

        Never raises: a document deleted since the cursor snapshot is
        skipped, and any other error (an injected or real EIO
        mid-verify, a failing storage backend) becomes a synthetic
        ``scrub-error`` finding — the scrubber reports broken disks, it
        does not crash on them.
        """
        try:
            with lock:
                return store.repository.verify(doc_id)
        except StorageError as exc:
            return [_scrub_error(doc_id, exc)]
        except RepositoryError:
            return []
        except Exception as exc:  # noqa: BLE001 — see docstring
            return [_scrub_error(doc_id, exc)]

    def _record(self, store_name: str, finding) -> None:
        self.findings_total += 1
        self.findings_by_kind[finding.kind] = (
            self.findings_by_kind.get(finding.kind, 0) + 1
        )
        self._errors_total.inc(store=store_name, kind=finding.kind)
        entry = {
            "store": store_name,
            "doc_id": finding.doc_id,
            "kind": finding.kind,
            "path": finding.path,
            "message": finding.message,
        }
        self.last_findings.append(entry)
        self.server.events.emit(
            "scrub.finding",
            level="warning",
            store=store_name,
            doc_id=finding.doc_id,
            kind=finding.kind,
            path=finding.path or None,
        )


def _scrub_error(doc_id: str, exc: Exception):
    """The synthetic finding for an error raised while verifying."""
    from repro.versioning.repository import Finding

    return Finding(
        doc_id=doc_id,
        kind="scrub-error",
        path="",
        message=f"{type(exc).__name__}: {exc}",
    )
