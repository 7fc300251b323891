"""Idempotent commit replay: a bounded, TTL-evicting result cache.

The paper's warehouse appends *one* delta per document version; a
client that retries a ``POST /repos/{store}/commit`` after a lost
response must not append the same change twice.  The protection has two
layers:

1. **This cache** — the fast path.  The first successful commit under
   an ``Idempotency-Key`` stores its full response; a retry with the
   same key *and the same body* replays that response byte-for-byte
   (plus an ``X-Repro-Idempotent-Replay: true`` header) without
   touching the store.  A reused key with a *different* body is a
   client bug and is rejected with 409 — silently committing either
   body would hide it.

2. **The commit journal** — the crash-proof path.  The key and body
   digest ride the commit intent into
   :class:`repro.versioning.repository.BackendRepository`'s journaled
   metadata, so even if the server dies between the append and the
   response (cache lost), the reopened store still knows which key
   produced the current version and the retry replays instead of
   re-appending.  See ``BackendRepository.last_commit``.

Entries are evicted two ways: by age (:data:`TTL` seconds — a retry
older than that is answered from the journal layer) and by count
(:data:`MAX_ENTRIES`, oldest first — the cache is a bounded buffer, not
a database).  The clock is injectable for tests.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["IDEMPOTENCY_HEADER", "REPLAY_HEADER", "IdempotencyCache", "body_digest"]

#: Request header naming the commit attempt.
IDEMPOTENCY_HEADER = "Idempotency-Key"

#: Response header marking a replayed (not re-executed) commit.
REPLAY_HEADER = "X-Repro-Idempotent-Replay"

#: Seconds a recorded commit response stays replayable.
TTL = 600.0

#: Cached commit responses kept at most (oldest evicted first).
MAX_ENTRIES = 1024


def body_digest(*parts: bytes) -> str:
    """Hex SHA-256 over the request parts that define a commit body."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


class _Entry:
    __slots__ = ("digest", "status", "payload", "stored_at")

    def __init__(self, digest: str, status: int, payload: dict, stored_at: float):
        self.digest = digest
        self.status = status
        self.payload = payload
        self.stored_at = stored_at


class IdempotencyCache:
    """``(store, doc_id, key) -> recorded response`` with TTL + size cap.

    Single-threaded by design: the server only touches it from the
    event loop (lookups happen before a job is queued, recording after
    its result lands back on the loop).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _evict(self) -> None:
        now = self._clock()
        while self._entries:
            _, entry = next(iter(self._entries.items()))
            if now - entry.stored_at <= TTL:
                break
            self._entries.popitem(last=False)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)

    def get(self, store: str, doc_id: str, key: str) -> Optional[_Entry]:
        """The recorded entry for a key, or ``None`` (expired = None)."""
        self._evict()
        entry = self._entries.get((store, doc_id, key))
        if entry is None:
            return None
        if self._clock() - entry.stored_at > TTL:
            del self._entries[(store, doc_id, key)]
            return None
        return entry

    def put(
        self, store: str, doc_id: str, key: str, digest: str,
        status: int, payload: dict,
    ) -> None:
        """Record a commit outcome for later replay.

        Insertion order is eviction order; re-putting the same key
        refreshes its position (and its TTL) — the entry a client is
        actively retrying against is the one worth keeping.
        """
        cache_key = (store, doc_id, key)
        self._entries.pop(cache_key, None)
        self._entries[cache_key] = _Entry(
            digest, status, payload, self._clock()
        )
        self._evict()
