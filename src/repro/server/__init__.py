"""Diff-as-a-service: asyncio HTTP layer over the diff/versioning core.

Public pieces:

- :class:`DiffServer` / :class:`ServerConfig` — the server and its
  knobs (``xydiff serve`` is a thin wrapper);
- :data:`ROUTES` / :func:`route_table` — the declared API surface,
  which ``tools/check_docs.py`` diffs against ``docs/server.md``;
- :func:`serve_in_thread` — run a server on a background thread for
  tests and the chaos harness.

See ``docs/server.md`` for the wire-level reference.
"""

from repro._lazy import lazy_exports

__all__ = [
    "API_HEADERS",
    "Deadline",
    "DeadlineExceeded",
    "DiffServer",
    "IdempotencyCache",
    "PoolSaturated",
    "ROUTES",
    "ServerConfig",
    "ServerHandle",
    "WorkerPool",
    "match_route",
    "route_table",
    "serve_in_thread",
    "status_reasons",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "app": ("DiffServer", "ServerConfig", "ServerHandle", "serve_in_thread"),
    "deadline": ("Deadline", "DeadlineExceeded"),
    "http": ("API_HEADERS", "status_reasons"),
    "idempotency": ("IdempotencyCache",),
    "pool": ("PoolSaturated", "WorkerPool"),
    "routes": ("ROUTES", "match_route", "route_table"),
})
