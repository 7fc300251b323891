"""Self-healing client for the diff service.

Public pieces:

- :class:`DiffClient` — timeouts, jittered idempotent retries,
  automatic ``Idempotency-Key`` on commits, deadline propagation;
- :class:`CircuitBreaker` — fail-fast when the server is down;
- the typed failure surface: :class:`ClientError` and its subclasses
  :class:`ApiError`, :class:`ServerUnavailable`, :class:`CircuitOpen`.

See ``docs/server.md`` ("Retry semantics") for the behaviour contract.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ApiError",
    "CircuitBreaker",
    "CircuitOpen",
    "ClientError",
    "DiffClient",
    "STATE_VALUES",
    "ServerUnavailable",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "breaker": ("STATE_VALUES", "CircuitBreaker"),
    "core": (
        "ApiError", "CircuitOpen", "ClientError", "DiffClient",
        "ServerUnavailable",
    ),
})
