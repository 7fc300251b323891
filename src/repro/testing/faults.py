"""Deterministic fault injection for the storage layer.

A :class:`FaultInjector` plugs into :func:`repro.storage.atomic.
atomic_write` / ``fault_aware_unlink`` (every repository write path
passes one through) and simulates the three failure shapes a
production store meets:

- **crash** — the process dies *before* an I/O operation: the target
  file is untouched (``os.replace`` is all-or-nothing, so a real crash
  mid-write leaves at most a temp file).
- **eio** — the operation fails with ``OSError(EIO)`` (full disk,
  flaky device); the caller sees an exception, the target is untouched.
- **torn** — the worst case: half of the payload lands in the *target*
  file and then the process dies.  This models a filesystem without
  atomic rename semantics (or post-crash sector corruption) and is what
  checksum verification and ``fsck --repair`` exist for.

Operations are counted; ``crash_after=N`` lets a crash matrix walk
every I/O boundary of a compound operation: ``N`` operations succeed,
the next one fails.  ``label=`` restricts counting/failing to one named
write point (``"journal"``, ``"delta"``, ``"current"``, ``"snapshot"``,
``"meta"`` for the head, ``"journal-clear"``, and ``"manifest-clear"``
when a head replaces one in the older layout).

The injector also works as a pure probe: with no failure configured it
records every operation in :attr:`FaultInjector.ops`, which is how the
crash-matrix test discovers how many crash points an ``append`` has.

Beyond the storage write points, the injector powers the chaos harness
(:mod:`repro.testing.chaos`):

- **latency** — ``delay_ms``/``jitter_ms`` sleep every matching
  operation by a seeded-random amount, modelling a slow disk or a
  congested network without giving up determinism;
- **repeating faults** — ``repeat=True`` re-arms after each firing
  (``crash_after=4, repeat=True`` fails every fifth matching
  operation, forever), which is what sustained-fault chaos scenarios
  need; :attr:`fire_count` says how many times it fired;
- **mid-response kills** — the server calls :meth:`on_response` just
  before writing a reply; a fault there makes it send *half* the
  payload and abort the connection, the failure shape that separates
  clients that merely retry from clients that retry *idempotently*.
"""

from __future__ import annotations

import errno
import random
import time

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "InjectedIOError",
]


class InjectedFault(OSError):
    """Base class of injected failures (carries the write point hit)."""

    def __init__(self, message: str, *, label: str, path: str):
        super().__init__(message)
        self.label = label
        self.path = path


class InjectedCrash(InjectedFault):
    """Simulated process death at an I/O boundary."""


class InjectedIOError(InjectedFault):
    """Simulated I/O error (``errno`` is ``EIO``)."""

    def __init__(self, message: str, *, label: str, path: str):
        super().__init__(message, label=label, path=path)
        self.errno = errno.EIO


class FaultInjector:
    """Deterministic failure injection at named storage write points.

    Args:
        crash_after: Number of (matching) operations that succeed before
            the fault fires; ``None`` disables failing (probe mode).
        label: Only operations with this label count and fail
            (``None`` = every operation).
        mode: ``"crash"``, ``"eio"`` or ``"torn"`` (see module docs).
            A torn fault on an unlink degrades to a plain crash — there
            is no payload to tear.
        repeat: Re-arm after each firing instead of firing once —
            ``crash_after`` operations succeed between consecutive
            failures (sustained-fault chaos scenarios).
        delay_ms / jitter_ms: Sleep every matching operation for
            ``delay_ms + uniform(0, jitter_ms)`` milliseconds
            (latency injection; independent of the failure config).
        seed: Seed for the jitter randomness — runs are reproducible.
        sleep: Sleep function (injectable for virtual-time tests).

    Attributes:
        ops: ``(op, label)`` pairs of operations that *completed* (the
            faulted operation is not recorded).
        fired: Whether the configured fault has fired at least once.
        fire_count: Times the fault fired (interesting with ``repeat``).
    """

    MODES = ("crash", "eio", "torn")

    def __init__(
        self,
        crash_after: int | None = None,
        *,
        label: str | None = None,
        mode: str = "crash",
        repeat: bool = False,
        delay_ms: float = 0.0,
        jitter_ms: float = 0.0,
        seed: int = 0,
        sleep=time.sleep,
    ):
        if mode not in self.MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; expected one of {self.MODES}"
            )
        if crash_after is not None and crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        if delay_ms < 0 or jitter_ms < 0:
            raise ValueError("delay_ms / jitter_ms must be >= 0")
        self.crash_after = crash_after
        self.label = label
        self.mode = mode
        self.repeat = repeat
        self.delay_ms = delay_ms
        self.jitter_ms = jitter_ms
        self._rng = random.Random(seed)
        self._seed = seed
        self._sleep = sleep
        self.ops: list[tuple[str, str]] = []
        self.fired = False
        self.fire_count = 0
        self._remaining = crash_after

    def reset(self) -> None:
        """Re-arm the injector and clear the operation log."""
        self.ops.clear()
        self.fired = False
        self.fire_count = 0
        self._remaining = self.crash_after
        self._rng = random.Random(self._seed)

    # -- hooks called by the storage layer -----------------------------------

    def on_write(self, label: str, path: str, data: bytes, tear=None) -> None:
        """Fault point before a write.

        ``tear`` lets non-file backends supply their own torn-write
        shape: a callable receiving the half payload, expected to make
        it visible the way that backend's "crash mid-flush" would (a
        half row committed to SQLite, say).  ``None`` keeps the
        filesystem default of writing half the payload to ``path``.
        """
        self._maybe_delay(label)
        self._maybe_fail("write", label, path, data, tear)
        self.ops.append(("write", label))

    def on_unlink(self, label: str, path: str) -> None:
        self._maybe_delay(label)
        self._maybe_fail("unlink", label, path, None, None)
        self.ops.append(("unlink", label))

    def on_job(self, label: str) -> None:
        """Fault point before a server worker-pool job body runs.

        Lets the suite kill a pooled diff or commit at a chosen point
        (``label`` is the job label — ``"diff"``, ``"commit"``, ...)
        the same way ``on_write`` kills a storage write.
        """
        self._maybe_delay(label)
        self._maybe_fail("job", label, "", None, None)
        self.ops.append(("job", label))

    def on_response(self, label: str) -> None:
        """Fault point before the server writes a response.

        A fault here makes :class:`repro.server.app.DiffServer` send
        half the payload and abort the connection — the
        lost-acknowledgement failure shape idempotent retries exist
        for.  Latency configured on the injector delays the response
        instead.
        """
        self._maybe_delay(label)
        self._maybe_fail("response", label, "", None, None)
        self.ops.append(("response", label))

    # -- internals -----------------------------------------------------------

    def _maybe_delay(self, label: str) -> None:
        if self.delay_ms <= 0 and self.jitter_ms <= 0:
            return
        if self.label is not None and label != self.label:
            return
        self._sleep(
            (self.delay_ms + self._rng.uniform(0.0, self.jitter_ms)) / 1000.0
        )

    def _maybe_fail(self, op: str, label: str, path: str, data, tear) -> None:
        if self.crash_after is None or (self.fired and not self.repeat):
            return
        if self.label is not None and label != self.label:
            return
        if self._remaining > 0:
            self._remaining -= 1
            return
        self.fired = True
        self.fire_count += 1
        if self.repeat:
            self._remaining = self.crash_after
        if self.mode == "eio":
            raise InjectedIOError(
                f"injected EIO at {op} {label!r}", label=label, path=path
            )
        if self.mode == "torn" and op == "write" and data:
            half = data[: max(1, len(data) // 2)]
            if tear is not None:
                tear(half)
            else:
                # Tear the *target* file: the half-written state a
                # non-atomic filesystem could expose after a crash.
                with open(path, "wb") as handle:
                    handle.write(half)
        raise InjectedCrash(
            f"injected crash at {op} {label!r}", label=label, path=path
        )
