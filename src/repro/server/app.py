"""Diff-as-a-service: the asyncio HTTP server.

The paper positions XyDiff inside the Xyleme warehouse, detecting
changes on documents that arrive over the wire; :class:`DiffServer` is
that front door for this reproduction.  One asyncio event loop accepts
connections and parses requests; all CPU-bound work (XML parsing,
BULD matching, store commits) runs on the bounded, batching
:class:`~repro.server.pool.WorkerPool`, so the loop stays responsive
and overload turns into explicit ``429 Retry-After`` load shedding
instead of unbounded queueing.  See ``docs/server.md`` for the wire
reference and the capacity model.

The server composes only existing layers:

- version stores are addressed by the same store URLs as the CLI
  (``file://``, ``sqlite://``) through
  :func:`repro.versioning.repository.open_repository` — a store name in
  the request path (``/repos/{store}/...``) maps to a configured URL;
- ``/metrics`` serves the existing Prometheus exporter
  (:class:`~repro.obs.metrics.MetricsRegistry`);
- per-request trace sampling reuses the existing
  :class:`~repro.obs.trace.Tracer`: every Nth request runs with a
  tracer threaded through the engine, its root span id is echoed in
  the ``X-Repro-Span-Id`` response header, and the span tree is
  written to ``trace_dir`` when one is configured.

Graceful shutdown (SIGTERM/SIGINT via :meth:`DiffServer.serve_forever`,
or :meth:`DiffServer.shutdown`) stops accepting connections, answers
late requests on kept-alive connections with 503, drains the pool —
accepted work is never dropped — and closes every store.  A commit
interrupted *ungracefully* (process kill) is covered one layer down by
the journaled-commit protocol: reopening the store rolls it forward or
back deterministically.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.context import (
    REQUEST_ID_HEADER,
    RequestContext,
    activate,
    current_context,
    deactivate,
    new_request_id,
    valid_request_id,
)
from repro.obs.log import LEVELS, EventLogger
from repro.server.deadline import (
    DEADLINE_HEADER,
    DEADLINE_HELP,
    Deadline,
    DeadlineExceeded,
)
from repro.server.http import (
    DEFAULT_MAX_BODY,
    HttpError,
    Request,
    Response,
    read_request,
)
from repro.server.idempotency import IdempotencyCache
from repro.server.pool import PoolSaturated, WorkerPool
from repro.server.routes import ROUTES, RequestObs, match_route
from repro.xmlkit.errors import (
    DeltaError,
    ReproError,
    RepositoryError,
    XmlParseError,
)

__all__ = ["DiffServer", "ServerConfig", "ServerHandle", "serve_in_thread"]

#: Rotate ``trace_dir/traces.jsonl`` once past this size (one ``.1``
#: generation is kept; older spans age out).
TRACE_MAX_BYTES = 16 * 1024 * 1024

#: Request-latency buckets: an HTTP API lives between 1 ms and 10 s.
REQUEST_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)


@dataclass
class ServerConfig:
    """Everything ``xydiff serve`` exposes as flags.

    Attributes:
        host / port: Bind address; port 0 picks an ephemeral port
            (read the real one off :meth:`DiffServer.start`).
        stores: ``name -> store URL`` map backing ``/repos/{name}/...``.
        engine: Default diff engine for ``/diff`` (per-request
            ``engine`` overrides).
        workers: Worker threads for CPU-bound jobs.
        queue_limit: Jobs allowed to wait before load shedding starts.
        batch_max: Max jobs per executor batch.
        retry_after: Seconds advertised in 429 ``Retry-After``.
        trace_sample: Trace every Nth request (0 disables sampling).
        trace_dir: Directory for sampled span trees; every sampled
            request appends its spans (each line tagged with the
            request id) to one rotating ``traces.jsonl`` there;
            ``None`` keeps them in memory only long enough to echo
            the span id.
        max_body_bytes: Request body cap (413 beyond it).
        durability: Write policy handed to every store backend.
        default_deadline: Per-request time budget, in seconds, when the
            client sends no ``X-Repro-Deadline-Ms`` header.
        max_deadline: Hard ceiling on any request budget — the header
            is clamped to this, and internal waits (thread handle
            operations, shutdown joins) are derived from it.
        idempotency_ttl: Seconds a recorded commit response stays
            replayable from the in-memory cache (the store journal
            covers retries beyond it).
        idempotency_max: Bound on cached commit responses (oldest
            evicted first).
        log_level: Minimum severity the structured event log records
            (``debug``/``info``/``warning``/``error``).
        log_out: Optional JSONL file every event is appended to
            (the in-memory ring behind ``GET /logz`` always runs).
        log_capacity: Events kept in the ring for ``GET /logz``.
        slo_objective: Availability objective ``GET /slo`` computes
            error-budget burn against.
        scrub_interval: Seconds between background scrub ticks
            (0 disables the scrubber — the default).
        scrub_batch: Max documents re-verified per scrub tick.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    stores: dict[str, str] = field(default_factory=dict)
    engine: str = "buld"
    workers: int = 2
    queue_limit: int = 64
    batch_max: int = 8
    retry_after: float = 1.0
    trace_sample: int = 0
    trace_dir: Optional[str] = None
    max_body_bytes: int = DEFAULT_MAX_BODY
    durability: str = "none"
    default_deadline: float = 30.0
    max_deadline: float = 120.0
    idempotency_ttl: float = 600.0
    idempotency_max: int = 1024
    log_level: str = "info"
    log_out: Optional[str] = None
    log_capacity: int = 4096
    slo_objective: float = 0.999
    scrub_interval: float = 0.0
    scrub_batch: int = 16

    def __post_init__(self):
        if self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0 seconds")
        if self.max_deadline <= 0:
            raise ValueError("max_deadline must be > 0 seconds")
        if self.log_level not in LEVELS:
            raise ValueError(
                f"unknown log_level {self.log_level!r}; expected one of "
                f"{sorted(LEVELS)}"
            )
        if self.log_capacity < 1:
            raise ValueError("log_capacity must be >= 1")
        if not 0.0 < self.slo_objective < 1.0:
            raise ValueError(
                "slo_objective must be strictly between 0 and 1"
            )
        if self.scrub_interval < 0:
            raise ValueError("scrub_interval must be >= 0 seconds")
        if self.scrub_batch < 1:
            raise ValueError("scrub_batch must be >= 1")


class DiffServer:
    """The HTTP server; see the module docstring for the design.

    Args:
        config: A :class:`ServerConfig`.
        metrics: Optional shared registry (defaults to a fresh one) —
            the same instance is served by ``/metrics``.
        faults: Optional :class:`repro.testing.faults.FaultInjector`
            threaded into every store backend *and* the worker pool
            (label-targeted, like the storage crash matrix).
    """

    def __init__(self, config: ServerConfig, metrics=None, faults=None):
        from repro.engine import available_engines
        from repro.obs.metrics import MetricsRegistry

        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self.available_engines = available_engines()
        if config.engine not in self.available_engines:
            raise ReproError(
                f"unknown default engine {config.engine!r}; "
                f"choose from {self.available_engines}"
            )
        self.events = EventLogger(
            capacity=config.log_capacity,
            level=config.log_level,
            path=config.log_out,
        )
        self.pool = WorkerPool(
            workers=config.workers,
            queue_limit=config.queue_limit,
            batch_max=config.batch_max,
            metrics=self.metrics,
            fault_hook=faults,
            events=self.events,
        )
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._stores: dict[str, tuple] = {}
        self._stores_guard = threading.Lock()
        self._request_index = 0
        self._requests_total = self.metrics.counter(
            "repro_server_requests_total",
            help="HTTP requests served, by route/method/status.",
        )
        self._request_seconds = self.metrics.histogram(
            "repro_server_request_seconds",
            help="HTTP request latency (accept-to-response), by route.",
            buckets=REQUEST_BUCKETS,
        )
        self._sampled_total = self.metrics.counter(
            "repro_server_traced_requests_total",
            help="Requests that ran with a sampled tracer.",
        )
        # Same name+help the pool registers — one shared series.
        self._deadline_total = self.metrics.counter(
            "repro_deadline_exceeded_total", help=DEADLINE_HELP
        )
        self._replays_total = self.metrics.counter(
            "repro_idempotent_replays_total",
            help="Commits answered from a recorded response instead of "
                 "re-executing, by source (cache or journal).",
        )
        self.idempotency = IdempotencyCache(
            max_entries=config.idempotency_max,
            ttl=config.idempotency_ttl,
        )
        if config.scrub_interval > 0:
            from repro.server.scrub import Scrubber

            self.scrubber: Optional[Scrubber] = Scrubber(self)
        else:
            self.scrubber = None
        self._scrub_task: Optional[asyncio.Task] = None

    # -- store resolution ----------------------------------------------------

    def store_entry(self, name: str):
        """``(VersionStore, threading.Lock)`` for a configured store name.

        :meth:`start` opens every configured store through here, and
        each stays open for the server's lifetime; an unknown name is
        a 404 (the client addressed a repo the operator never
        configured).
        """
        url = self.config.stores.get(name)
        if url is None:
            raise HttpError(
                404,
                f"unknown store {name!r}; configured: "
                f"{sorted(self.config.stores) or 'none'}",
            )
        with self._stores_guard:
            entry = self._stores.get(name)
            if entry is None:
                from repro.versioning.repository import open_repository
                from repro.versioning.version_control import VersionStore

                repository = open_repository(
                    url,
                    durability=self.config.durability,
                    faults=self.faults,
                )
                store = VersionStore(
                    repository=repository,
                    metrics=self.metrics,
                    events=self.events,
                    store_name=name,
                )
                # Crash recovery ran while opening: surface every
                # journal roll-forward/back as a repo.recover event.
                for event in getattr(repository, "recovery_events", ()):
                    self.events.emit(
                        "repo.recover",
                        level="warning",
                        store=name,
                        action=event.action,
                        detail=event.detail,
                    )
                entry = (store, threading.Lock())
                self._stores[name] = entry
        return entry

    def store_stats(self, name: Optional[str] = None) -> dict:
        """The ``/statz`` body: one ``repro.storewatch/3`` report per
        store (or a single report when ``name`` is given).

        Collection holds each store's commit lock — the same lock the
        pooled handlers take — so the walk never races a commit;
        gauges are refreshed and a ``store.stats`` event emitted per
        store.  Runs synchronously: callers on the event loop wrap it
        in an executor.
        """
        from repro.obs.storewatch import (
            SCHEMA,
            collect_store_stats,
            publish_store_metrics,
        )

        names = [name] if name is not None else sorted(self.config.stores)
        reports = {}
        for store_name in names:
            store, lock = self.store_entry(store_name)
            with lock:
                report = collect_store_stats(
                    store.repository, label=store_name
                )
            publish_store_metrics(report, self.metrics)
            self.events.emit(
                "store.stats",
                store=store_name,
                documents=report["documents"],
                versions=report["versions"],
                bytes_total=report["bytes_total"],
            )
            reports[store_name] = report
        if name is not None:
            return reports[name]
        return {"schema": SCHEMA, "stores": reports}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Open every store, bind and start serving; returns the actual
        ``(host, port)``.

        Stores open before anything else starts, so journal recovery
        (and its ``repo.recover`` events) runs at boot, and a store that
        cannot be opened stops the server with a
        :class:`RepositoryError` naming it instead of failing every
        request that touches it.
        """
        for name in sorted(self.config.stores):
            try:
                self.store_entry(name)
            except Exception as error:  # any reason: the boot stops here
                self._close_stores()
                self.events.close()
                raise RepositoryError(f"store {name!r}: {error}") from error
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.scrubber is not None:
            self._scrub_task = asyncio.get_event_loop().create_task(
                self.scrubber.run()
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain and shut down."""
        import signal

        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops
        await stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful stop: no new connections, drain the pool, close
        stores."""
        self.draining = True
        if self._server is not None:
            self._server.close()
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            try:
                await self._scrub_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
            self._scrub_task = None
        await self.pool.drain()
        await self.pool.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._close_stores()
        self.events.close()

    def _close_stores(self) -> None:
        with self._stores_guard:
            for store, lock in self._stores.values():
                # Cancelling the scrub task does not stop a verify already
                # running on an executor thread under this lock.
                with lock:
                    store.repository.close()
            self._stores.clear()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes
                    )
                except HttpError as error:
                    response = Response.error(
                        error.status, "protocol-error", error.message
                    )
                    writer.write(response.to_bytes(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.dispatch(request)
                keep_alive = request.keep_alive and not self.draining
                payload = response.to_bytes(keep_alive=keep_alive)
                if self._kill_response(writer, payload):
                    break
                writer.write(payload)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away — nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _kill_response(self, writer, payload: bytes) -> bool:
        """Chaos hook: kill the connection mid-response when armed.

        When the fault injector's ``on_response`` point fires, half
        the payload is written and the transport aborted — the client
        sees a torn response after the server *did* the work, which is
        the exact failure idempotent retries must survive.  Returns
        whether the connection was killed.
        """
        on_response = getattr(self.faults, "on_response", None)
        if on_response is None:
            return False
        try:
            on_response("response")
        except OSError:
            writer.write(payload[: max(1, len(payload) // 2)])
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return True
        return False

    # -- dispatch ------------------------------------------------------------

    async def dispatch(self, request: Request) -> Response:
        """Route one request and map every failure mode to a status.

        Every request runs under a :class:`RequestContext`: a valid
        client-supplied ``X-Repro-Request-Id`` is adopted, anything
        else gets a minted id, and the id is echoed on *every*
        response — success or error — so a retry storm stays groupable
        end to end.  The context is a ``contextvar``, so it follows
        the handler through awaits and (via the pool's capture) onto
        worker threads.
        """
        route, params, path_known = match_route(
            ROUTES, request.method, request.path
        )
        name = route.name if route is not None else "unmatched"
        started = time.perf_counter()
        supplied = request.headers.get(REQUEST_ID_HEADER.lower())
        context = RequestContext(
            request_id=(
                supplied
                if valid_request_id(supplied)
                else new_request_id()
            )
        )
        token = activate(context)
        try:
            self.events.emit(
                "server.accept",
                level="debug",
                route=name,
                method=request.method,
                path=request.path,
            )
            try:
                if route is None:
                    if path_known:
                        raise HttpError(
                            405, f"{request.method} is not supported here"
                        )
                    raise HttpError(404, f"no route for {request.path!r}")
                if self.draining:
                    raise HttpError(503, "server is shutting down")
                obs = self._sample(route, request)
                obs.context = context
                if route.pooled:
                    try:
                        obs.deadline = Deadline.from_header(
                            request.headers.get(DEADLINE_HEADER.lower()),
                            default=self.config.default_deadline,
                            maximum=self.config.max_deadline,
                        )
                    except ValueError as error:
                        raise HttpError(400, str(error)) from None
                try:
                    response = await route.handler(
                        self, request, params, obs
                    )
                finally:
                    self._finish_sample(obs)
                if obs.span is not None:
                    response.headers.setdefault(
                        "X-Repro-Span-Id", str(obs.span.span_id)
                    )
            except HttpError as error:
                response = self._http_error_response(error)
            except PoolSaturated as error:
                self.events.emit(
                    "server.shed",
                    level="warning",
                    route=name,
                    queue_depth=self.pool.queue_depth,
                )
                response = Response.error(
                    429,
                    "overloaded",
                    f"{error}; retry after "
                    f"{self.config.retry_after:g} seconds",
                    headers={
                        "Retry-After": f"{self.config.retry_after:g}",
                        # Debug aid for tuning queue_limit from the
                        # client side: how deep the queue was when this
                        # request was shed.
                        "X-Repro-Queue-Depth": str(self.pool.queue_depth),
                    },
                )
            except DeadlineExceeded as error:
                self.events.emit(
                    "server.expire",
                    level="warning",
                    route=name,
                    stage=getattr(error, "stage", None),
                )
                response = Response.error(
                    504, "deadline-exceeded", str(error)
                )
            except XmlParseError as error:
                response = Response.error(
                    422, "malformed-xml", error.location()
                )
            except (RepositoryError, DeltaError) as error:
                # Unknown documents and versions surface here ("doc has
                # versions 1..N"); the store itself existing is checked
                # before the job is queued.
                response = Response.error(404, "not-found", str(error))
            except ReproError as error:
                response = Response.error(400, "bad-request", str(error))
            except Exception as error:  # noqa: BLE001 — last-resort 500
                response = Response.error(
                    500,
                    "internal-error",
                    f"{type(error).__name__}: {error}",
                )
            elapsed = time.perf_counter() - started
            self._requests_total.inc(
                route=name,
                method=request.method,
                status=str(response.status),
            )
            self._request_seconds.observe(elapsed, route=name)
            response.headers.setdefault(
                REQUEST_ID_HEADER, context.request_id
            )
            self.events.emit(
                "server.complete",
                route=name,
                status=response.status,
                duration_ms=round(elapsed * 1000.0, 3),
            )
            return response
        finally:
            deactivate(token)

    def _http_error_response(self, error: HttpError) -> Response:
        headers = {}
        if error.status == 503:
            headers["Retry-After"] = f"{self.config.retry_after:g}"
        code = {
            404: "not-found",
            405: "method-not-allowed",
            409: "idempotency-conflict",
            429: "overloaded",
            503: "draining",
        }.get(error.status, "bad-request")
        return Response.error(
            error.status, code, error.message, headers=headers
        )

    # -- pooled execution ----------------------------------------------------

    async def run_job(self, fn, label: str = "job", deadline=None):
        """Submit ``fn`` to the pool and await it within ``deadline``.

        :class:`PoolSaturated` propagates to :meth:`dispatch`, which
        turns it into the 429 + ``Retry-After`` load-shedding reply.

        With a deadline the await is a *watchdog*: if the budget runs
        out while the job is queued the pool drops it before dispatch
        (its future resolves with the queued-stage
        :class:`DeadlineExceeded`); if it runs out mid-execution the
        request abandons the future — the response is an immediate 504
        and the worker discards the result when the job body returns
        (a thread cannot be interrupted, but no request ever waits
        past its budget and no abandoned result is ever applied to a
        response).
        """
        if self.draining:
            raise HttpError(503, "server is shutting down")
        future = self.pool.submit(fn, label=label, deadline=deadline)
        self.events.emit("server.dispatch", level="debug", label=label)
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), deadline.remaining()
            )
        except asyncio.TimeoutError:
            if not future.cancel() and not future.cancelled():
                future.exception()  # lost the race: consume, don't warn
            self._deadline_total.inc(stage="running", label=label)
            raise DeadlineExceeded(
                f"deadline expired after {deadline.budget:g}s "
                f"while running",
                stage="running",
            ) from None

    # -- trace sampling ------------------------------------------------------

    def _sample(self, route, request: Request) -> RequestObs:
        """Give every Nth request a Tracer with an open root span."""
        self._request_index += 1
        sample = self.config.trace_sample
        if not route.pooled or sample <= 0:
            return RequestObs()
        if self._request_index % sample != 0:
            return RequestObs()
        from repro.obs.trace import Tracer

        tracer = Tracer()
        context = current_context()
        attrs = {
            "method": request.method,
            "path": request.path,
            "request_index": self._request_index,
        }
        if context is not None:
            attrs["request_id"] = context.request_id
        span = tracer.start_span(f"server.{route.name}", **attrs)
        if context is not None:
            context.span_id = span.span_id
            context.sampled = True
        self._sampled_total.inc(route=route.name)
        return RequestObs(tracer=tracer, span=span)

    def _finish_sample(self, obs: RequestObs) -> None:
        if obs.tracer is None or obs.span is None:
            return
        obs.tracer.end_span(obs.span)
        if self.config.trace_dir:
            self._append_trace(obs)

    def _append_trace(self, obs: RequestObs) -> None:
        """Append a sampled span tree to the rotating ``traces.jsonl``.

        All sampled requests share one file (instead of a file per
        request, which littered trace_dir under load); every span line
        carries the request id, so ``xydiff obs render --request-id``
        can pull one request's tree back out.  When the file crosses
        :data:`TRACE_MAX_BYTES` it is rotated once to ``traces.jsonl.1``
        — bounded disk, no unbounded history.
        """
        os.makedirs(self.config.trace_dir, exist_ok=True)
        path = os.path.join(self.config.trace_dir, "traces.jsonl")
        request_id = (
            obs.context.request_id if obs.context is not None else None
        )
        lines = []
        for span in obs.tracer.iter_spans():
            record = span.to_dict()
            record["request_id"] = request_id
            lines.append(json.dumps(record, sort_keys=True))
        try:
            if os.path.getsize(path) > TRACE_MAX_BYTES:
                os.replace(path, path + ".1")
        except OSError:
            pass  # first write, or a race on rotation — both fine
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# embedding helper: run a server on a background thread (tests, chaos harness)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A running server on its own thread + event loop.

    Produced by :func:`serve_in_thread`; gives tests and the chaos
    harness a real TCP endpoint without subprocess management.
    """

    def __init__(self, server: DiffServer, loop, thread, host, port):
        self.server = server
        self.loop = loop
        self.thread = thread
        self.host = host
        self.port = port
        # Cross-thread waits are bounded by the request budget, not a
        # hardcoded constant: nothing on the loop may legitimately run
        # longer than max_deadline, so budget + slack means "wedged",
        # not "slow".
        self.op_timeout = server.config.max_deadline + 30.0

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def run_coroutine(self, coroutine):
        """Run a coroutine on the server loop; returns its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout=self.op_timeout)

    def submit_job(self, fn, label: str = "job"):
        """Enqueue a raw pool job from any thread (test hook).

        Returns a :class:`concurrent.futures.Future` mirroring the
        pool-side result.
        """

        async def _submit():
            return self.server.pool.submit(fn, label=label)

        asyncio_future = self.run_coroutine(_submit())
        import concurrent.futures

        mirror: concurrent.futures.Future = concurrent.futures.Future()

        def _copy(done):
            if done.cancelled():
                mirror.cancel()
            elif done.exception() is not None:
                mirror.set_exception(done.exception())
            else:
                mirror.set_result(done.result())

        self.loop.call_soon_threadsafe(
            asyncio_future.add_done_callback, _copy
        )
        return mirror

    def close(self) -> None:
        """Graceful shutdown (drains the pool), then join the thread."""
        if self.thread.is_alive():
            self.run_coroutine(self.server.shutdown())
            self.loop.call_soon_threadsafe(self._stop_event.set)
            self.thread.join(timeout=self.op_timeout)


def serve_in_thread(
    config: ServerConfig, metrics=None, faults=None
) -> ServerHandle:
    """Start a :class:`DiffServer` on a daemon thread; returns when the
    socket is bound."""
    ready: "queue.Queue" = __import__("queue").Queue()

    def _main():
        asyncio.run(_serve())

    async def _serve():
        try:
            server = DiffServer(config, metrics=metrics, faults=faults)
            host, port = await server.start()
        except BaseException as error:  # surface bind errors to caller
            ready.put(error)
            return
        stop_event = asyncio.Event()
        ready.put((server, asyncio.get_event_loop(), host, port, stop_event))
        await stop_event.wait()

    thread = threading.Thread(
        target=_main, name="repro-server", daemon=True
    )
    thread.start()
    outcome = ready.get(timeout=30)
    if isinstance(outcome, BaseException):
        thread.join(timeout=5)
        raise outcome
    server, loop, host, port, stop_event = outcome
    handle = ServerHandle(server, loop, thread, host, port)
    handle._stop_event = stop_event
    return handle
