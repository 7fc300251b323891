"""The public API surface: route table + endpoint handlers.

Every endpoint is declared in :data:`ROUTES` — the single source of
truth that ``docs/server.md``'s endpoint table is checked against by
``tools/check_docs.py`` (the same drift-proofing idiom the CLI docs
use).  Patterns use ``{name}`` placeholders matched one path segment
at a time (segments are percent-decoded *after* splitting, so an
encoded ``/`` inside a document id stays inside its segment).

Handlers are ``async def handler(server, request, params, obs)``:

- CPU-bound work (parsing XML, diffing, committing) is packaged as a
  plain closure and pushed through the server's
  :class:`~repro.server.pool.WorkerPool` — the event loop never blocks
  on a diff, and a full queue surfaces as 429 upstream;
- ``obs`` is the per-request :class:`RequestObs` carrying the sampled
  tracer (or ``None``) so a handler can thread it into
  ``diff_with_stats``/``VersionStore`` exactly like the CLI does.

Domain errors map onto statuses in one place
(:func:`repro.server.app.DiffServer.dispatch`): malformed XML → 422,
unknown document/version → 404, bad request shape → 400, a saturated
pool → 429.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional
from urllib.parse import unquote

from repro.server.http import HttpError, Request, Response
from repro.server.idempotency import (
    IDEMPOTENCY_HEADER,
    REPLAY_HEADER,
    body_digest,
)

__all__ = ["ROUTES", "Route", "RequestObs", "match_route", "route_table"]


@dataclass
class RequestObs:
    """Per-request observability + budget state handed to every
    handler."""

    tracer: Optional[object] = None  # a Tracer when this request sampled
    span: Optional[object] = None  # the open server.<route> root span
    deadline: Optional[object] = None  # the request's Deadline (pooled
    # routes only); handlers pass it into ``server.run_job`` so the
    # budget covers queue wait *and* execution.
    context: Optional[object] = None  # the RequestContext dispatch
    # activated for this request (adopted or minted request id).


@dataclass(frozen=True)
class Route:
    method: str
    pattern: str  # e.g. "/repos/{store}/docs/{doc_id}/versions/{version}"
    name: str  # span/metric label, e.g. "diff"
    handler: Callable
    pooled: bool  # True when the handler submits work to the pool

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(part for part in self.pattern.split("/") if part)


def match_route(
    routes, method: str, path: str
) -> tuple[Optional[Route], dict[str, str], bool]:
    """``(route, params, path_known)`` for a method+path pair.

    ``path_known`` distinguishes 405 (path exists, wrong method) from
    404 (no route matches the path at all).
    """
    parts = [unquote(part) for part in path.split("/") if part]
    path_known = False
    for route in routes:
        segments = route.segments
        if len(segments) != len(parts):
            continue
        params: dict[str, str] = {}
        for segment, part in zip(segments, parts):
            if segment.startswith("{") and segment.endswith("}"):
                params[segment[1:-1]] = part
            elif segment != part:
                break
        else:
            path_known = True
            if route.method == method:
                return route, params, True
    return None, {}, path_known


def route_table() -> list[tuple[str, str]]:
    """``(method, pattern)`` pairs — what check_docs diffs the docs
    against."""
    return [(route.method, route.pattern) for route in ROUTES]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _require(payload: dict, key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise HttpError(400, f"field {key!r} (a non-empty string) "
                             "is required")
    return value


def _int_param(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise HttpError(400, f"{name} must be an integer, got {raw!r}") \
            from None


def _parse_pair(payload: dict):
    """Parse the old/new documents of a diff-shaped request body."""
    from repro.xmlkit.parser import parse

    old_text = _require(payload, "old")
    new_text = _require(payload, "new")
    keep = bool(payload.get("keep_whitespace", False))
    old = parse(old_text, strip_whitespace=not keep, origin="request:old")
    new = parse(new_text, strip_whitespace=not keep, origin="request:new")
    return old, new


# ---------------------------------------------------------------------------
# one-shot endpoints
# ---------------------------------------------------------------------------


async def handle_diff(server, request: Request, params, obs) -> Response:
    """POST /diff — one-shot diff of two documents sent in the body."""
    payload = request.json()
    engine = payload.get("engine", server.config.engine)
    if engine not in server.available_engines:
        raise HttpError(
            400,
            f"unknown engine {engine!r}; "
            f"choose from {server.available_engines}",
        )

    def job():
        from repro.core.deltaxml import serialize_delta
        from repro.core.diff import diff_with_stats

        old, new = _parse_pair(payload)
        delta, stats = diff_with_stats(
            old, new, engine=engine, tracer=obs.tracer
        )
        text = serialize_delta(delta)
        body = {
            "delta": text,
            "stats": {
                "engine": stats.engine,
                "old_nodes": stats.old_nodes,
                "new_nodes": stats.new_nodes,
                "matched_nodes": stats.matched_nodes,
                "delta_bytes": len(text.encode("utf-8")),
                "operations": dict(sorted(stats.operation_counts.items())),
                "total_seconds": stats.total_seconds,
            },
        }
        return body

    result = await server.run_job(job, label="diff", deadline=obs.deadline)
    return Response.json(result)


async def handle_explain(server, request: Request, params, obs) -> Response:
    """POST /explain — the delta as an operations list, with optional
    match-provenance ``because`` clauses (the PR-5 layer over HTTP)."""
    payload = request.json()
    why = bool(payload.get("why", False))

    def job():
        from repro.core.diff import diff, diff_with_stats
        from repro.core.explain import operation_to_dict, sorted_operations

        old, new = _parse_pair(payload)
        report = None
        if why:
            from repro.obs.provenance import ProvenanceRecorder, build_report

            recorder = ProvenanceRecorder()
            delta, _ = diff_with_stats(
                old, new, recorder=recorder, tracer=obs.tracer
            )
            report = build_report(recorder, old, new, delta)
        else:
            delta = diff(old, new)
        operations = []
        for operation in sorted_operations(delta):
            entry = operation_to_dict(operation)
            if report is not None:
                entry["because"] = report.because(operation)
            operations.append(entry)
        return {"operations": operations}

    result = await server.run_job(job, label="explain", deadline=obs.deadline)
    return Response.json(result)


async def handle_audit(server, request: Request, params, obs) -> Response:
    """POST /audit — diff with full provenance accounting and the
    unmatched-weight gate (``ok`` mirrors the CLI's exit code)."""
    payload = request.json()
    max_unmatched = payload.get("max_unmatched", 0.5)
    if not isinstance(max_unmatched, (int, float)):
        raise HttpError(400, "max_unmatched must be a number")

    def job():
        from repro.core.diff import diff_with_stats
        from repro.obs.provenance import ProvenanceRecorder, build_report

        old, new = _parse_pair(payload)
        recorder = ProvenanceRecorder()
        delta, _ = diff_with_stats(
            old, new, recorder=recorder, tracer=obs.tracer
        )
        report = build_report(recorder, old, new, delta)
        body = report.to_dict(include_nodes=False)
        body["ok"] = report.unmatched_weight_ratio <= max_unmatched
        body["max_unmatched"] = max_unmatched
        return body

    result = await server.run_job(job, label="audit", deadline=obs.deadline)
    return Response.json(result)


# ---------------------------------------------------------------------------
# store-backed endpoints
# ---------------------------------------------------------------------------


async def handle_commit(server, request: Request, params, obs) -> Response:
    """POST /repos/{store}/commit — diff-and-append into a version
    store (creates the document, at version 1, when it is new).

    With an ``Idempotency-Key`` header the commit is retry-safe: a
    repeat of an already-applied commit (same key, same body) replays
    the recorded response instead of appending a second version —
    first from the in-memory cache, then (cache cold: restart, crash,
    TTL) from the ``last_commit`` record the store journals with the
    commit itself.  The same key with a *different* body is a 409.
    """
    payload = request.json()
    doc_id = _require(payload, "doc_id")
    document_text = _require(payload, "document")
    store_name = params["store"]
    store, lock = server.store_entry(store_name)

    key = request.headers.get(IDEMPOTENCY_HEADER.lower())
    digest = None
    if key is not None:
        if not key.strip() or len(key) > 255:
            raise HttpError(
                400,
                f"{IDEMPOTENCY_HEADER} must be 1..255 non-blank "
                "characters",
            )
        digest = body_digest(
            doc_id.encode("utf-8"),
            document_text.encode("utf-8"),
            b"keep" if payload.get("keep_whitespace") else b"strip",
        )
        cached = server.idempotency.get(store_name, doc_id, key)
        if cached is not None:
            if cached.digest != digest:
                raise HttpError(
                    409,
                    f"{IDEMPOTENCY_HEADER} {key!r} was already used "
                    "with a different body",
                )
            server._replays_total.inc(source="cache")
            server.events.emit(
                "server.replay",
                store=store_name,
                doc_id=doc_id,
                source="cache",
            )
            return Response.json(
                cached.payload,
                status=cached.status,
                headers={REPLAY_HEADER: "true"},
            )

    def job():
        from repro.xmlkit.parser import parse

        # One writer per store: commits serialize at the store door.
        with lock:
            if key is not None and store.repository.exists(doc_id):
                # Cache was cold but the store remembers: the journaled
                # last_commit record survives restarts and crashes.
                record = store.repository.last_commit(doc_id)
                if record is not None and record.get("key") == key:
                    if record.get("digest") != digest:
                        raise HttpError(
                            409,
                            f"{IDEMPOTENCY_HEADER} {key!r} was already "
                            "used with a different body",
                        )
                    version = int(record["version"])
                    summary = {}
                    if version > 1:
                        summary = dict(sorted(
                            store.delta(doc_id, version - 1)
                            .summary().items()
                        ))
                    return {
                        "doc_id": doc_id,
                        "version": version,
                        "created": version == 1,
                        "summary": summary,
                        "_replayed": "journal",
                    }
            document = parse(
                document_text,
                strip_whitespace=not payload.get("keep_whitespace", False),
                origin=f"request:{doc_id}",
            )
            record = (
                {"key": key, "digest": digest} if key is not None else None
            )
            if record is not None and obs.context is not None:
                # Journal-durable attribution: the correlation id rides
                # the last_commit record and the per-version map.
                record["request_id"] = obs.context.request_id
            if store.repository.exists(doc_id):
                delta = store.commit(
                    doc_id, document,
                    commit_record=record, tracer=obs.tracer,
                )
                return {
                    "doc_id": doc_id,
                    "version": store.current_version(doc_id),
                    "created": False,
                    "summary": dict(sorted(delta.summary().items())),
                }
            store.create(
                doc_id, document, commit_record=record, tracer=obs.tracer
            )
            return {
                "doc_id": doc_id,
                "version": 1,
                "created": True,
                "summary": {},
            }

    result = await server.run_job(job, label="commit", deadline=obs.deadline)
    replayed = result.pop("_replayed", None)
    headers = {}
    if replayed is not None:
        server._replays_total.inc(source=replayed)
        server.events.emit(
            "server.replay",
            store=store_name,
            doc_id=doc_id,
            source=replayed,
        )
        headers[REPLAY_HEADER] = "true"
    status = 201 if result["created"] else 200
    if key is not None:
        server.idempotency.put(
            store_name, doc_id, key, digest, status, result
        )
    return Response.json(result, status=status, headers=headers)


async def handle_docs(server, request: Request, params, obs) -> Response:
    """GET /repos/{store}/docs — every document with its current
    version."""
    store, lock = server.store_entry(params["store"])

    def job():
        with lock:
            return {
                "documents": [
                    {
                        "doc_id": doc_id,
                        "version": store.current_version(doc_id),
                    }
                    for doc_id in store.document_ids()
                ]
            }

    return Response.json(
        await server.run_job(job, label="read", deadline=obs.deadline)
    )


async def handle_doc(server, request: Request, params, obs) -> Response:
    """GET /repos/{store}/docs/{doc_id} — the current version."""
    return await _serve_version(server, params, obs, version=None)


async def handle_version(server, request: Request, params, obs) -> Response:
    """GET /repos/{store}/docs/{doc_id}/versions/{version} — any stored
    version, reconstructed from the nearest stored state (either
    direction) when needed."""
    version = _int_param(params["version"], "version")
    return await _serve_version(server, params, obs, version=version)


async def _serve_version(
    server, params, obs, version: Optional[int]
) -> Response:
    from repro.xmlkit.serializer import serialize

    store, lock = server.store_entry(params["store"])
    doc_id = params["doc_id"]

    def job():
        with lock:
            resolved = (
                version
                if version is not None
                else store.current_version(doc_id)
            )
            document = store.get_version(doc_id, resolved)
            return {
                "doc_id": doc_id,
                "version": resolved,
                "xml": serialize(document),
            }

    return Response.json(
        await server.run_job(job, label="read", deadline=obs.deadline)
    )


async def handle_history(server, request: Request, params, obs) -> Response:
    """GET /repos/{store}/docs/{doc_id}/history — the version list with
    checkpoint markers."""
    store, lock = server.store_entry(params["store"])
    doc_id = params["doc_id"]

    def job():
        with lock:
            current = store.current_version(doc_id)
            checkpoints = set(store.repository.snapshot_versions(doc_id))
            return {
                "doc_id": doc_id,
                "current": current,
                "versions": [
                    {
                        "version": number,
                        "checkpoint": number in checkpoints,
                    }
                    for number in range(1, current + 1)
                ],
            }

    return Response.json(
        await server.run_job(job, label="read", deadline=obs.deadline)
    )


async def handle_changes(server, request: Request, params, obs) -> Response:
    """GET /repos/{store}/docs/{doc_id}/changes?from=I&to=J — one
    aggregated delta covering versions I..J (J < I yields the
    inverse)."""
    from_version = _int_param(
        request.query.get("from", ""), "query parameter 'from'"
    ) if request.query.get("from") else None
    to_version = _int_param(
        request.query.get("to", ""), "query parameter 'to'"
    ) if request.query.get("to") else None
    if from_version is None or to_version is None:
        raise HttpError(
            400, "query parameters 'from' and 'to' are required"
        )
    store, lock = server.store_entry(params["store"])
    doc_id = params["doc_id"]

    def job():
        from repro.core.deltaxml import serialize_delta

        with lock:
            delta = store.changes_between(doc_id, from_version, to_version)
            return {
                "doc_id": doc_id,
                "from": from_version,
                "to": to_version,
                "summary": dict(sorted(delta.summary().items())),
                "delta": serialize_delta(delta),
            }

    return Response.json(
        await server.run_job(job, label="read", deadline=obs.deadline)
    )


# ---------------------------------------------------------------------------
# operational endpoints (served inline — never queued, so they answer
# even when the pool is saturated)
# ---------------------------------------------------------------------------


async def handle_healthz(server, request: Request, params, obs) -> Response:
    """GET /healthz — liveness plus the load-shedding state.

    With the scrubber enabled the body carries its ``scrub`` summary,
    and standing findings (corruption, torn commits, I/O errors seen
    mid-verify) degrade ``status`` from ``"ok"`` to ``"degraded"`` —
    the server still serves, but an operator should run ``fsck``.
    """
    if server.draining:
        status = "draining"
    elif server.scrubber is not None and server.scrubber.degraded:
        status = "degraded"
    else:
        status = "ok"
    body = {
        "status": status,
        "queue_depth": server.pool.queue_depth,
        "queue_limit": server.pool.queue_limit,
        "stores": sorted(server.config.stores),
    }
    if server.scrubber is not None:
        body["scrub"] = server.scrubber.summary()
    return Response.json(body)


async def handle_metrics(server, request: Request, params, obs) -> Response:
    """GET /metrics — the Prometheus text exposition of the server
    registry (request counts/latency, queue depth, engine stages)."""
    return Response(
        body=server.metrics.to_prometheus().encode("utf-8"),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


async def handle_logz(server, request: Request, params, obs) -> Response:
    """GET /logz?request_id=&event=&limit= — tail the structured event
    ring (schema ``repro.log/1``), newest last."""
    from repro.obs.log import SCHEMA

    limit_raw = request.query.get("limit")
    limit = 100
    if limit_raw:
        limit = _int_param(limit_raw, "query parameter 'limit'")
        if limit <= 0:
            raise HttpError(400, "query parameter 'limit' must be positive")
    records = server.events.tail(
        limit=limit,
        request_id=request.query.get("request_id") or None,
        event=request.query.get("event") or None,
    )
    return Response.json({"schema": SCHEMA, "events": records})


async def handle_slo(server, request: Request, params, obs) -> Response:
    """GET /slo — latency percentiles and error-budget burn computed
    from the server's own metrics (schema ``repro.slo/1``)."""
    from repro.obs.slo import compute_slo

    return Response.json(
        compute_slo(
            server.metrics, objective=server.config.slo_objective
        ).to_dict()
    )


async def handle_statz(server, request: Request, params, obs) -> Response:
    """GET /statz — one ``repro.storewatch/3`` store-health report per
    configured store (chain lengths, checkpoint staleness, bytes by
    kind).  Served inline like ``/metrics`` — never queued — but the
    store walk itself runs on the default executor so the event loop
    stays responsive while a large store is measured."""
    import asyncio

    return Response.json(
        await asyncio.get_event_loop().run_in_executor(
            None, server.store_stats
        )
    )


async def handle_repo_statz(server, request: Request, params, obs) -> Response:
    """GET /repos/{store}/statz — the store-health report for one
    store (404 for a name the operator never configured)."""
    import asyncio

    name = params["store"]
    server.store_entry(name)  # unknown-store 404 before the executor hop
    return Response.json(
        await asyncio.get_event_loop().run_in_executor(
            None, server.store_stats, name
        )
    )


#: The registered API surface, in matching order.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "healthz", handle_healthz, pooled=False),
    Route("GET", "/metrics", "metrics", handle_metrics, pooled=False),
    Route("GET", "/logz", "logz", handle_logz, pooled=False),
    Route("GET", "/slo", "slo", handle_slo, pooled=False),
    Route("GET", "/statz", "statz", handle_statz, pooled=False),
    Route(
        "GET",
        "/repos/{store}/statz",
        "repo-statz",
        handle_repo_statz,
        pooled=False,
    ),
    Route("POST", "/diff", "diff", handle_diff, pooled=True),
    Route("POST", "/explain", "explain", handle_explain, pooled=True),
    Route("POST", "/audit", "audit", handle_audit, pooled=True),
    Route(
        "POST", "/repos/{store}/commit", "commit", handle_commit, pooled=True
    ),
    Route("GET", "/repos/{store}/docs", "docs", handle_docs, pooled=True),
    Route(
        "GET", "/repos/{store}/docs/{doc_id}", "doc", handle_doc, pooled=True
    ),
    Route(
        "GET",
        "/repos/{store}/docs/{doc_id}/versions/{version}",
        "version",
        handle_version,
        pooled=True,
    ),
    Route(
        "GET",
        "/repos/{store}/docs/{doc_id}/history",
        "history",
        handle_history,
        pooled=True,
    ),
    Route(
        "GET",
        "/repos/{store}/docs/{doc_id}/changes",
        "changes",
        handle_changes,
        pooled=True,
    ),
)
