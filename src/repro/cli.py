"""Command-line interface: ``xydiff`` / ``python -m repro``.

Subcommands mirror the library's main capabilities:

- ``diff OLD NEW``      — compute a delta, print it as XML (or stats).
- ``apply DOC DELTA``   — apply a delta forward.
- ``revert DOC DELTA``  — apply a delta backward (reconstruct the old version).
- ``invert DELTA``      — print the inverse delta.
- ``stats OLD NEW``     — per-phase timings and operation counts.
- ``explain OLD NEW``   — the delta as prose (``--why`` adds the match
  provenance "because" line per operation, ``--json`` a machine form).
- ``audit OLD NEW``     — diff with full match provenance; exits 1 when
  the unmatched weight ratio (or the delta size vs a ``--ground-truth``
  perfect delta) exceeds its threshold.
- ``generate``          — emit a synthetic document (generic or catalog).
- ``simulate DOC``      — run the change simulator, emit the new version
  and/or the perfect delta.
- ``obs render TRACE``  — pretty-print a saved JSON-lines trace
  (``--request-id`` filters the server's multi-request ``traces.jsonl``).
- ``fsck STORE``        — check (and repair) a version store; STORE is a
  store URL (``file://``, ``sqlite://``) or a bare path.
- ``store ...``         — inspect and update a version store by URL
  (``ls``, ``log``, ``cat``, ``commit``).
- ``serve``             — run the HTTP diff service (``docs/server.md``):
  one-shot diff/explain/audit plus commit/read endpoints over named
  version stores, with bounded-queue load shedding.

Malformed XML input exits with status 2 and a one-line
``error: <file>:<line>:<column>: <message>`` diagnostic on stderr.

``diff``, ``stats`` and ``sitediff`` accept ``--trace FILE`` (write the
run's span tree as JSON lines) and ``--metrics-out FILE`` (write the
run's metrics; Prometheus text format by default, ``--metrics-format
json`` for JSON).  See ``docs/observability.md``.

All commands read/write XML on files or stdin/stdout (``-``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.apply import apply_backward, apply_delta
from repro.core.config import DiffConfig
from repro.core.deltaxml import (
    delta_byte_size,
    parse_delta,
    serialize_delta,
)
from repro.core.diff import diff, diff_with_stats
from repro.engine.engines import available_engines
from repro.xmlkit.errors import ReproError, XmlParseError
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import serialize

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as error:  # malformed input, like bad XML
        raise XmlParseError(f"not UTF-8: {error.reason}", source=path)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_document(path: str, keep_whitespace: bool):
    return parse(
        _read(path),
        strip_whitespace=not keep_whitespace,
        origin=None if path == "-" else path,
    )


def _label_document(document, xidmap_path: str | None) -> None:
    """Attach XIDs to a parsed document.

    Serialized XML does not carry XIDs; the paper's system keeps an
    *XID-map* alongside each stored document.  The CLI does the same with
    a sidecar file (``--xidmap``); without one, postorder labelling is
    used — correct for any document that served as a diff base.
    """
    from repro.core.xid import (
        DOCUMENT_XID,
        assign_initial_xids,
        parse_xid_map,
    )
    from repro.xmlkit.errors import DeltaError
    from repro.xmlkit.model import postorder

    if xidmap_path is None:
        assign_initial_xids(document)
        return
    xids = parse_xid_map(_read(xidmap_path).strip())
    nodes = [node for node in postorder(document) if node is not document]
    if len(xids) != len(nodes):
        raise DeltaError(
            f"xidmap lists {len(xids)} XIDs but the document has "
            f"{len(nodes)} nodes"
        )
    for node, xid in zip(nodes, xids):
        node.xid = xid
    document.xid = DOCUMENT_XID


def _write_xidmap(document, path: str | None) -> None:
    if path is None:
        return
    from repro.core.xid import format_xid_map
    from repro.xmlkit.model import postorder

    xids = [
        node.xid for node in postorder(document) if node is not document
    ]
    _write(path, format_xid_map(xids) + "\n")


def _config_from_args(args) -> DiffConfig:
    return DiffConfig(
        use_id_attributes=not args.no_ids,
        optimization_passes=args.passes,
    ).validate()


def _obs_from_args(args):
    """(tracer, metrics) per the ``--trace`` / ``--metrics-out`` flags."""
    tracer = metrics = None
    if getattr(args, "trace", None):
        from repro.obs import Tracer

        tracer = Tracer(trace_memory=getattr(args, "trace_memory", False))
    if getattr(args, "metrics_out", None):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    return tracer, metrics


def _write_obs(args, tracer, metrics) -> None:
    if tracer is not None:
        _write(args.trace, tracer.to_jsonl())
    if metrics is not None:
        if args.metrics_format == "json":
            _write(args.metrics_out, metrics.to_json() + "\n")
        else:
            _write(args.metrics_out, metrics.to_prometheus())


def _cmd_diff(args) -> int:
    old = _load_document(args.old, args.keep_whitespace)
    new = _load_document(args.new, args.keep_whitespace)
    tracer, metrics = _obs_from_args(args)
    if tracer is None and metrics is None:
        delta = diff(old, new, _config_from_args(args), engine=args.engine)
    else:
        delta, _ = diff_with_stats(
            old,
            new,
            _config_from_args(args),
            engine=args.engine,
            tracer=tracer,
            metrics=metrics,
        )
    _write(args.output, serialize_delta(delta))
    _write_xidmap(new, args.new_xidmap)
    _write_obs(args, tracer, metrics)
    return 0


def _cmd_apply(args) -> int:
    document = _load_document(args.document, args.keep_whitespace)
    _label_document(document, args.xidmap)
    delta = parse_delta(_read(args.delta))
    result = apply_delta(delta, document, verify=args.verify)
    _write(args.output, serialize(result))
    _write_xidmap(result, args.xidmap_out)
    return 0


def _cmd_revert(args) -> int:
    document = _load_document(args.document, args.keep_whitespace)
    _label_document(document, args.xidmap)
    delta = parse_delta(_read(args.delta))
    result = apply_backward(delta, document, verify=args.verify)
    _write(args.output, serialize(result))
    _write_xidmap(result, args.xidmap_out)
    return 0


def _cmd_invert(args) -> int:
    delta = parse_delta(_read(args.delta))
    _write(args.output, serialize_delta(delta.inverted()))
    return 0


def _cmd_stats(args) -> int:
    old = _load_document(args.old, args.keep_whitespace)
    new = _load_document(args.new, args.keep_whitespace)
    tracer, metrics = _obs_from_args(args)
    delta, stats = diff_with_stats(
        old,
        new,
        _config_from_args(args),
        engine=args.engine,
        tracer=tracer,
        metrics=metrics,
    )
    _write_obs(args, tracer, metrics)
    if args.json:
        payload = stats.to_dict()
        payload["delta_bytes"] = delta_byte_size(delta)
        _write(args.output, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [
        f"engine:         {stats.engine}",
        f"old nodes:      {stats.old_nodes}",
        f"new nodes:      {stats.new_nodes}",
        f"matched nodes:  {stats.matched_nodes}",
        f"delta bytes:    {delta_byte_size(delta)}",
        "operations:     "
        + (
            ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(stats.operation_counts.items())
            )
            or "none"
        ),
    ]
    phases = stats.phase_seconds
    for phase in ("phase1", "phase2", "phase3", "phase4", "phase5"):
        lines.append(f"{phase} seconds: {phases.get(phase, 0.0):.6f}")
    lines.append("stage order:    " + " -> ".join(stats.stage_order))
    lines.append(f"total seconds:  {stats.total_seconds:.6f}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_sitediff(args) -> int:
    import fnmatch
    import os

    from repro.core.deltaxml import delta_byte_size
    from repro.versioning.sitediff import (
        SiteSnapshot,
        diff_sites,
        record_site_error,
    )

    tracer, metrics = _obs_from_args(args)
    parse_failures: dict[str, XmlParseError] = {}

    def snapshot_from_directory(root: str) -> SiteSnapshot:
        # One malformed page must not abort the whole crawl: parse
        # failures are recorded per key and the rest of the site is
        # still diffed (see docs/cli.md on graceful degradation).
        os.scandir(root).close()  # a missing site is no empty crawl
        snapshot = SiteSnapshot()
        for directory, _, names in sorted(os.walk(root)):
            for name in sorted(names):
                if not fnmatch.fnmatch(name, args.pattern):
                    continue
                path = os.path.join(directory, name)
                key = os.path.relpath(path, root)
                try:
                    snapshot.add(key, parse(_read(path), origin=path))
                except XmlParseError as error:
                    parse_failures[key] = error
        return snapshot

    old_snapshot = snapshot_from_directory(args.old_dir)
    new_snapshot = snapshot_from_directory(args.new_dir)
    site_delta = diff_sites(
        old_snapshot, new_snapshot, tracer=tracer, metrics=metrics
    )
    # A key that parsed on one side only must not masquerade as an
    # added/removed document: it failed, period.
    site_delta.added = [k for k in site_delta.added if k not in parse_failures]
    site_delta.removed = [
        k for k in site_delta.removed if k not in parse_failures
    ]
    for key in sorted(parse_failures):
        record_site_error(site_delta, key, parse_failures[key], metrics)
    committed = None
    if args.store:
        from repro.versioning.repository import open_repository
        from repro.versioning.version_control import VersionStore

        store = VersionStore(
            repository=open_repository(args.store),
            tracer=tracer,
            metrics=metrics,
        )
        committed = 0
        for key in sorted(set(site_delta.added) | set(site_delta.changed)):
            store.commit(key, new_snapshot.get(key))
            committed += 1
        store.repository.close()
    _write_obs(args, tracer, metrics)

    lines = []
    for key in site_delta.added:
        lines.append(f"added     {key}")
    for key in site_delta.removed:
        lines.append(f"removed   {key}")
    for key, delta in sorted(site_delta.changed.items()):
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(delta.summary().items())
        )
        lines.append(f"changed   {key}  ({summary})")
        if args.deltas_dir:
            os.makedirs(args.deltas_dir, exist_ok=True)
            target = os.path.join(
                args.deltas_dir, key.replace(os.sep, "_") + ".delta.xml"
            )
            _write(target, serialize_delta(delta))
    for key in site_delta.unchanged:
        lines.append(f"unchanged {key}")
    for key, message in sorted(site_delta.failed.items()):
        lines.append(f"failed    {key}  ({message})")
    if committed is not None:
        lines.append(f"committed {committed} documents to {args.store}")
    lines.append(
        f"summary: {site_delta.summary()} "
        f"({site_delta.change_ratio():.0%} of documents touched, "
        f"change stream {site_delta.delta_bytes()} bytes)"
    )
    _write(args.output, "\n".join(lines) + "\n")
    for key, error in sorted(parse_failures.items()):
        print(f"error: {error.location()}", file=sys.stderr)
    return 2 if parse_failures else 0


def _cmd_fsck(args) -> int:
    from repro.versioning.fsck import fsck_store

    tracer, metrics = _obs_from_args(args)
    report = fsck_store(
        args.store,
        repair=args.repair,
        durability=args.durability,
        metrics=metrics,
    )
    lines = []
    for event in report.recovery_events:
        detail = f"  ({event.detail})" if event.detail else ""
        lines.append(f"recovered {event.action:<22} {event.doc_dir}{detail}")
    repaired_ids = {id(finding) for finding in report.repaired}
    for finding in report.findings:
        status = "repaired" if id(finding) in repaired_ids else "found"
        origin = finding.scheme or "?"
        lines.append(
            f"{status:<9} {finding.kind:<18} [{origin}] {finding.path}  "
            f"({finding.message})"
        )
    lines.append(
        f"summary: documents={report.documents} "
        f"recovered={len(report.recovery_events)} "
        f"findings={len(report.findings)} "
        f"repaired={len(report.repaired)} "
        f"unrepaired={len(report.unrepaired)}"
    )
    _write(args.output, "\n".join(lines) + "\n")
    _write_obs(args, tracer, metrics)
    if report.unrepaired:
        problems = f"{len(report.unrepaired)} problem(s) remain"
        print(f"error: {args.store}: {problems}", file=sys.stderr)
    return report.exit_code()


def _open_version_store(args, *, must_exist=True, tracer=None, metrics=None):
    from repro.versioning.repository import open_repository
    from repro.versioning.version_control import VersionStore

    repository = open_repository(args.store, must_exist=must_exist)
    return VersionStore(
        repository=repository, tracer=tracer, metrics=metrics
    )


def _cmd_store_ls(args) -> int:
    store = _open_version_store(args)
    lines = []
    if args.sizes:
        # One collector walk answers versions, checkpoints and on-disk
        # bytes per document — no per-doc meta reads in the loop.
        from repro.obs.storewatch import collect_store_stats

        report = collect_store_stats(store.repository, per_document=True)
        total_bytes = 0
        for entry in report["documents_detail"]:
            versions = entry["versions"]
            total_bytes += entry["bytes"]
            shown = "?" if versions is None else versions
            lines.append(
                f"{entry['doc_id']}  version={shown} "
                f"checkpoints={entry['checkpoints']} "
                f"bytes={entry['bytes']}"
            )
        lines.append(
            f"summary: documents={len(lines)} bytes={total_bytes}"
        )
    else:
        for doc_id in store.document_ids():
            version = store.current_version(doc_id)
            snapshots = store.repository.snapshot_versions(doc_id)
            lines.append(
                f"{doc_id}  version={version} checkpoints={len(snapshots)}"
            )
        lines.append(f"summary: documents={len(lines)}")
    store.repository.close()
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_store_stats(args) -> int:
    import json as _json

    from repro.obs.storewatch import collect_store_stats, render_store_stats
    from repro.versioning.repository import open_repository

    repository = open_repository(args.store, must_exist=True)
    try:
        report = collect_store_stats(repository, label=args.store)
    finally:
        repository.close()
    if args.json:
        _write(args.output,
               _json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _write(args.output, render_store_stats(report) + "\n")
    return 0


def _cmd_store_log(args) -> int:
    store = _open_version_store(args)
    current = store.current_version(args.doc_id)
    checkpoints = set(store.repository.snapshot_versions(args.doc_id))
    lines = []
    for version in range(1, current + 1):
        marks = []
        if version == current:
            marks.append("current")
        if version in checkpoints:
            marks.append("checkpoint")
        suffix = f"  ({', '.join(marks)})" if marks else ""
        lines.append(f"version {version}{suffix}")
    store.repository.close()
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_store_cat(args) -> int:
    store = _open_version_store(args)
    version = (
        args.version
        if args.version is not None
        else store.current_version(args.doc_id)
    )
    document = store.get_version(args.doc_id, version)
    store.repository.close()
    _write(args.output, serialize(document))
    return 0


def _cmd_store_commit(args) -> int:
    if args.url and args.store:
        print("error: --store and --url are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.url:
        return _store_commit_remote(args)
    if not args.store:
        print("error: one of --store or --url is required", file=sys.stderr)
        return 2
    tracer, metrics = _obs_from_args(args)
    store = _open_version_store(
        args, must_exist=False, tracer=tracer, metrics=metrics
    )
    document = _load_document(args.document, args.keep_whitespace)
    doc_id = args.doc_id
    delta = store.commit(doc_id, document)
    version = delta.target_version
    if version == 1:
        print(f"created {doc_id} version 1")
    else:
        summary = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(delta.summary().items())
        )
        print(f"committed {doc_id} version {version} ({summary or 'no-op'})")
    store.repository.close()
    _write_obs(args, tracer, metrics)
    return 0


def _store_commit_remote(args) -> int:
    """``store commit --url``: commit through a running diff service.

    Uses :class:`repro.client.DiffClient`, so the call inherits the
    full resilience stack — timeouts, retries with backoff, and an
    automatic ``Idempotency-Key`` that makes the retries safe.
    """
    from repro.client import ClientError, DiffClient

    if not args.repo_name:
        print("error: --url requires --repo NAME (the server-side store "
              "name under /repos/NAME)", file=sys.stderr)
        return 2
    document_text = _read(args.document)
    client = DiffClient(
        args.url.rstrip("/"),
        timeout=args.timeout,
        retries=args.retries,
        deadline_ms=args.deadline_ms,
    )
    try:
        result = client.commit(
            args.repo_name,
            args.doc_id,
            document_text,
            keep_whitespace=args.keep_whitespace,
            idempotency_key=args.idempotency_key,
        )
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()
    version = result.get("version")
    summary = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted((result.get("summary") or {}).items())
    )
    verb = "created" if version == 1 else "committed"
    line = f"{verb} {args.doc_id} version {version}"
    if version != 1:
        line += f" ({summary or 'no-op'})"
    if result.get("replayed"):
        line += " [replayed]"
    print(line)
    return 0


def _cmd_validate(args) -> int:
    from repro.core.validate import validate_delta
    from repro.core.xid import assign_initial_xids, has_xids

    delta = parse_delta(_read(args.delta))
    base = None
    if args.base is not None:
        base = _load_document(args.base, args.keep_whitespace)
        if not has_xids(base):
            assign_initial_xids(base)
    problems = validate_delta(delta, base)
    for problem in problems:
        print(f"{problem.severity}: [{problem.code}] {problem.message}")
    errors = sum(1 for p in problems if p.severity == "error")
    if not problems:
        print("delta is clean")
    return 1 if errors else 0


def _cmd_explain(args) -> int:
    from repro.core.explain import (
        explain_delta,
        operation_to_dict,
        sorted_operations,
    )

    old = _load_document(args.old, args.keep_whitespace)
    new = _load_document(args.new, args.keep_whitespace)
    report = None
    if args.why:
        from repro.obs.provenance import ProvenanceRecorder, build_report

        recorder = ProvenanceRecorder()
        delta, _ = diff_with_stats(
            old, new, _config_from_args(args), recorder=recorder
        )
        report = build_report(recorder, old, new, delta)
    else:
        delta = diff(old, new, _config_from_args(args))
    if args.json:
        operations = []
        for operation in sorted_operations(delta):
            payload = operation_to_dict(operation)
            if report is not None:
                payload["because"] = report.because(operation)
            operations.append(payload)
        _write(
            args.output,
            json.dumps({"operations": operations}, indent=2) + "\n",
        )
        return 0
    annotate = report.because if report is not None else None
    _write(args.output, explain_delta(delta, old, new, annotate=annotate) + "\n")
    return 0


def _cmd_audit(args) -> int:
    from repro.obs.provenance import ProvenanceRecorder, build_report

    old = _load_document(args.old, args.keep_whitespace)
    new = _load_document(args.new, args.keep_whitespace)
    recorder = ProvenanceRecorder()
    delta, _ = diff_with_stats(
        old, new, _config_from_args(args), recorder=recorder
    )
    report = build_report(recorder, old, new, delta)

    failures = []
    if report.unmatched_weight_ratio > args.max_unmatched:
        failures.append(
            f"unmatched weight ratio {report.unmatched_weight_ratio:.4f} "
            f"exceeds --max-unmatched {args.max_unmatched:g}"
        )
    size_ratio = None
    if args.ground_truth is not None:
        perfect_bytes = delta_byte_size(parse_delta(_read(args.ground_truth)))
        computed_bytes = delta_byte_size(delta)
        size_ratio = (
            computed_bytes / perfect_bytes if perfect_bytes else 1.0
        )
        if args.max_size_ratio is not None and size_ratio > args.max_size_ratio:
            failures.append(
                f"delta size ratio {size_ratio:.4f} vs ground truth "
                f"exceeds --max-size-ratio {args.max_size_ratio:g}"
            )

    if args.json:
        payload = report.to_dict(include_nodes=not args.summary)
        if size_ratio is not None:
            payload["ground_truth_size_ratio"] = round(size_ratio, 6)
        payload["ok"] = not failures
        payload["failures"] = failures
        _write(args.output, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [report.to_text()]
        if size_ratio is not None:
            lines.append(
                f"delta size vs ground truth: {size_ratio:.4f}x "
                f"({delta_byte_size(delta)} bytes)"
            )
        _write(args.output, "\n".join(lines) + "\n")
    for failure in failures:
        print(f"audit: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_htmlize(args) -> int:
    from repro.xmlkit.htmlize import htmlize

    document = htmlize(_read(args.html), keep_comments=args.keep_comments)
    _write(args.output, serialize(document, indent=2 if args.pretty else None))
    return 0


def _cmd_infer_dtd(args) -> int:
    from repro.xmlkit.dtd import format_dtd
    from repro.xmlkit.infer import infer_dtd

    documents = [parse(_read(path)) for path in args.documents]
    dtd = infer_dtd(documents)
    _write(args.output, format_dtd(dtd) + "\n")
    return 0


def _cmd_merge(args) -> int:
    from repro.core.xid import assign_initial_xids
    from repro.versioning.merge import merge

    base = _load_document(args.base, True)
    assign_initial_xids(base)
    ours = diff(base, _load_document(args.ours, True), DiffConfig())
    theirs = diff(base, _load_document(args.theirs, True), DiffConfig())
    result = merge(base, ours, theirs, prefer=args.prefer)
    _write(args.output, serialize(result.document))
    for conflict in result.conflicts:
        print(
            f"conflict [{conflict.kind}] at XID {conflict.xid}: kept the "
            f"{args.prefer!r} side",
            file=sys.stderr,
        )
    return 0 if result.is_clean or not args.strict else 1


def _cmd_aggregate(args) -> int:
    from repro.core.apply import aggregate
    from repro.core.xid import assign_initial_xids, has_xids

    base = _load_document(args.base, args.keep_whitespace)
    if not has_xids(base):
        assign_initial_xids(base)
    deltas = [parse_delta(_read(path)) for path in args.deltas]
    combined = aggregate(deltas, base)
    _write(args.output, serialize_delta(combined))
    return 0


def _trace_groups(text: str) -> tuple[list, dict]:
    """Trace lines grouped by their ``request_id`` tag, first-seen order.

    The server's rotating ``traces.jsonl`` concatenates many sampled
    requests whose span ids collide; the per-line request id is what
    keeps their trees apart.  Unparseable lines group under ``None`` so
    :func:`load_trace` reports them with its usual diagnostics.
    """
    order: list = []
    groups: dict = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            request_id = json.loads(line).get("request_id")
        except json.JSONDecodeError:
            request_id = None
        if request_id not in groups:
            order.append(request_id)
            groups[request_id] = []
        groups[request_id].append(line)
    return order, groups


def _cmd_obs_render(args) -> int:
    from repro.obs import load_trace, render_trace

    text = _read(args.trace_file)
    order, groups = _trace_groups(text)
    if args.request_id is not None:
        lines = groups.get(args.request_id)
        if not lines:
            print(f"no spans for request {args.request_id}",
                  file=sys.stderr)
            return 1
        text = "\n".join(lines)
    elif len(order) > 1:
        # A multi-request file: render each request's tree under its id
        # (span ids collide across concatenated requests, so the trees
        # must be rebuilt per request).
        sections = []
        for request_id in order:
            roots = load_trace("\n".join(groups[request_id]))
            sections.append(f"request {request_id or '-'}")
            sections.append(
                render_trace(roots, show_attrs=not args.no_attrs)
            )
        _write(args.output, "\n".join(sections) + "\n")
        return 0
    roots = load_trace(text)
    if not roots:
        print("trace is empty", file=sys.stderr)
        return 1
    _write(
        args.output,
        render_trace(roots, show_attrs=not args.no_attrs) + "\n",
    )
    return 0


def _cmd_generate(args) -> int:
    from repro.simulator.generator import (
        GeneratorConfig,
        generate_catalog,
        generate_document,
    )

    if args.kind == "catalog":
        document = generate_catalog(
            products=args.nodes // 6 or 1, seed=args.seed, with_ids=args.with_ids
        )
    else:
        document = generate_document(
            GeneratorConfig(target_nodes=args.nodes, seed=args.seed)
        )
    _write(args.output, serialize(document, indent=2 if args.pretty else None))
    return 0


def _cmd_simulate(args) -> int:
    from repro.simulator.change_simulator import (
        SimulatorConfig,
        simulate_changes,
    )

    document = _load_document(args.document, args.keep_whitespace)
    config = SimulatorConfig(
        delete_probability=args.delete,
        update_probability=args.update,
        insert_probability=args.insert,
        move_probability=args.move,
        seed=args.seed,
    )
    result = simulate_changes(document, config)
    _write(args.output, serialize(result.new_document))
    if args.delta_output:
        _write(args.delta_output, serialize_delta(result.perfect_delta()))
    summary = ", ".join(f"{k}={v}" for k, v in sorted(result.counts.items()))
    print(f"simulated: {summary}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.server import DiffServer, ServerConfig

    stores: dict[str, str] = {}
    for spec in args.repo or []:
        name, separator, url = spec.partition("=")
        if not separator or not name or not url:
            print(f"error: --repo takes NAME=STORE_URL, got {spec!r}",
                  file=sys.stderr)
            return 2
        if name in stores:
            print(f"error: store {name!r} configured twice", file=sys.stderr)
            return 2
        stores[name] = url
    config = ServerConfig(
        host=args.host,
        port=args.port,
        stores=stores,
        engine=args.engine,
        workers=args.workers,
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
        retry_after=args.retry_after,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        trace_sample=args.trace_sample,
        trace_dir=args.trace_dir,
        log_level=args.log_level,
        log_out=args.log_out,
        durability=args.durability,
        scrub_interval=args.scrub_interval,
        scrub_batch=args.scrub_batch,
    )

    async def _run() -> None:
        server = DiffServer(config)
        host, port = await server.start()
        print(f"serving on http://{host}:{port} "
              f"(stores: {sorted(stores) or 'none'}; "
              f"workers={config.workers} queue_limit={config.queue_limit})",
              file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.log import LEVELS
    from repro.storage.atomic import DURABILITY_LEVELS

    log_levels = tuple(sorted(LEVELS, key=LEVELS.get))
    parser = argparse.ArgumentParser(
        prog="xydiff",
        description="XML change detection (XyDiff / BULD reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_keep_whitespace(sub):
        sub.add_argument(
            "--keep-whitespace",
            action="store_true",
            help="preserve whitespace-only text nodes",
        )

    def add_common(sub):
        sub.add_argument("-o", "--output", default="-", help="output file")
        add_keep_whitespace(sub)

    def add_engine(sub):
        sub.add_argument(
            "--engine",
            choices=available_engines(),
            default="buld",
            help="diff engine (default: buld)",
        )

    def add_obs(sub):
        sub.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="write the run's span tree as JSON lines "
                 "(render with 'obs render FILE')",
        )
        sub.add_argument(
            "--trace-memory",
            action="store_true",
            help="also record tracemalloc peak memory per span (slower)",
        )
        sub.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="write the run's metrics here",
        )
        sub.add_argument(
            "--metrics-format",
            choices=("prometheus", "json"),
            default="prometheus",
            help="metrics file format (default: prometheus text)",
        )

    sub = subparsers.add_parser("diff", help="compute a delta")
    sub.add_argument("old")
    sub.add_argument("new")
    sub.add_argument("--no-ids", action="store_true",
                     help="ignore DTD ID attributes")
    sub.add_argument("--passes", type=int, default=2,
                     help="phase-4 optimization passes")
    sub.add_argument("--new-xidmap", default=None,
                     help="write the new version's XID-map here "
                          "(needed to later revert from the new version)")
    add_common(sub)
    add_engine(sub)
    add_obs(sub)
    sub.set_defaults(func=_cmd_diff)

    sub = subparsers.add_parser("apply", help="apply a delta forward")
    sub.add_argument("document")
    sub.add_argument("delta")
    sub.add_argument("--verify", action="store_true")
    sub.add_argument("--xidmap", default=None,
                     help="XID-map of the input document "
                          "(default: postorder labelling)")
    sub.add_argument("--xidmap-out", default=None,
                     help="write the result's XID-map here")
    add_common(sub)
    sub.set_defaults(func=_cmd_apply)

    sub = subparsers.add_parser("revert", help="apply a delta backward")
    sub.add_argument("document")
    sub.add_argument("delta")
    sub.add_argument("--verify", action="store_true")
    sub.add_argument("--xidmap", default=None,
                     help="XID-map of the input (new) document; produce it "
                          "with 'diff --new-xidmap' or 'apply --xidmap-out'")
    sub.add_argument("--xidmap-out", default=None,
                     help="write the result's XID-map here")
    add_common(sub)
    sub.set_defaults(func=_cmd_revert)

    sub = subparsers.add_parser("invert", help="invert a delta")
    sub.add_argument("delta")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=_cmd_invert)

    sub = subparsers.add_parser("stats", help="diff with phase timings")
    sub.add_argument("old")
    sub.add_argument("new")
    sub.add_argument("--no-ids", action="store_true")
    sub.add_argument("--passes", type=int, default=2)
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of text")
    add_common(sub)
    add_engine(sub)
    add_obs(sub)
    sub.set_defaults(func=_cmd_stats)

    sub = subparsers.add_parser(
        "sitediff", help="diff two directories of XML documents"
    )
    sub.add_argument("old_dir")
    sub.add_argument("new_dir")
    sub.add_argument("--pattern", default="*.xml",
                     help="filename glob (default *.xml)")
    sub.add_argument("--deltas-dir", default=None,
                     help="write per-document delta files here")
    sub.add_argument("--store", default=None, metavar="URL",
                     help="also commit added/changed documents into this "
                          "version store (file://, sqlite://, "
                          "or a bare path)")
    sub.add_argument("-o", "--output", default="-")
    add_obs(sub)
    sub.set_defaults(func=_cmd_sitediff)

    sub = subparsers.add_parser(
        "fsck", help="check (and repair) a version store"
    )
    sub.add_argument("store",
                     help="store URL or path (file://, sqlite://, "
                          "or a bare path — the layout is sniffed)")
    sub.add_argument("--repair", action="store_true",
                     help="apply the deterministic repairs "
                          "(replay deltas, rebuild checksums, drop orphans)")
    sub.add_argument("--durability", choices=DURABILITY_LEVELS,
                     default="none",
                     help="write policy for repairs (default: none)")
    sub.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write the run's metrics here")
    sub.add_argument("--metrics-format",
                     choices=("prometheus", "json"), default="prometheus",
                     help="metrics file format (default: prometheus text)")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=_cmd_fsck)

    sub = subparsers.add_parser(
        "store", help="inspect and update a version store by URL"
    )
    store_sub = sub.add_subparsers(dest="store_command", required=True)

    def add_store_url(leaf):
        leaf.add_argument(
            "--store", required=True, metavar="URL",
            help="store URL or path (file://, sqlite://, "
                 "or a bare path)",
        )

    leaf = store_sub.add_parser(
        "ls", help="list documents with their current versions"
    )
    add_store_url(leaf)
    leaf.add_argument("--sizes", action="store_true",
                      help="also show per-document on-disk bytes "
                           "(via the store-health collector)")
    leaf.add_argument("-o", "--output", default="-")
    leaf.set_defaults(func=_cmd_store_ls)

    leaf = store_sub.add_parser(
        "stats", help="store-health report: chain-length histogram, "
                      "checkpoint coverage/staleness, bytes by kind "
                      "(schema repro.storewatch/3)"
    )
    add_store_url(leaf)
    leaf.add_argument("--json", action="store_true",
                      help="emit the full JSON report instead of the "
                           "text summary")
    leaf.add_argument("-o", "--output", default="-")
    leaf.set_defaults(func=_cmd_store_stats)

    leaf = store_sub.add_parser(
        "log", help="list the versions of one document"
    )
    leaf.add_argument("doc_id")
    add_store_url(leaf)
    leaf.add_argument("-o", "--output", default="-")
    leaf.set_defaults(func=_cmd_store_log)

    leaf = store_sub.add_parser(
        "cat", help="print a stored version (past versions are "
                    "reconstructed from the nearest stored state)"
    )
    leaf.add_argument("doc_id")
    add_store_url(leaf)
    leaf.add_argument("--version", type=int, default=None,
                      help="version to print (default: current)")
    leaf.add_argument("-o", "--output", default="-")
    leaf.set_defaults(func=_cmd_store_cat)

    leaf = store_sub.add_parser(
        "commit", help="commit a document file as the next version "
                       "(creates the document, and the store, if new); "
                       "--url commits through a running diff service "
                       "instead of opening the store directly"
    )
    leaf.add_argument("doc_id")
    leaf.add_argument("document", help="XML file (or '-' for stdin)")
    leaf.add_argument(
        "--store", default=None, metavar="URL",
        help="store URL or path (file://, sqlite://, "
             "or a bare path); "
             "exactly one of --store / --url is required",
    )
    leaf.add_argument(
        "--url", default=None, metavar="http://HOST:PORT",
        help="commit via a diff service (retries with backoff under an "
             "automatic Idempotency-Key; see docs/server.md)",
    )
    leaf.add_argument(
        "--repo", dest="repo_name", default=None, metavar="NAME",
        help="server-side store name under /repos/NAME "
             "(required with --url)",
    )
    leaf.add_argument("--idempotency-key", default=None, metavar="KEY",
                      help="explicit Idempotency-Key (default: a fresh "
                           "uuid per invocation)")
    leaf.add_argument("--timeout", type=float, default=30.0,
                      metavar="SECONDS",
                      help="per-socket-operation timeout with --url "
                           "(default 30)")
    leaf.add_argument("--retries", type=int, default=3,
                      help="retry budget with --url (default 3)")
    leaf.add_argument("--deadline-ms", type=int, default=None,
                      metavar="MS",
                      help="send X-Repro-Deadline-Ms with --url "
                           "(default: server default)")
    add_keep_whitespace(leaf)
    add_obs(leaf)
    leaf.set_defaults(func=_cmd_store_commit)

    sub = subparsers.add_parser(
        "validate", help="check a delta file for structural problems"
    )
    sub.add_argument("delta")
    sub.add_argument("--base", default=None,
                     help="base document for external checks")
    add_keep_whitespace(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subparsers.add_parser(
        "explain", help="describe the changes between two documents in prose"
    )
    sub.add_argument("old")
    sub.add_argument("new")
    sub.add_argument("--no-ids", action="store_true")
    sub.add_argument("--passes", type=int, default=2)
    sub.add_argument("--json", action="store_true",
                     help="emit a machine-readable operations list")
    sub.add_argument("--why", action="store_true",
                     help="record match provenance and attach a 'because' "
                          "line to every operation")
    add_common(sub)
    sub.set_defaults(func=_cmd_explain)

    sub = subparsers.add_parser(
        "audit",
        help="diff with match provenance and gate on unmatched weight",
    )
    sub.add_argument("old")
    sub.add_argument("new")
    sub.add_argument("--no-ids", action="store_true")
    sub.add_argument("--passes", type=int, default=2)
    sub.add_argument("--max-unmatched", type=float, default=0.5,
                     metavar="RATIO",
                     help="exit 1 when the combined unmatched weight ratio "
                          "exceeds RATIO (default 0.5)")
    sub.add_argument("--ground-truth", default=None, metavar="DELTA",
                     help="a perfect delta (e.g. 'simulate --delta-output') "
                          "to score the computed delta's size against")
    sub.add_argument("--max-size-ratio", type=float, default=None,
                     metavar="RATIO",
                     help="with --ground-truth: exit 1 when computed/perfect "
                          "delta bytes exceeds RATIO")
    sub.add_argument("--json", action="store_true",
                     help="emit the full ProvenanceReport as JSON")
    sub.add_argument("--summary", action="store_true",
                     help="with --json: omit the per-node listing")
    add_common(sub)
    sub.set_defaults(func=_cmd_audit)

    sub = subparsers.add_parser(
        "htmlize", help="convert (tag-soup) HTML to well-formed XML"
    )
    sub.add_argument("html")
    sub.add_argument("--keep-comments", action="store_true")
    sub.add_argument("--pretty", action="store_true")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=_cmd_htmlize)

    sub = subparsers.add_parser(
        "infer-dtd", help="infer a DTD (incl. ID attributes) from documents"
    )
    sub.add_argument("documents", nargs="+")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=_cmd_infer_dtd)

    sub = subparsers.add_parser(
        "merge", help="three-way merge two edits of a common base"
    )
    sub.add_argument("base")
    sub.add_argument("ours")
    sub.add_argument("theirs")
    sub.add_argument("--prefer", choices=("ours", "theirs"), default="ours")
    sub.add_argument("--strict", action="store_true",
                     help="exit nonzero when conflicts were detected")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=_cmd_merge)

    sub = subparsers.add_parser(
        "aggregate", help="compose a chain of deltas into one"
    )
    sub.add_argument("base", help="the version the first delta applies to")
    sub.add_argument("deltas", nargs="+")
    sub.add_argument("-o", "--output", default="-")
    add_keep_whitespace(sub)
    sub.set_defaults(func=_cmd_aggregate)

    sub = subparsers.add_parser(
        "obs", help="observability utilities (traces)"
    )
    obs_sub = sub.add_subparsers(dest="obs_command", required=True)
    render = obs_sub.add_parser(
        "render", help="pretty-print a JSON-lines trace as a span tree"
    )
    render.add_argument("trace_file",
                        help="trace file written by --trace or the "
                             "server's traces.jsonl "
                             "('-' reads stdin, like every other command)")
    render.add_argument("--request-id", default=None, metavar="ID",
                        help="only render spans tagged with this "
                             "X-Repro-Request-Id (for the server's "
                             "multi-request traces.jsonl)")
    render.add_argument("--no-attrs", action="store_true",
                        help="hide span attributes")
    render.add_argument("-o", "--output", default="-")
    render.set_defaults(func=_cmd_obs_render)

    sub = subparsers.add_parser(
        "serve",
        help="run the HTTP diff service (see docs/server.md)",
    )
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8080,
                     help="bind port; 0 picks an ephemeral port "
                          "(default 8080)")
    sub.add_argument("--repo", action="append", metavar="NAME=STORE_URL",
                     help="expose a version store as /repos/NAME/... "
                          "(repeatable; STORE_URL as for the store "
                          "command)")
    sub.add_argument("--workers", type=int, default=2,
                     help="CPU worker threads for diffs and commits "
                          "(default 2)")
    sub.add_argument("--queue-limit", type=int, default=64,
                     help="jobs allowed to wait before requests are shed "
                          "with 429 (default 64)")
    sub.add_argument("--batch-max", type=int, default=8,
                     help="max queued jobs executed per worker batch "
                          "(default 8)")
    sub.add_argument("--retry-after", type=float, default=1.0,
                     metavar="SECONDS",
                     help="Retry-After value sent with 429/503 "
                          "(default 1)")
    sub.add_argument("--default-deadline", type=float, default=30.0,
                     metavar="SECONDS",
                     help="per-request budget when the client sends no "
                          "X-Repro-Deadline-Ms (default 30)")
    sub.add_argument("--max-deadline", type=float, default=120.0,
                     metavar="SECONDS",
                     help="ceiling a client-requested deadline is "
                          "clamped to (default 120)")
    sub.add_argument("--trace-sample", type=int, default=0, metavar="N",
                     help="trace every Nth pooled request and echo the "
                          "span id in X-Repro-Span-Id (default 0: off)")
    sub.add_argument("--trace-dir", default=None, metavar="DIR",
                     help="append sampled span trees to DIR/traces.jsonl "
                          "(rotating; each line carries its request id — "
                          "filter with 'obs render --request-id')")
    sub.add_argument("--log-level", choices=log_levels,
                     default="info",
                     help="threshold for structured events (default: info)")
    sub.add_argument("--log-out", default=None, metavar="FILE",
                     help="append structured events (repro.log/1 JSON "
                          "lines) here; the in-memory ring behind GET "
                          "/logz fills either way")
    sub.add_argument("--durability", choices=DURABILITY_LEVELS,
                     default="none",
                     help="write policy for store commits (default: none)")
    sub.add_argument("--scrub-interval", type=float, default=0.0,
                     metavar="SECONDS",
                     help="re-verify store checksums in the background "
                          "every SECONDS (0 disables; findings degrade "
                          "/healthz and emit scrub.finding events)")
    sub.add_argument("--scrub-batch", type=int, default=16,
                     help="max documents re-verified per scrub tick "
                          "(default 16)")
    add_engine(sub)
    sub.set_defaults(func=_cmd_serve)

    sub = subparsers.add_parser("generate", help="generate a synthetic doc")
    sub.add_argument("--kind", choices=("generic", "catalog"),
                     default="generic")
    sub.add_argument("--nodes", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--with-ids", action="store_true",
                     help="declare catalog sku attributes as IDs")
    sub.add_argument("--pretty", action="store_true")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=_cmd_generate)

    sub = subparsers.add_parser(
        "simulate", help="apply simulated changes to a document"
    )
    sub.add_argument("document")
    sub.add_argument("--delete", type=float, default=0.1)
    sub.add_argument("--update", type=float, default=0.1)
    sub.add_argument("--insert", type=float, default=0.1)
    sub.add_argument("--move", type=float, default=0.1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--delta-output", default=None,
                     help="also write the perfect delta here")
    add_common(sub)
    sub.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XmlParseError as error:
        # Malformed input is the caller's problem, not ours: exit 2 with
        # the compiler-style file:line:column one-liner.
        print(f"error: {error.location()}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
