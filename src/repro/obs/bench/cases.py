"""The registered experiments: every figure of the paper's Section 6.

Importing this module populates the experiment registry with the eight
workloads of DESIGN.md — FIG4 (phase times vs size), FIG5 (delta quality
vs the synthetic perfect delta), FIG6 (delta over Unix-diff size), SITE
(the INRIA-scale snapshot), COMP (baseline comparison), QUAL (distance
from the move-less optimum), ABL (tuning-knob ablations) and STORE (the
commit-loop reuse experiment).  Each has a **fast** tier (seconds; the
CI ``perf-smoke`` workload) and a **full** tier (the paper-scale sweep
behind ``python -m benchmarks.report``).

Everything is seed-driven, so quality metrics (delta bytes, ratios,
chain digests) are bit-stable across runs and machines — only the
timings move, which is exactly what the ``--compare`` gate assumes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import tempfile

from repro.core import (
    DiffConfig,
    delta_byte_size,
    diff_with_stats,
    serialize_delta,
)
from repro.obs.bench.core import BenchCase, Experiment, register_experiment
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    WebCorpus,
    WebCorpusConfig,
    evolve_site,
    generate_catalog,
    generate_document,
    generate_site_snapshot,
    simulate_changes,
)
from repro.xmlkit import parse, serialize, serialize_bytes

__all__ = ["EXPERIMENT_ORDER"]

#: Canonical run/report order (matches DESIGN.md and the README table).
EXPERIMENT_ORDER = (
    "FIG4", "FIG5", "FIG6", "SITE", "COMP", "QUAL", "ABL", "STORE", "SHARD",
    "SERVE", "CHAOS",
)

@functools.lru_cache(maxsize=None)
def _simulated_pair(nodes, doc_seed, sim_seed, rate=0.10):
    """(old, new, perfect_delta) masters; callers must clone before diffing."""
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=doc_seed))
    result = simulate_changes(
        base, SimulatorConfig(rate, rate, rate, rate, seed=sim_seed)
    )
    return base, result.new_document, result.perfect_delta


def _clone_pair(old, new):
    return old.clone(keep_xids=False), new.clone(keep_xids=False)


# ---------------------------------------------------------------------------
# FIG4 — time cost for the different phases, log-log vs total size
# ---------------------------------------------------------------------------


def _fig4_cases(fast: bool) -> list[BenchCase]:
    sizes = [200, 600, 2_000] if fast else [
        200, 600, 2_000, 6_000, 20_000, 60_000, 150_000
    ]
    cases = []
    for nodes in sizes:
        def setup(nodes=nodes):
            old, new, _ = _simulated_pair(nodes, 1, 2)
            return old, new

        def run(prepared, obs):
            old, new = prepared
            delta, stats = diff_with_stats(old, new, **obs.diff_kwargs)
            return {
                "total_bytes": (
                    len(serialize_bytes(old)) + len(serialize_bytes(new))
                ),
                "nodes": stats.old_nodes,
                "delta_bytes": delta_byte_size(delta),
            }

        cases.append(
            BenchCase(
                name=f"nodes={nodes}",
                setup=setup,
                prepare=lambda state: _clone_pair(*state),
                run=run,
                params={"nodes": nodes, "change_mix": 0.10},
            )
        )
    return cases


def _fig4_summary(cases: list[dict]) -> dict:
    points = sorted(
        (case["quality"]["total_bytes"], case["wall_seconds"]["median"])
        for case in cases
    )
    summary = {}
    if len(points) >= 2 and points[0][0] != points[-1][0]:
        summary["loglog_slope"] = (
            math.log(points[-1][1]) - math.log(points[0][1])
        ) / (math.log(points[-1][0]) - math.log(points[0][0]))
    return summary


register_experiment(
    Experiment(
        id="FIG4",
        title="Time cost for the different phases (Figure 4)",
        cases=_fig4_cases,
        summarize=_fig4_summary,
        notes=(
            "change mix: 10% delete/update/insert/move per node "
            "(the paper's setting)",
            "paper: 'almost linear in time' — loglog_slope ~1 "
            "(quadratic would be ~2)",
        ),
    )
)


# ---------------------------------------------------------------------------
# FIG5 — computed delta size vs synthetic (perfect) delta size
# ---------------------------------------------------------------------------


def _fig5_cases(fast: bool) -> list[BenchCase]:
    sizes = [300, 1_000] if fast else [300, 1_000, 4_000, 16_000]
    rates = [0.01, 0.10, 0.30] if fast else [0.01, 0.03, 0.10, 0.30, 0.50]
    cases = []
    for nodes in sizes:
        for rate in rates:
            def setup(nodes=nodes, rate=rate):
                return _simulated_pair(
                    nodes, doc_seed=nodes, sim_seed=int(rate * 1000), rate=rate
                )

            def run(prepared, obs, rate=rate):
                old, new, perfect = prepared
                delta, _ = diff_with_stats(old, new, **obs.diff_kwargs)
                perfect_bytes = delta_byte_size(perfect)
                computed_bytes = delta_byte_size(delta)
                return {
                    "perfect_bytes": perfect_bytes,
                    "computed_bytes": computed_bytes,
                    "ratio": (
                        computed_bytes / perfect_bytes if perfect_bytes else 1.0
                    ),
                }

            cases.append(
                BenchCase(
                    name=f"nodes={nodes},rate={rate:.2f}",
                    setup=setup,
                    prepare=lambda state: (*_clone_pair(state[0], state[1]),
                                           state[2]),
                    run=run,
                    params={"nodes": nodes, "rate": rate},
                    gated_quality=("ratio",),
                )
            )
    return cases


def _fig5_summary(cases: list[dict]) -> dict:
    ratios = [case["quality"]["ratio"] for case in cases]
    mid = [
        case["quality"]["ratio"]
        for case in cases
        if 0.2 <= case["params"]["rate"] <= 0.4
    ]
    summary = {
        "average_ratio": sum(ratios) / len(ratios),
        "best_ratio": min(ratios),
    }
    if mid:
        summary["mid_rate_ratio"] = sum(mid) / len(mid)
    return summary


register_experiment(
    Experiment(
        id="FIG5",
        title="Quality of Diff: computed vs synthetic delta (Figure 5)",
        cases=_fig5_cases,
        summarize=_fig5_summary,
        notes=(
            "ratio = computed delta bytes / perfect synthetic delta bytes",
            "paper: 'about fifty percent larger' at ~30% change; sometimes "
            "beats the synthetic delta",
        ),
    )
)


# ---------------------------------------------------------------------------
# FIG6 — delta size over Unix diff size, on the simulated web corpus
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fig6_corpus(fast: bool):
    """[(old_master, new_master, doc_bytes, unix_size)] for the weekly set."""
    from repro.baselines import flatten, unix_diff_size

    def line_form(document):
        return "".join(token + "\n" for token in flatten(document))

    corpus = WebCorpus(
        WebCorpusConfig(
            documents=6 if fast else 40,
            min_bytes=400,
            max_bytes=60_000 if fast else 600_000,
            seed=6,
        )
    )
    pairs = []
    for index in range(corpus.config.documents):
        old, new = corpus.weekly_versions(index, weeks=1)
        unix_size = unix_diff_size(line_form(old), line_form(new))
        if unix_size == 0:
            continue
        pairs.append((old, new, len(serialize_bytes(old)), unix_size))
    return pairs


@functools.lru_cache(maxsize=None)
def _fig6_quiet_corpus():
    """Large documents with the quiet change profile (the <10% claim)."""
    corpus = WebCorpus(
        WebCorpusConfig(documents=40, min_bytes=400, max_bytes=600_000, seed=6)
    )
    pairs = []
    for index in range(corpus.config.documents):
        old = corpus.generate(index)
        doc_bytes = len(serialize_bytes(old))
        if doc_bytes <= 100_000:
            continue
        quiet = SimulatorConfig(
            delete_probability=0.002,
            update_probability=0.01,
            insert_probability=0.003,
            move_probability=0.001,
            seed=index + 900,
        )
        new = simulate_changes(old, quiet).new_document
        pairs.append((old, new, doc_bytes))
    return pairs


def _fig6_cases(fast: bool) -> list[BenchCase]:
    def run_weekly(prepared, obs):
        ratios, fractions = [], []
        delta_total = 0
        for old, new, doc_bytes, unix_size in prepared:
            delta, _ = diff_with_stats(old, new, **obs.diff_kwargs)
            delta_bytes = delta_byte_size(delta)
            delta_total += delta_bytes
            ratios.append(delta_bytes / unix_size)
            fractions.append(delta_bytes / doc_bytes)
        return {
            "documents": len(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
            "max_ratio": max(ratios),
            "mean_doc_fraction": sum(fractions) / len(fractions),
            "delta_bytes": delta_total,
        }

    cases = [
        BenchCase(
            name="weekly-corpus",
            setup=lambda fast=fast: _fig6_corpus(fast),
            prepare=lambda pairs: [
                (*_clone_pair(old, new), doc_bytes, unix_size)
                for old, new, doc_bytes, unix_size in pairs
            ],
            run=run_weekly,
            params={
                "documents": 6 if fast else 40,
                "max_bytes": 60_000 if fast else 600_000,
            },
            gated_quality=("mean_ratio", "delta_bytes"),
        )
    ]
    if not fast:
        def run_quiet(prepared, obs):
            fractions = []
            for old, new, doc_bytes in prepared:
                delta, _ = diff_with_stats(old, new, **obs.diff_kwargs)
                fractions.append(delta_byte_size(delta) / doc_bytes)
            return {
                "documents": len(fractions),
                "mean_doc_fraction": sum(fractions) / len(fractions),
            }

        cases.append(
            BenchCase(
                name="delta10-quiet",
                setup=_fig6_quiet_corpus,
                prepare=lambda pairs: [
                    (*_clone_pair(old, new), doc_bytes)
                    for old, new, doc_bytes in pairs
                ],
                run=run_quiet,
                params={"min_doc_bytes": 100_000, "profile": "quiet"},
                gated_quality=("mean_doc_fraction",),
            )
        )
    return cases


def _fig6_summary(cases: list[dict]) -> dict:
    summary = {}
    for case in cases:
        if case["name"] == "weekly-corpus":
            summary["average_delta_over_unix"] = case["quality"]["mean_ratio"]
        if case["name"] == "delta10-quiet":
            summary["quiet_profile_doc_fraction"] = case["quality"][
                "mean_doc_fraction"
            ]
    return summary


register_experiment(
    Experiment(
        id="FIG6",
        title="Delta over Unix Diff size ratio (Figure 6)",
        cases=_fig6_cases,
        summarize=_fig6_summary,
        notes=(
            "workload: simulated weekly-changing web XML (see DESIGN.md)",
            "paper: 'on average roughly the size of the Unix Diff result'; "
            "quiet-profile large documents stay 'less than 10 percent of "
            "the size of the document'",
        ),
    )
)


# ---------------------------------------------------------------------------
# SITE — the INRIA web-site snapshot experiment
# ---------------------------------------------------------------------------


def _site_cases(fast: bool) -> list[BenchCase]:
    pages = 300 if fast else 14_000

    @functools.lru_cache(maxsize=None)
    def setup():
        old = generate_site_snapshot(pages=pages, sections=20, seed=31)
        new = evolve_site(old, seed=32)
        return serialize(old), serialize(new)

    def run(prepared, obs):
        old_text, new_text = prepared
        # read/write stages open their own stage: spans so the breakdown
        # table shows the paper's full end-to-end pipeline, not just the
        # engine's five phases.
        with obs.tracer.span("stage:read"):
            parsed_old = parse(old_text)
            parsed_new = parse(new_text)
        delta, stats = diff_with_stats(parsed_old, parsed_new,
                                       **obs.diff_kwargs)
        with obs.tracer.span("stage:write-delta"):
            delta_text = serialize_delta(delta)
        return {
            "snapshot_bytes": len(old_text.encode()),
            "nodes": stats.old_nodes,
            "delta_bytes": len(delta_text.encode()),
            "operations": sum(stats.operation_counts.values()),
        }

    return [
        BenchCase(
            name=f"pages={pages}",
            setup=setup,
            run=run,
            params={"pages": pages, "sections": 20},
            gated_quality=("delta_bytes",),
        )
    ]


def _site_summary(cases: list[dict]) -> dict:
    case = cases[0]
    stages = case["stage_seconds"]
    core = sum(
        stages[name]["median"]
        for name in ("match-subtrees", "propagate")
        if name in stages
    )
    total = case["wall_seconds"]["median"]
    return {
        "core_seconds": core,
        "core_fraction": core / total if total else 0.0,
        "snapshot_mb": case["quality"]["snapshot_bytes"] / 1e6,
        "delta_mb": case["quality"]["delta_bytes"] / 1e6,
    }


register_experiment(
    Experiment(
        id="SITE",
        title="Web-site snapshot diff (Section 6.2)",
        cases=_site_cases,
        summarize=_site_summary,
        notes=(
            "paper: ~14k pages, ~5 MB; core (phases 3+4) <2s of ~30s "
            "end to end; ~1 MB delta",
            "stage:read / stage:write-delta are the parse and serialize "
            "steps around the engine pipeline",
        ),
    )
)


# ---------------------------------------------------------------------------
# COMP — baselines: speed scaling and delta sizes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _comp_pair(products: int):
    old = generate_catalog(products=products, categories=3, seed=21)
    result = simulate_changes(
        old, SimulatorConfig(0.05, 0.10, 0.05, 0.05, seed=22)
    )
    return old, result.new_document


def _comp_cases(fast: bool) -> list[BenchCase]:
    product_counts = [25, 50] if fast else [25, 50, 100, 200, 400]
    engines = ("buld", "lu", "ladiff")
    cases = []
    for products in product_counts:
        for engine in engines:
            def run(prepared, obs, engine=engine):
                old, new = prepared
                delta, _ = diff_with_stats(
                    old, new, engine=engine, **obs.diff_kwargs
                )
                return {"delta_bytes": delta_byte_size(delta)}

            cases.append(
                BenchCase(
                    name=f"engine={engine},products={products}",
                    setup=lambda products=products: _comp_pair(products),
                    prepare=lambda state: _clone_pair(*state),
                    run=run,
                    params={"engine": engine, "products": products},
                    gated_quality=("delta_bytes",),
                )
            )
    return cases


def _comp_summary(cases: list[dict]) -> dict:
    by_engine: dict[str, list[tuple[int, float]]] = {}
    for case in cases:
        by_engine.setdefault(case["params"]["engine"], []).append(
            (case["params"]["products"], case["wall_seconds"]["median"])
        )
    summary = {}
    for engine, points in by_engine.items():
        points.sort()
        if len(points) >= 2 and points[0][1] > 0:
            summary[f"{engine}_scaling"] = points[-1][1] / points[0][1]
    return summary


register_experiment(
    Experiment(
        id="COMP",
        title="BULD vs baselines (Section 3 claims)",
        cases=_comp_cases,
        summarize=_comp_summary,
        notes=(
            "workload: product catalogs (wide same-label parents)",
            "paper: BULD is O(n log n); Lu/Selkow and LaDiff degrade "
            "quadratically as same-label sibling lists grow",
        ),
    )
)


# ---------------------------------------------------------------------------
# QUAL — distance from the (move-less) optimum on small trees
# ---------------------------------------------------------------------------


def _qual_cases(fast: bool) -> list[BenchCase]:
    from repro.baselines import tree_edit_distance
    from repro.obs.provenance import ProvenanceRecorder, build_report

    seeds = range(4) if fast else range(16)
    cases = []
    for seed in seeds:
        @functools.lru_cache(maxsize=None)
        def setup(seed=seed):
            base, new_doc, _ = _simulated_pair(
                90, doc_seed=seed, sim_seed=seed + 500, rate=0.08
            )
            optimal = tree_edit_distance(
                base.clone(keep_xids=False), new_doc.clone(keep_xids=False)
            )
            # Provenance pass on clones, in untimed setup: the unmatched
            # weight ratio is deterministic for the pair, so gating on it
            # costs the timed run() nothing (the <2% recorder-off
            # overhead budget stays intact).
            audit_old, audit_new = _clone_pair(base, new_doc)
            recorder = ProvenanceRecorder()
            audit_delta, _ = diff_with_stats(
                audit_old, audit_new, recorder=recorder
            )
            report = build_report(
                recorder, audit_old, audit_new, audit_delta
            )
            return base, new_doc, optimal, report.unmatched_weight_ratio

        def run(prepared, obs):
            from repro.core import xid_index
            from repro.core.xid import subtree_xids

            old, new, optimal, unmatched_ratio = prepared
            delta, _ = diff_with_stats(old, new, **obs.diff_kwargs)
            index = xid_index(old)
            cost = 0.0
            for operation in delta.operations:
                if operation.kind in ("delete", "insert"):
                    cost += len(subtree_xids(operation.subtree))
                elif operation.kind == "move":
                    node = index.get(operation.xid)
                    cost += 2 * (
                        node.subtree_size() if node is not None else 1
                    )
                else:
                    cost += 1
            return {
                "optimal_cost": optimal,
                "buld_cost": cost,
                "ratio": cost / optimal if optimal else 1.0,
                "unmatched_weight_ratio": unmatched_ratio,
            }

        cases.append(
            BenchCase(
                name=f"case={seed}",
                setup=setup,
                prepare=lambda state: (
                    *_clone_pair(state[0], state[1]), state[2], state[3]
                ),
                run=run,
                params={"seed": seed, "nodes": 90, "rate": 0.08},
                gated_quality=("ratio", "unmatched_weight_ratio"),
            )
        )
    return cases


def _qual_summary(cases: list[dict]) -> dict:
    ratios = [case["quality"]["ratio"] for case in cases]
    unmatched = [
        case["quality"]["unmatched_weight_ratio"] for case in cases
    ]
    return {
        "average_cost_ratio": sum(ratios) / len(ratios),
        "average_unmatched_weight_ratio": sum(unmatched) / len(unmatched),
    }


register_experiment(
    Experiment(
        id="QUAL",
        title="BULD cost vs exact tree-edit optimum (Section 5)",
        cases=_qual_cases,
        summarize=_qual_summary,
        notes=(
            "cost model: nodes deleted + inserted + values updated; moves "
            "counted as delete+insert of the subtree (ZS has no moves)",
            "paper: 'reasonably close to the optimal' (1.00 = optimal)",
        ),
    )
)


# ---------------------------------------------------------------------------
# ABL — one case for every Section 5.2 tuning knob
# ---------------------------------------------------------------------------

_ABL_CONFIGS = (
    ("defaults", {}),
    ("no-id-attributes", {"use_id_attributes": False}),
    ("inferred-id-attributes", {"infer_id_attributes": True}),
    ("flat-text-weight", {"log_text_weight": False}),
    ("eager-down-propagation", {"lazy_down": False}),
    ("optimization-passes=0", {"optimization_passes": 0}),
    ("optimization-passes=4", {"optimization_passes": 4}),
    ("candidate-cap=1", {"max_candidates": 1}),
    ("ancestor-depth-factor=0", {"ancestor_depth_factor": 0.0}),
    ("ancestor-depth-factor=3", {"ancestor_depth_factor": 3.0}),
    ("chunked-moves", {"exact_move_threshold": 0}),
    ("fast-signatures", {"fast_signatures": True}),
)


def _abl_cases(fast: bool) -> list[BenchCase]:
    nodes = 800 if fast else 8_000

    def setup(nodes=nodes):
        old, new, _ = _simulated_pair(nodes, doc_seed=97, sim_seed=98)
        return old, new

    cases = []
    for name, overrides in _ABL_CONFIGS:
        def run(prepared, obs, overrides=overrides):
            old, new = prepared
            delta, _ = diff_with_stats(
                old, new, DiffConfig(**overrides), **obs.diff_kwargs
            )
            return {"delta_bytes": delta_byte_size(delta)}

        cases.append(
            BenchCase(
                name=name,
                setup=setup,
                prepare=lambda state: _clone_pair(*state),
                run=run,
                params={"nodes": nodes, "overrides": dict(overrides)},
                gated_quality=("delta_bytes",),
            )
        )

    def run_moves(prepared, obs):
        from repro.core.transform import moves_to_edits

        old, new = prepared
        delta, _ = diff_with_stats(old, new, **obs.diff_kwargs)
        rewritten = moves_to_edits(delta, old)
        return {
            "delta_bytes": delta_byte_size(delta),
            "as_edits_bytes": delta_byte_size(rewritten),
            "moves": len(delta.by_kind("move")),
        }

    cases.append(
        BenchCase(
            name="moves-vs-edits",
            setup=setup,
            prepare=lambda state: _clone_pair(*state),
            run=run_moves,
            params={"nodes": nodes},
            gated_quality=("delta_bytes", "as_edits_bytes"),
        )
    )
    return cases


def _abl_summary(cases: list[dict]) -> dict:
    default = next(
        (case for case in cases if case["name"] == "defaults"), None
    )
    summary = {}
    if default is not None:
        summary["default_wall_seconds"] = default["wall_seconds"]["median"]
        summary["default_delta_bytes"] = default["quality"]["delta_bytes"]
    return summary


register_experiment(
    Experiment(
        id="ABL",
        title="Tuning-knob ablations (Section 5.2 + conclusion)",
        cases=_abl_cases,
        summarize=_abl_summary,
        notes=(
            "one case per DiffConfig knob, same document pair throughout",
            "moves-vs-edits measures the conclusion's trade-off: the same "
            "delta with moves represented as delete+insert",
        ),
    )
)


# ---------------------------------------------------------------------------
# STORE — commit-loop reuse across version-store commits
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _store_chain(nodes: int, commits: int):
    """(base, [version...]) masters for the revisit-crawler workload."""
    base, _, _ = _simulated_pair(nodes, doc_seed=71, sim_seed=72)
    versions = []
    current = base
    for step in range(commits):
        result = simulate_changes(
            current, SimulatorConfig(0.03, 0.08, 0.03, 0.03, seed=73 + step)
        )
        current = result.new_document
        versions.append(current)
    return base, versions


def _store_cases(fast: bool) -> list[BenchCase]:
    from repro.versioning import DirectoryRepository, VersionStore

    class SeedLikeRepository(DirectoryRepository):
        """Seed behaviour: every load re-parses and returns a copy."""

        def load_current(self, doc_id, readonly=False):
            self._current_cache.clear()
            return super().load_current(doc_id)

    nodes = 600 if fast else 8_000
    commits = 5 if fast else 10
    configurations = (
        ("seed", SeedLikeRepository, False),
        ("parse-cache", DirectoryRepository, False),
        ("parse-cache+annotations", DirectoryRepository, True),
    )

    cases = []
    for name, repository_class, annotation_cache in configurations:
        def run(prepared, obs, repository_class=repository_class,
                annotation_cache=annotation_cache):
            base, versions = prepared
            with tempfile.TemporaryDirectory() as tmp:
                store = VersionStore(
                    repository_class(tmp),
                    annotation_cache=annotation_cache,
                    tracer=obs.tracer,
                    metrics=obs.metrics,
                )
                store.create("doc", base)
                for version in versions:
                    store.commit("doc", version)
                chain = b"".join(
                    serialize_delta(delta).encode()
                    for delta in store.deltas("doc")
                )
                hits = store.last_stats.counters.get(
                    "annotation_cache_hits", 0
                )
            return {
                "chain_bytes": len(chain),
                "chain_sha256": hashlib.sha256(chain).hexdigest(),
                "annotation_cache_hits": hits,
            }

        cases.append(
            BenchCase(
                name=name,
                setup=lambda: _store_chain(nodes, commits),
                prepare=lambda state: (
                    state[0].clone(keep_xids=False),
                    [v.clone(keep_xids=False) for v in state[1]],
                ),
                run=run,
                params={
                    "nodes": nodes,
                    "commits": commits,
                    "annotation_cache": annotation_cache,
                    "repository": repository_class.__name__,
                },
                gated_quality=("chain_bytes",),
            )
        )
    return cases


def _store_summary(cases: list[dict]) -> dict:
    walls = {case["name"]: case["wall_seconds"]["median"] for case in cases}
    digests = {case["quality"]["chain_sha256"] for case in cases}
    summary = {"chains_identical": 1 if len(digests) == 1 else 0}
    seed = walls.get("seed")
    if seed:
        for name, wall in walls.items():
            if name != "seed" and wall:
                summary[f"speedup_{name}"] = seed / wall
    return summary


register_experiment(
    Experiment(
        id="STORE",
        title="Version-store commit loop (10-revisit crawler case)",
        cases=_store_cases,
        summarize=_store_summary,
        notes=(
            "seed behaviour re-parses and re-annotates the stored current "
            "version on every commit; the parsed-snapshot cache and the "
            "AnnotationStore each remove one recomputation",
            "chains_identical=1 certifies all configurations produced "
            "byte-identical delta chains",
        ),
    )
)


# ---------------------------------------------------------------------------
# SHARD — warehouse-ingest throughput across sharded storage backends
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _shard_corpus(variants: int):
    """(masters, updates) for the warehouse-ingest workload.

    ``variants`` distinct tiny documents stand in for the corpus
    (document i reuses master ``i % variants`` — the routing hash only
    sees the doc id, so content reuse does not skew shard placement),
    each with one simulated revisit version for the update commits.
    """
    masters = [
        generate_document(GeneratorConfig(target_nodes=40, seed=91 + i))
        for i in range(variants)
    ]
    updates = [
        simulate_changes(
            master, SimulatorConfig(0.05, 0.10, 0.05, 0.05, seed=191 + i)
        ).new_document
        for i, master in enumerate(masters)
    ]
    return masters, updates


def _shard_cases(fast: bool) -> list[BenchCase]:
    import time

    from repro.versioning import ShardedRepository, VersionStore

    variants = 32
    configurations = (
        # (case name, backend scheme, shards, docs)
        ("file-x4", "file", 4, 400 if fast else 20_000),
        ("sqlite-x4", "sqlite", 4, 400 if fast else 100_000),
        ("blob-x4", "blob", 4, 400 if fast else 10_000),
    )

    cases = []
    for name, scheme, shards, docs in configurations:
        def run(prepared, obs, scheme=scheme, shards=shards, docs=docs):
            masters, updates = prepared
            with tempfile.TemporaryDirectory() as tmp:
                repository = ShardedRepository(
                    tmp, shards=shards, backend_scheme=scheme
                )
                store = VersionStore(
                    repository,
                    tracer=obs.tracer,
                    metrics=obs.metrics,
                )
                start = time.perf_counter()
                for i in range(docs):
                    store.create(f"doc-{i:06d}", masters[i % variants])
                commits = docs
                # Every 16th document gets a revisit commit, so append
                # (diff + journaled write) crosses shards too.
                for i in range(0, docs, 16):
                    store.commit(f"doc-{i:06d}", updates[i % variants])
                    commits += 1
                elapsed = time.perf_counter() - start
                counts = [
                    repository.shard_repo(index).document_count()
                    for index in range(shards)
                ]
                findings = repository.verify()
                repository.close()
            spread = max(counts) - min(counts)
            return {
                "commits": commits,
                # Routing skew: spread between the fullest and emptiest
                # shard, as a percentage of the ideal per-shard share.
                # sha256 routing over fixed doc ids makes this
                # bit-stable, so the gate catches a routing change that
                # degrades balance.
                "shard_imbalance_pct": round(
                    100.0 * spread / (docs / shards), 3
                ),
                "verify_findings": len(findings),
                "docs_per_second": round(commits / elapsed, 1),
            }

        cases.append(
            BenchCase(
                name=name,
                setup=lambda: _shard_corpus(variants),
                prepare=lambda state: state,
                run=run,
                params={
                    "backend": scheme,
                    "shards": shards,
                    "docs": docs,
                    "variants": variants,
                },
                gated_quality=("shard_imbalance_pct", "verify_findings"),
            )
        )
    return cases


def _shard_summary(cases: list[dict]) -> dict:
    summary = {
        "clean_stores": sum(
            1
            for case in cases
            if case["quality"]["verify_findings"] == 0
        )
    }
    for case in cases:
        summary[f"docs_per_second_{case['name']}"] = case["quality"][
            "docs_per_second"
        ]
    return summary


register_experiment(
    Experiment(
        id="SHARD",
        title="Sharded warehouse ingest (hash-routed multi-backend commits)",
        cases=_shard_cases,
        summarize=_shard_summary,
        notes=(
            "each case creates N simulator documents through a "
            "ShardedRepository (sha256(doc_id) mod shards) and revisits "
            "every 16th with a diff commit; the full tier commits 100k+ "
            "documents on the sqlite backend",
            "wall median gates commit throughput; shard_imbalance_pct "
            "gates routing balance and verify_findings certifies every "
            "store closes clean",
            "docs_per_second is informational (timing-derived, not "
            "gated as quality)",
        ),
    )
)


# ---------------------------------------------------------------------------
# SERVE — HTTP service throughput + latency percentiles under load
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _serve_corpus(pairs: int):
    """``pairs`` serialized (old, new) document pairs for /diff bodies."""
    bodies = []
    for index in range(pairs):
        base = generate_document(
            GeneratorConfig(target_nodes=120, seed=301 + index)
        )
        changed = simulate_changes(
            base, SimulatorConfig(0.08, 0.12, 0.08, 0.05, seed=401 + index)
        ).new_document
        bodies.append((serialize(base), serialize(changed)))
    return tuple(bodies)


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _serve_cases(fast: bool) -> list[BenchCase]:
    import threading
    import time

    configurations = (
        # (case name, client threads, requests per client, commit share)
        ("diff-c2", 2, 15 if fast else 150, 0),
        ("mixed-c4", 4, 10 if fast else 100, 4),
    )
    pairs = 8

    cases = []
    for name, clients, per_client, commit_every in configurations:
        def run(prepared, obs, clients=clients, per_client=per_client,
                commit_every=commit_every):
            from repro.client import ClientError, DiffClient
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.slo import compute_slo
            from repro.server import ServerConfig, serve_in_thread

            bodies = prepared
            registry = MetricsRegistry()
            with tempfile.TemporaryDirectory() as tmp:
                handle = serve_in_thread(
                    ServerConfig(
                        port=0,
                        stores={"bench": f"sqlite://{tmp}/bench.db"},
                        workers=2,
                        queue_limit=256,
                        batch_max=8,
                        # Scrub aggressively while the load runs: the
                        # gated p95/error keys prove background
                        # verification never taxes the hot path.
                        scrub_interval=0.2,
                        scrub_batch=8,
                    ),
                    metrics=registry,
                )
                latencies: list[list[float]] = [[] for _ in range(clients)]
                errors = [0] * clients

                def client(worker: int) -> None:
                    import random

                    api = DiffClient(
                        f"http://{handle.host}:{handle.port}",
                        timeout=60,
                        retries=2,
                        backoff_base=0.01,
                        backoff_cap=0.25,
                        rng=random.Random(worker),
                    )
                    for request_index in range(per_client):
                        old_xml, new_xml = bodies[
                            (worker + request_index) % len(bodies)
                        ]
                        started = time.perf_counter()
                        try:
                            if (
                                commit_every
                                and request_index % commit_every == 0
                            ):
                                api.commit(
                                    "bench",
                                    f"doc-{worker}",
                                    new_xml
                                    if request_index % (2 * commit_every)
                                    else old_xml,
                                )
                            else:
                                api.diff(old_xml, new_xml)
                        except ClientError:
                            errors[worker] += 1
                        latencies[worker].append(
                            time.perf_counter() - started
                        )
                    api.close()

                threads = [
                    threading.Thread(target=client, args=(worker,))
                    for worker in range(clients)
                ]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - started
                handle.close()
            flat = [sample for per in latencies for sample in per]
            total = clients * per_client
            # Server-side SLO view: the same arithmetic GET /slo serves,
            # computed from the registry the server instrumented itself.
            slo = compute_slo(registry)
            return {
                # Gated: the served workload must stay error-free and
                # within the latency/error-budget envelope.
                "http_errors": sum(errors),
                "lost_responses": total - len(flat),
                "p95_ms": slo.p95_ms,
                "error_budget": slo.error_budget_burn,
                # Informational (timing-derived, varies with hardware).
                "requests": total,
                "requests_per_second": round(total / elapsed, 1),
                "client_p50_ms": round(_percentile(flat, 0.50) * 1e3, 2),
                "client_p95_ms": round(_percentile(flat, 0.95) * 1e3, 2),
            }

        cases.append(
            BenchCase(
                name=name,
                setup=lambda: _serve_corpus(pairs),
                prepare=lambda state: state,
                run=run,
                params={
                    "clients": clients,
                    "requests_per_client": per_client,
                    "commit_every": commit_every,
                    "corpus_pairs": pairs,
                    "workers": 2,
                },
                gated_quality=(
                    "http_errors",
                    "lost_responses",
                    "p95_ms",
                    "error_budget",
                ),
            )
        )
    return cases


def _serve_summary(cases: list[dict]) -> dict:
    summary = {
        "clean_cases": sum(
            1 for case in cases if case["quality"]["http_errors"] == 0
        )
    }
    for case in cases:
        summary[f"p95_ms_{case['name']}"] = case["quality"]["p95_ms"]
        summary[f"rps_{case['name']}"] = case["quality"][
            "requests_per_second"
        ]
    return summary


register_experiment(
    Experiment(
        id="SERVE",
        title="HTTP diff service under concurrent load (xydiff serve)",
        cases=_serve_cases,
        summarize=_serve_summary,
        notes=(
            "each case boots a DiffServer on an ephemeral port and "
            "drives it with keep-alive DiffClient threads (the "
            "repro.client resilience stack): diff-c2 is pure "
            "POST /diff, mixed-c4 interleaves idempotent commits into "
            "a sqlite:// store behind /repos/bench",
            "wall median gates end-to-end throughput; http_errors and "
            "lost_responses gate correctness (every request must get a "
            "2xx answer)",
            "p95_ms and error_budget are the server's own SLO view "
            "(the GET /slo arithmetic over its request histograms) and "
            "gate the latency/error-budget envelope",
            "requests_per_second and the client-observed percentiles "
            "are informational (timing-derived, not gated as quality)",
        ),
    )
)


# ---------------------------------------------------------------------------
# CHAOS — fault-injected service run; resilience invariants gated at zero
# ---------------------------------------------------------------------------


def _chaos_cases(fast: bool) -> list[BenchCase]:
    from repro.testing.chaos import default_scenarios, run_scenario

    scale = 1 if fast else 3
    cases = []
    for scenario in default_scenarios():
        def run(prepared, obs, scenario=scenario, scale=scale):
            scenario.commits_per_client = 6 * scale
            report = run_scenario(scenario)
            return {
                # Gated: the resilience invariants (must stay zero).
                "lost_commits": report.lost_commits,
                "duplicate_commits": report.duplicate_commits,
                "unanswered": report.unanswered,
                "breaker_stuck": 0 if report.breaker_recovered else 1,
                "orphan_events": report.orphan_events,
                "unattributed_commits": report.unattributed_commits,
                # Informational: the fault pressure actually exerted
                # and how the stack absorbed it.
                "requests": report.requests,
                "acked": report.acked,
                "replays": report.replays,
                "clean_failures": report.clean_failures,
                "faults_fired": report.faults_fired,
            }

        cases.append(
            BenchCase(
                name=scenario.name,
                setup=lambda: None,
                prepare=lambda state: state,
                run=run,
                params={
                    "clients": scenario.clients,
                    "commits_per_client": 6 * scale,
                    "description": scenario.description,
                },
                gated_quality=(
                    "lost_commits",
                    "duplicate_commits",
                    "unanswered",
                    "breaker_stuck",
                    "orphan_events",
                    "unattributed_commits",
                ),
                # Wall time here is retry sleeps + fault-timing races,
                # not a performance signal — the invariants gate.
                gate_wall=False,
            )
        )
    return cases


def _chaos_summary(cases: list[dict]) -> dict:
    return {
        "scenarios": len(cases),
        "clean_scenarios": sum(
            1
            for case in cases
            if case["quality"]["lost_commits"] == 0
            and case["quality"]["duplicate_commits"] == 0
            and case["quality"]["unanswered"] == 0
            and case["quality"]["breaker_stuck"] == 0
            and case["quality"]["orphan_events"] == 0
            and case["quality"]["unattributed_commits"] == 0
        ),
        "total_replays": sum(
            case["quality"]["replays"] for case in cases
        ),
        "total_faults_fired": sum(
            case["quality"]["faults_fired"] for case in cases
        ),
    }


register_experiment(
    Experiment(
        id="CHAOS",
        title="Fault-injected service run (chaos invariants)",
        cases=_chaos_cases,
        summarize=_chaos_summary,
        notes=(
            "each case is one repro.testing.chaos scenario: a live "
            "DiffServer over a temp sqlite:// store with a "
            "FaultInjector threaded through storage writes, pool jobs "
            "and response writes, driven by concurrent DiffClient "
            "workers",
            "lost_commits, duplicate_commits, unanswered and "
            "breaker_stuck are gated at zero — acknowledged work "
            "survives, retries never double-apply, every request "
            "fails typed, and the circuit breaker closes once faults "
            "stop",
            "orphan_events and unattributed_commits are gated at zero "
            "too — every acked commit's X-Repro-Request-Id appears in "
            "the client event log, the server event log and the "
            "store's attribution metadata, and the server never logs "
            "an id no client issued (correlation survives the faults)",
            "replays and faults_fired are informational: they prove "
            "the faults actually exerted pressure (a chaos run where "
            "nothing fired proves nothing)",
            "wall time is not gated (gate_wall=false): scenario "
            "duration is dominated by injected latency and retry "
            "backoff, which vary with fault-timing races",
        ),
    )
)
