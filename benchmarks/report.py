"""Regenerate the tables of the paper's Section 6 (Figs. 4-6 and the rest).

    python -m benchmarks.report              # every table, paper scale
    python -m benchmarks.report FIG4 FIG5    # some tables
    python -m benchmarks.report ABL --fast   # reduced sizes (seconds)

Run from the repo root with ``PYTHONPATH=src``.  Each experiment is one
plain function ``workload(fast) -> rows`` (a list of dicts) and one
renderer that turns the rows into the text table printed here and
written to ``bench_results/<ID>.txt``.  The tier-1 test
``tests/integration/test_figure_keys.py`` calls the same functions with
``fast=True`` and pins their quality keys exactly, so every workload is
defined once.

Ids match DESIGN.md: FIG4 (phase times vs size), FIG5 (delta quality vs
the synthetic perfect delta), FIG6 (delta over Unix-diff size, plus the
DELTA10 quiet case), SITE (the INRIA-scale site snapshot), COMP (BULD vs
Lu/Selkow and LaDiff), QUAL (distance from the move-less optimum), ABL
(tuning knobs).

All workloads are seeded, so sizes and ratios are identical on every
run; only the times move.  Stage times come straight from
``DiffStats.stage_seconds``.  A timed diff is the fastest of ``RUNS``
runs on fresh clones (one run with ``--fast``), taken stage by stage.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import sys
import time

from repro.core import DiffConfig, delta_byte_size, diff_with_stats, serialize_delta
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

RESULTS_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench_results")
)
RUNS = 3

__all__ = ["EXPERIMENTS", "abl", "comp", "fig4", "fig5", "fig6", "main",
           "qual", "site"]


@functools.lru_cache(maxsize=None)
def _simulated_pair(nodes, doc_seed, sim_seed, rate=0.10):
    """(old, new, perfect delta); diff clones, never these."""
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=doc_seed))
    result = simulate_changes(
        base, SimulatorConfig(rate, rate, rate, rate, seed=sim_seed)
    )
    return base, result.new_document, result.perfect_delta


def _clones(old, new):
    return old.clone(keep_xids=False), new.clone(keep_xids=False)


def _timed_diff(old, new, fast, config=None, engine="buld"):
    """Diff fresh clones once (``fast``) or ``RUNS`` times.

    Returns ``(old_clone, delta, stage_seconds, seconds)`` of the last
    run, where ``seconds`` is the fastest wall time and each stage's
    seconds its fastest time over the runs.
    """
    seconds, stages = math.inf, {}
    for _ in range(_runs(fast)):
        old_clone, new_clone = _clones(old, new)
        started = time.perf_counter()
        delta, stats = diff_with_stats(old_clone, new_clone, config, engine=engine)
        seconds = min(seconds, time.perf_counter() - started)
        for stage, value in stats.stage_seconds.items():
            stages[stage] = min(stages.get(stage, value), value)
    return old_clone, delta, stages, seconds


def _runs(fast):
    return 1 if fast else RUNS


def _mean(values):
    return sum(values) / len(values)


def _footer(fast):
    runs = "one run" if fast else f"the fastest of {RUNS} runs"
    return (
        f"times: {runs}, step by step, on Python {platform.python_version()}, "
        f"{platform.machine()}, {os.cpu_count()} CPUs"
    )


# ---------------------------------------------------------------------------
# FIG4 — time cost for the different phases, log-log vs total size
# ---------------------------------------------------------------------------

#: FIG4's columns are the paper's phases; BULD runs them as these stages.
PHASE_STAGES = (
    ("p1+p2", ("annotate", "id-attributes")),
    ("p3", ("match-subtrees",)),
    ("p4", ("propagate",)),
    ("p5", ("build-delta",)),
)


def fig4(fast=False):
    sizes = (200, 600, 2_000) if fast else (
        200, 600, 2_000, 6_000, 20_000, 60_000, 150_000
    )
    rows = []
    for nodes in sizes:
        old, new, _ = _simulated_pair(nodes, 1, 2)
        _, delta, stages, _ = _timed_diff(old, new, fast)
        rows.append({
            "nodes": nodes,
            "total_bytes": len(serialize_bytes(old)) + len(serialize_bytes(new)),
            "delta_bytes": delta_byte_size(delta),
            "stages": stages,
        })
    return rows


def render_fig4(rows):
    lines = [
        "FIG4 — Time cost for the different phases (Figure 4)",
        "change mix: 10% delete/update/insert/move per node "
        "(the paper's setting)",
        "stages: " + ", ".join(
            f"{phase} = {' + '.join(stages)}" for phase, stages in PHASE_STAGES
        ),
        "",
    ]
    header = (
        f"{'bytes':>10} {'nodes':>8} | {'p1+p2 us':>12} {'p3 us':>10} "
        f"{'p4 us':>10} {'p5 us':>10} | {'total us':>12}"
    )
    lines += [header, "-" * len(header)]
    for row in rows:
        phases = [
            sum(row["stages"][stage] for stage in stages) * 1e6
            for _, stages in PHASE_STAGES
        ]
        lines.append(
            f"{row['total_bytes']:>10} {row['nodes']:>8} | {phases[0]:>12.0f} "
            f"{phases[1]:>10.0f} {phases[2]:>10.0f} {phases[3]:>10.0f} | "
            f"{sum(phases):>12.0f}"
        )
    first, last = rows[0], rows[-1]
    slope = math.log(
        sum(last["stages"].values()) / sum(first["stages"].values())
    ) / math.log(last["total_bytes"] / first["total_bytes"])
    lines += [
        "",
        f"log-log slope of total time vs size: {slope:.2f}",
        "paper: 'almost linear in time' (slope ~1; quadratic would be ~2)",
    ]
    return lines


# ---------------------------------------------------------------------------
# FIG5 — computed delta size vs synthetic (perfect) delta size
# ---------------------------------------------------------------------------


def fig5(fast=False):
    sizes = (300, 1_000) if fast else (300, 1_000, 4_000, 16_000)
    rates = (0.01, 0.10, 0.30) if fast else (0.01, 0.03, 0.10, 0.30, 0.50)
    rows = []
    for nodes in sizes:
        for rate in rates:
            old, new, perfect = _simulated_pair(
                nodes, nodes, int(rate * 1000), rate
            )
            delta, _ = diff_with_stats(*_clones(old, new))
            perfect_bytes = delta_byte_size(perfect)
            computed_bytes = delta_byte_size(delta)
            rows.append({
                "nodes": nodes,
                "rate": rate,
                "doc_bytes": len(serialize_bytes(old)),
                "perfect_bytes": perfect_bytes,
                "computed_bytes": computed_bytes,
                "ratio": computed_bytes / perfect_bytes if perfect_bytes else 1.0,
            })
    return rows


def render_fig5(rows):
    lines = [
        "FIG5 — Quality of Diff: computed vs synthetic delta (Figure 5)",
        "",
    ]
    header = (
        f"{'doc bytes':>10} {'rate':>5} | {'perfect B':>10} "
        f"{'computed B':>10} {'ratio':>6}"
    )
    lines += [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['doc_bytes']:>10} {row['rate']:>5.2f} | "
            f"{row['perfect_bytes']:>10} {row['computed_bytes']:>10} "
            f"{row['ratio']:>6.2f}"
        )
    ratios = [row["ratio"] for row in rows]
    mid = [row["ratio"] for row in rows if 0.2 <= row["rate"] <= 0.4]
    lines += ["", f"average computed/perfect ratio: {_mean(ratios):.2f}"]
    if mid:
        lines.append(
            f"at ~30% change (many moves):    {_mean(mid):.2f}  "
            "(paper: 'about fifty percent larger')"
        )
    lines.append(
        f"best ratio observed:            {min(ratios):.2f}  "
        "(paper: sometimes beats the synthetic delta)"
    )
    return lines


# ---------------------------------------------------------------------------
# FIG6 — delta size over Unix diff size, on the simulated web corpus
# ---------------------------------------------------------------------------


def _line_form(document):
    from repro.baselines import flatten

    return "".join(token + "\n" for token in flatten(document))


def fig6(fast=False):
    """Weekly-profile rows, then (full scale only) the DELTA10 rows:
    documents over 100 KB under a quiet change profile."""
    from repro.baselines import unix_diff_size

    corpus = WebCorpus(
        WebCorpusConfig(
            documents=6 if fast else 40,
            min_bytes=400,
            max_bytes=60_000 if fast else 600_000,
            seed=6,
        )
    )
    rows = []
    for index in range(corpus.config.documents):
        old, new = corpus.weekly_versions(index, weeks=1)
        unix_bytes = unix_diff_size(_line_form(old), _line_form(new))
        if unix_bytes == 0:
            continue
        delta, _ = diff_with_stats(*_clones(old, new))
        delta_bytes = delta_byte_size(delta)
        rows.append({
            "profile": "weekly",
            "doc_bytes": len(serialize_bytes(old)),
            "unix_bytes": unix_bytes,
            "delta_bytes": delta_bytes,
            "ratio": delta_bytes / unix_bytes,
        })
    for index in range(0 if fast else corpus.config.documents):
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
        delta, _ = diff_with_stats(*_clones(old, new))
        rows.append({
            "profile": "quiet",
            "doc_bytes": doc_bytes,
            "delta_bytes": delta_byte_size(delta),
        })
    return rows


def render_fig6(rows):
    weekly = [row for row in rows if row["profile"] == "weekly"]
    quiet = [row for row in rows if row["profile"] == "quiet"]
    lines = [
        "FIG6 — Delta over Unix Diff size ratio (Figure 6)",
        "workload: simulated weekly-changing web XML (see DESIGN.md)",
        "",
    ]
    header = (
        f"{'doc bytes':>10} | {'unix B':>8} {'delta B':>8} {'ratio':>6} "
        f"{'delta/doc':>9}"
    )
    lines += [header, "-" * len(header)]
    for row in weekly:
        lines.append(
            f"{row['doc_bytes']:>10} | {row['unix_bytes']:>8} "
            f"{row['delta_bytes']:>8} {row['ratio']:>6.2f} "
            f"{row['delta_bytes'] / row['doc_bytes']:>9.1%}"
        )
    lines += [
        "",
        f"average delta/unix-diff ratio: "
        f"{_mean([row['ratio'] for row in weekly]):.2f}  "
        "(paper: 'on average roughly the size of the Unix Diff result')",
    ]
    large = [
        row["delta_bytes"] / row["doc_bytes"]
        for row in weekly
        if row["doc_bytes"] > 100_000
    ]
    if large:
        lines.append(
            "delta/document for >100KB docs at the default weekly profile: "
            f"{_mean(large):.1%}"
        )
    if quiet:
        lines += ["", "DELTA10 — large documents, quiet change profile:"]
        fractions = [row["delta_bytes"] / row["doc_bytes"] for row in quiet]
        for row, fraction in zip(quiet, fractions):
            lines.append(
                f"  {row['doc_bytes']:>10} bytes -> delta {fraction:.1%} of doc"
            )
        lines.append(
            f"  average: {_mean(fractions):.1%}  "
            "(paper: 'less than 10 percent of the size of the document')"
        )
    return lines


# ---------------------------------------------------------------------------
# SITE — the INRIA web-site snapshot experiment
# ---------------------------------------------------------------------------


def site(fast=False):
    pages = 300 if fast else 14_000
    started = time.perf_counter()
    old = generate_site_snapshot(pages=pages, sections=20, seed=31)
    new = evolve_site(old, seed=32)
    build_seconds = time.perf_counter() - started
    old_text, new_text = serialize(old), serialize(new)
    read_seconds = write_seconds = math.inf
    stages = {}
    for _ in range(_runs(fast)):
        started = time.perf_counter()
        parsed_old, parsed_new = parse(old_text), parse(new_text)
        read_seconds = min(read_seconds, time.perf_counter() - started)
        delta, stats = diff_with_stats(parsed_old, parsed_new)
        for stage, value in stats.stage_seconds.items():
            stages[stage] = min(stages.get(stage, value), value)
        started = time.perf_counter()
        delta_text = serialize_delta(delta)
        write_seconds = min(write_seconds, time.perf_counter() - started)
    return [{
        "pages": pages,
        "nodes": stats.old_nodes,
        "snapshot_bytes": len(old_text.encode()),
        "delta_bytes": len(delta_text.encode()),
        "operations": dict(stats.operation_counts),
        "build_seconds": build_seconds,
        "read_seconds": read_seconds,
        "stages": stages,
        "write_seconds": write_seconds,
    }]


def render_site(rows):
    (row,) = rows
    stages = row["stages"]
    total = row["read_seconds"] + sum(stages.values()) + row["write_seconds"]
    core = stages["match-subtrees"] + stages["propagate"]
    lines = [
        f"SITE — web-site snapshot diff ({row['pages']} pages; Section 6.2)",
        "",
        f"snapshot built in {row['build_seconds']:.1f}s",
        f"snapshot: {row['nodes']} nodes, {row['snapshot_bytes'] / 1e6:.2f} MB "
        "(paper: ~14k pages, ~5 MB)",
        "",
        f"{'read (parse both snapshots):':<33}{row['read_seconds']:.2f}s",
    ]
    for stage, seconds in stages.items():
        lines.append(f"{stage + ':':<33}{seconds:.2f}s")
    lines += [
        f"{'write delta:':<33}{row['write_seconds']:.2f}s",
        f"{'end to end:':<33}{total:.2f}s",
        "",
        f"core (match-subtrees + propagate, phases 3+4): {core:.2f}s of "
        f"{total:.2f}s ({core / total:.0%}) — paper: <2s of ~30s",
        f"delta size: {row['delta_bytes'] / 1e6:.2f} MB "
        "(paper: ~1 MB for the 5 MB site)",
        f"operations: {row['operations']}",
    ]
    return lines


# ---------------------------------------------------------------------------
# COMP — BULD vs the quadratic baselines: speed scaling and delta sizes
# ---------------------------------------------------------------------------

COMP_ENGINES = (("buld", "BULD"), ("lu", "Lu"), ("ladiff", "LaDiff"))


def comp(fast=False):
    rows = []
    for products in (25, 50) if fast else (25, 50, 100, 200, 400):
        old = generate_catalog(products=products, categories=3, seed=21)
        new = simulate_changes(
            old, SimulatorConfig(0.05, 0.10, 0.05, 0.05, seed=22)
        ).new_document
        row = {"products": products, "nodes": old.subtree_size() - 1}
        for engine, _ in COMP_ENGINES:
            _, delta, _, seconds = _timed_diff(old, new, fast, engine=engine)
            row[f"{engine}_seconds"] = seconds
            row[f"{engine}_bytes"] = delta_byte_size(delta)
        rows.append(row)
    return rows


def render_comp(rows):
    lines = [
        "COMP — BULD vs baselines (Section 3 claims)",
        "workload: product catalogs (wide same-label parents)",
        "",
    ]
    header = f"{'products':>9} {'nodes':>7} |"
    header += "".join(f" {label + ' ms':>9}" for _, label in COMP_ENGINES)
    header += " |" + "".join(f" {label + ' B':>8}" for _, label in COMP_ENGINES)
    lines += [header, "-" * len(header)]
    for row in rows:
        line = f"{row['products']:>9} {row['nodes']:>7} |"
        line += "".join(
            f" {row[engine + '_seconds'] * 1e3:>9.1f}"
            for engine, _ in COMP_ENGINES
        )
        line += " |" + "".join(
            f" {row[engine + '_bytes']:>8}" for engine, _ in COMP_ENGINES
        )
        lines.append(line)
    lines += [
        "",
        "paper: BULD is O(n log n); Lu/Selkow and LaDiff degrade "
        "quadratically as same-label sibling lists grow",
    ]
    return lines


# ---------------------------------------------------------------------------
# QUAL — distance from the (move-less) optimum on small trees
# ---------------------------------------------------------------------------


def _edit_cost(delta, old):
    """Nodes deleted + inserted + values updated; a move costs a delete
    plus an insert of its subtree (Zhang-Shasha has no moves)."""
    from repro.core import xid_index
    from repro.core.xid import subtree_xids

    index = xid_index(old)
    cost = 0
    for operation in delta.operations:
        if operation.kind in ("delete", "insert"):
            cost += len(subtree_xids(operation.subtree))
        elif operation.kind == "move":
            node = index.get(operation.xid)
            cost += 2 * (node.subtree_size() if node is not None else 1)
        else:
            cost += 1
    return cost


def qual(fast=False):
    from repro.baselines import tree_edit_distance
    from repro.obs.provenance import ProvenanceRecorder, build_report

    rows = []
    for seed in range(4 if fast else 16):
        base, new_doc, _ = _simulated_pair(90, seed, seed + 500, rate=0.08)
        optimal = tree_edit_distance(*_clones(base, new_doc))
        old, new = _clones(base, new_doc)
        recorder = ProvenanceRecorder()
        delta, _ = diff_with_stats(old, new, recorder=recorder)
        cost = _edit_cost(delta, old)
        report = build_report(recorder, old, new, delta)
        rows.append({
            "case": seed,
            "nodes": base.subtree_size() - 1,
            "optimal_cost": optimal,
            "buld_cost": cost,
            "ratio": cost / optimal if optimal else 1.0,
            "unmatched_weight_ratio": report.unmatched_weight_ratio,
        })
    return rows


def render_qual(rows):
    lines = [
        "QUAL — BULD cost vs exact tree-edit optimum (Section 5)",
        "cost model: nodes deleted + inserted + values updated; moves "
        "counted as delete+insert of the subtree (ZS has no moves)",
        "",
    ]
    header = (
        f"{'case':>5} {'nodes':>6} | {'ZS optimal':>10} {'BULD cost':>10} "
        f"{'ratio':>6} {'unmatched w':>11}"
    )
    lines += [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['case']:>5} {row['nodes']:>6} | {row['optimal_cost']:>10.0f} "
            f"{row['buld_cost']:>10.0f} {row['ratio']:>6.2f} "
            f"{row['unmatched_weight_ratio']:>11.4f}"
        )
    lines += [
        "",
        f"average cost ratio vs optimum: "
        f"{_mean([row['ratio'] for row in rows]):.2f} "
        "(1.00 = optimal; paper: 'reasonably close to the optimal')",
        "unmatched w: share of the new document's weight left unmatched "
        "(the provenance report)",
    ]
    return lines


# ---------------------------------------------------------------------------
# ABL — one row for every Section 5.2 tuning knob
# ---------------------------------------------------------------------------

ABL_CONFIGS = (
    ("defaults", {}),
    ("no ID attributes", {"use_id_attributes": False}),
    ("inferred ID attributes", {"infer_id_attributes": True}),
    ("flat text weight", {"log_text_weight": False}),
    ("eager down-propagation", {"lazy_down": False}),
    ("0 optimization passes", {"optimization_passes": 0}),
    ("4 optimization passes", {"optimization_passes": 4}),
    ("candidate cap 1", {"max_candidates": 1}),
    ("ancestor depth factor 0", {"ancestor_depth_factor": 0.0}),
    ("ancestor depth factor 3", {"ancestor_depth_factor": 3.0}),
    ("chunked moves (threshold 0)", {"exact_move_threshold": 0}),
)


def abl(fast=False):
    """One row per knob, then the ``moves-vs-edits`` row: the default
    delta with its moves rewritten as delete+insert."""
    from repro.core.transform import moves_to_edits

    old, new, _ = _simulated_pair(800 if fast else 8_000, 97, 98)
    rows = []
    for name, overrides in ABL_CONFIGS:
        labelled_old, delta, _, seconds = _timed_diff(
            old, new, fast, DiffConfig(**overrides)
        )
        rows.append({
            "configuration": name,
            "seconds": seconds,
            "delta_bytes": delta_byte_size(delta),
        })
        if not overrides:
            default_old, default_delta = labelled_old, delta
    return rows + [{
        "configuration": "moves-vs-edits",
        "delta_bytes": delta_byte_size(default_delta),
        "moves": len(default_delta.by_kind("move")),
        "as_edits_bytes": delta_byte_size(
            moves_to_edits(default_delta, default_old)
        ),
    }]


def render_abl(rows):
    *knobs, moves = rows
    lines = ["ABL — tuning-knob ablations (Section 5.2 + conclusion)", ""]
    header = f"{'configuration':<38} {'ms':>9} {'delta B':>9}"
    lines += [header, "-" * len(header)]
    for row in knobs:
        lines.append(
            f"{row['configuration']:<38} {row['seconds'] * 1e3:>9.1f} "
            f"{row['delta_bytes']:>9}"
        )
    lines += [
        "",
        f"moves represented as moves:         {moves['delta_bytes']:>9} bytes "
        f"({moves['moves']} moves)",
        f"moves as delete+insert (converted): {moves['as_edits_bytes']:>9} bytes",
    ]
    return lines


EXPERIMENTS = {
    "FIG4": (fig4, render_fig4),
    "FIG5": (fig5, render_fig5),
    "FIG6": (fig6, render_fig6),
    "SITE": (site, render_site),
    "COMP": (comp, render_comp),
    "QUAL": (qual, render_qual),
    "ABL": (abl, render_abl),
}

#: The experiments whose tables print times.
TIMED = ("FIG4", "SITE", "COMP", "ABL")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fast = "--fast" in argv
    if fast:
        argv.remove("--fast")
    requested = [name.upper() for name in argv] or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:  # before any work: one typo must not waste a long sweep
        print(
            f"error: unknown experiment {', '.join(unknown)}; "
            f"choose from {' '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for name in requested:
        workload, render = EXPERIMENTS[name]
        lines = render(workload(fast))
        if name in TIMED:
            lines += ["", _footer(fast)]
        text = "\n".join(lines) + "\n"
        print("=" * 72)
        print(text)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
