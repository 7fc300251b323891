"""End-to-end benchmark command: one workload per process, tracing on or off.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload crawl-commit --seed 1 \\
        --seconds 15 --trace 0

With ``--trace 0`` it prints every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` every per-layer metric, after a self-time table, and it
writes the spans to ``OUT/spans.jsonl``.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``correct`` is false when a check failed or when the load
generator's p99 lag was above 10 ms.  Without ``--workload`` it runs
every workload, each pass in a fresh process, and prints all their
results as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Largest residual (time in no layer span) a traced closed-loop pass
#: may leave; above it the layer table does not explain the wall time.
MAX_RESIDUAL = 0.10
#: Largest p99 of how late the generator issued operations; above it the
#: load was not the one scheduled, and the run is not correct.
MAX_LAG_MS = 10.0
#: Per-layer metrics only the serve-mixed workload produces.
SERVE_ONLY = (
    "server.request_share.diff",
    "server.request_share.commit",
    "server.request_share.version",
    "server.batch_size_mean",
    "server.rejected",
    "client.transport_share",
)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def end_to_end(setup_times, outcome) -> dict:
    """Call it after the workload is closed: a server's peak memory is
    known once it has been waited for."""
    who = resource.RUSAGE_CHILDREN if outcome.in_child else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "delta_bytes_per_xml_byte": (
            outcome.delta_bytes / outcome.delta_base_bytes
        ),
    }


def per_layer(tracer, outcome, span_cost: float, lag_ms: float) -> dict:
    from spans import layer_metrics

    window = outcome.caller_seconds
    metrics = layer_metrics(tracer.spans, window, outcome.attempted)
    written = metrics["storage.bytes_written_per_op"] * outcome.attempted
    metrics["storage.write_amplification"] = written / outcome.xml_bytes
    metrics["loadgen.lag_p99_ms"] = lag_ms
    metrics["trace.overhead_ratio"] = len(tracer.spans) * span_cost / window
    metrics.update({name: 0.0 for name in SERVE_ONLY})
    metrics.update(outcome.layers)
    return metrics


def run_one(args, spec) -> int:
    # Imported here: the repository's sources must be found first.
    from spans import Tracer, layer_table, self_times, span_cost_seconds
    from workloads import WORKLOADS

    out = args.out or os.path.join(ROOT, ".e2e_work", args.workload)
    os.makedirs(out, exist_ok=True)
    workdir = os.path.join(out, "work")
    tracer = Tracer(enabled=bool(args.trace))
    workload = None
    setup_times = []
    try:
        for _ in range(1 if args.trace else SETUP_REPS):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[args.workload]()
            began = time.perf_counter()
            workload.setup(args.seed, args.scale, workdir, tracer)
            setup_times.append(time.perf_counter() - began)
        # Write back what set-up (or the run before) left dirty, so the
        # disk does not flush it inside the window.
        os.sync()
        outcome = workload.run(args.seconds)
    finally:
        if workload is not None:
            workload.close()

    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    lag_ms = percentile(outcome.lags, 0.99) * 1000.0
    on_time = lag_ms <= MAX_LAG_MS
    if not on_time:
        print(f"error: generator p99 lag {lag_ms:.2f} ms is above "
              f"{MAX_LAG_MS:g} ms", file=sys.stderr)
    residual_ok = True
    if args.trace:
        metrics = per_layer(tracer, outcome, span_cost_seconds(), lag_ms)
        tracer.write_jsonl(os.path.join(out, "spans.jsonl"))
        window = outcome.caller_seconds
        print(f"{args.workload}: {outcome.attempted} ops, "
              f"{len(tracer.spans)} spans, window {window:.3f} s")
        print(layer_table(self_times(tracer.spans), window))
        if args.workload != "serve-mixed":
            residual_ok = metrics["layers.residual_ratio"] <= MAX_RESIDUAL
    else:
        metrics = end_to_end(setup_times, outcome)
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}")
    print(json.dumps({
        "correct": outcome.failed == 0 and on_time,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    if not residual_ok:
        print(f"error: layers leave {metrics['layers.residual_ratio']:.1%} "
              f"of the window unattributed (limit {MAX_RESIDUAL:.0%})",
              file=sys.stderr)
        return 1
    return 0


def run_all(args, spec) -> int:
    """Every workload, both passes, each in a fresh process."""
    base = args.out or os.path.join(ROOT, ".e2e_work")
    results = {}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
                "--out", os.path.join(base, name),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
            if child.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited "
                      f"{child.returncode}", file=sys.stderr)
                status = 1
                continue
            results.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, both passes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--out", default=None,
                        help="directory for work files and spans.jsonl")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)  # self-test only
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
