"""The paper figures' quality keys, pinned exactly.

``benchmarks/report.py`` defines each Section 6 workload once; these
tests run its fast tier and pin every key that carries a figure's claim.
Integers and digests must match exactly, float ratios to ``rel=1e-9``.
A change that moves one of them changes the paper's numbers: regenerate
the tables with ``python -m benchmarks.report`` and update the pins in
the same change.
"""

import hashlib

import pytest

from benchmarks import report
from repro.core import serialize_delta
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)


def exactly(value):
    return pytest.approx(value, rel=1e-9, abs=0)


def test_fig5_ratio_to_the_perfect_delta():
    ratios = {
        (row["nodes"], row["rate"]): row["ratio"]
        for row in report.fig5(fast=True)
    }
    assert ratios == exactly({
        (300, 0.01): 1.0703971119133573,
        (300, 0.10): 1.3260682535130484,
        (300, 0.30): 1.1013840253460063,
        (1000, 0.01): 1.0926717992586257,
        (1000, 0.10): 1.508871760384874,
        (1000, 0.30): 1.021357347410551,
    })


def test_fig6_delta_over_unix_diff():
    rows = report.fig6(fast=True)
    assert len(rows) == 6
    assert sum(row["ratio"] for row in rows) / len(rows) == exactly(
        2.890896926223626
    )
    assert sum(row["delta_bytes"] for row in rows) == 10673


def test_site_snapshot_delta():
    (row,) = report.site(fast=True)
    assert row["delta_bytes"] == 31421
    assert (row["nodes"], row["snapshot_bytes"]) == (4842, 122731)
    assert sum(row["operations"].values()) == 215


def test_comp_delta_bytes_per_engine():
    sizes = {
        (row["products"], engine): row[f"{engine}_bytes"]
        for row in report.comp(fast=True)
        for engine in ("buld", "lu", "ladiff")
    }
    assert sizes == {
        (25, "buld"): 2921, (25, "lu"): 3634, (25, "ladiff"): 5381,
        (50, "buld"): 7377, (50, "lu"): 8857, (50, "ladiff"): 12868,
    }


def test_qual_cost_and_unmatched_weight():
    rows = report.qual(fast=True)
    assert [row["ratio"] for row in rows] == exactly(
        [1.875, 1.5333333333333334, 1.44, 2.710526315789474]
    )
    assert [row["unmatched_weight_ratio"] for row in rows] == exactly([
        0.06237364219956437,
        0.07419480295364318,
        0.07662246304652114,
        0.02601589814805055,
    ])


def test_qual_cost_against_the_perfect_delta():
    """Case 3's 2.71x the optimum is QUAL's cost model charging moves as
    twice their subtree: BULD costs exactly what the simulator's own
    edit script does."""
    rows = report.qual(fast=True)
    assert [row["perfect_ratio"] for row in rows] == exactly(
        [90 / 88, 23 / 15, 36 / 25, 103 / 103]
    )


def test_abl_delta_bytes_per_knob():
    rows = {row["configuration"]: row for row in report.abl(fast=True)}
    assert {name: row["delta_bytes"] for name, row in rows.items()} == {
        "defaults": 20983,
        "no ID attributes": 20983,
        "inferred ID attributes": 20983,
        "flat text weight": 22363,
        "eager down-propagation": 20822,
        "0 optimization passes": 26731,
        "4 optimization passes": 20983,
        "candidate cap 1": 21791,
        "ancestor depth factor 0": 20983,
        "ancestor depth factor 3": 20983,
        "chunked moves (threshold 0)": 20983,
        "moves-vs-edits": 20983,
    }
    assert rows["moves-vs-edits"]["as_edits_bytes"] == 61025


def test_store_delta_chain(tmp_path):
    """Five revisit commits of a 600-node page: the stored delta chain is
    pinned byte for byte."""
    from repro.versioning import DirectoryRepository, VersionStore

    base = generate_document(GeneratorConfig(target_nodes=600, seed=71))
    store = VersionStore(DirectoryRepository(str(tmp_path)))
    store.create("doc", base.clone(keep_xids=False))
    current = base
    for step in range(5):
        current = simulate_changes(
            current, SimulatorConfig(0.03, 0.08, 0.03, 0.03, seed=73 + step)
        ).new_document
        store.commit("doc", current.clone(keep_xids=False))
    chain = b"".join(
        serialize_delta(delta).encode() for delta in store.deltas("doc")
    )
    assert len(chain) == 33028
    assert hashlib.sha256(chain).hexdigest() == (
        "960b7b2921f2d8f5a0c78bbdd2951733d5319f2d28e753577ba0ff288ab8cf43"
    )
    store.repository.close()
