"""The paper's Section 5–6 claims, checked at test size.

``benchmarks/report.py`` measures each experiment at scale, and
``test_figure_keys.py`` pins its quality keys; these tests hold the
*shape* of each claim — who wins, which way a ratio points, a generous bound — on
inputs small enough for the tier-1 suite.  Timing claims compare two
measurements of the same process (best of a few runs) against a bound
several times looser than the measured ratio, so machine speed cancels
out.
"""

import functools
import time
import tracemalloc

import pytest

from repro.baselines import flatten, tree_edit_distance, unix_diff_size
from repro.core import DiffConfig, apply_delta, delta_byte_size, diff, diff_with_stats
from repro.core.moves import (
    chunked_increasing_subsequence,
    heaviest_increasing_subsequence,
)
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


@functools.lru_cache(maxsize=None)
def _scenario(nodes, doc_seed, sim_seed, rate=0.10):
    """The simulated masters; diff clones, never these."""
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=doc_seed))
    return simulate_changes(
        base, SimulatorConfig(rate, rate, rate, rate, seed=sim_seed)
    )


def _pair(nodes, doc_seed, sim_seed, rate=0.10):
    result = _scenario(nodes, doc_seed, sim_seed, rate)
    return (
        result.old_document.clone(keep_xids=False),
        result.new_document.clone(keep_xids=False),
    )


def _catalog_pair(products, seed, with_ids=False):
    old = generate_catalog(
        products=products, categories=5, seed=seed, with_ids=with_ids
    )
    new = simulate_changes(
        old, SimulatorConfig(0.05, 0.15, 0.05, 0.05, seed=seed + 1)
    ).new_document
    return old, new


def _diff_bytes(old, new, config=None):
    return delta_byte_size(
        diff(old.clone(keep_xids=False), new.clone(keep_xids=False), config)
    )


def _best_of(function):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


class TestPerformance:
    """FIG4 / COMP / SITE: near-linear time and space."""

    def test_near_linear_time(self):
        def seconds(nodes):
            old, new = _pair(nodes, 1, 2)
            return _best_of(lambda: diff(old.clone(), new.clone()))

        small, big = seconds(500), seconds(4_000)
        # 8x the nodes must stay far below the quadratic 64x
        assert big < small * 8 * 4, f"8x size took {big / small:.1f}x"

    def test_linear_memory(self):
        def peak(nodes):
            old, new = _pair(nodes, 71, 72)
            tracemalloc.start()
            try:
                diff(old, new)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ratio = peak(4_000) / peak(500)
        assert ratio < 8 * 2.5, f"memory grew {ratio:.1f}x for 8x input"

    def test_quadratic_baseline_gap_widens(self):
        def lu_over_buld(products):
            old, new = _catalog_pair(products, 21)
            buld = _best_of(
                lambda: diff(old.clone(keep_xids=False),
                             new.clone(keep_xids=False))
            )
            lu = _best_of(
                lambda: diff(old.clone(keep_xids=False),
                             new.clone(keep_xids=False), engine="lu")
            )
            return lu / buld

        assert lu_over_buld(120) > lu_over_buld(20)

    def test_site_core_is_a_minority_of_end_to_end(self):
        old = generate_site_snapshot(pages=300, sections=16, seed=31)
        new = evolve_site(old, seed=32)
        old_text, new_text = serialize(old), serialize(new)
        best_core = best_total = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            delta, stats = diff_with_stats(parse(old_text), parse(new_text))
            delta_size = delta_byte_size(delta)
            best_total = min(best_total, time.perf_counter() - started)
            best_core = min(best_core, stats.core_seconds)
        assert best_core < best_total * 0.5
        assert delta_size < len(old_text.encode())


class TestQualityVsPerfect:
    """FIG5: computed delta size against the simulator's perfect delta."""

    @staticmethod
    def ratio(nodes, rate, doc_seed, sim_seed):
        result = _scenario(nodes, doc_seed, sim_seed, rate)
        perfect = delta_byte_size(result.perfect_delta())
        return _diff_bytes(result.old_document, result.new_document) / perfect

    @pytest.mark.parametrize("rate", [0.02, 0.10, 0.30])
    def test_within_the_paper_envelope(self, rate):
        assert self.ratio(1_000, rate, 3, 4) < 2.5

    def test_low_change_rate_is_near_perfect(self):
        ratios = [self.ratio(600, 0.02, seed, seed + 40) for seed in range(5)]
        assert sum(ratios) / len(ratios) < 1.8

    def test_sometimes_beats_the_simulator(self):
        ratios = [self.ratio(500, 0.45, seed, seed + 90) for seed in range(8)]
        assert min(ratios) < 1.1


class TestUnixDiff:
    """FIG6: delta size against a line diff on simulated web pages."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def corpus_pair(index):
        corpus = WebCorpus(
            WebCorpusConfig(documents=10, min_bytes=1_000, max_bytes=40_000,
                            seed=6)
        )
        return tuple(corpus.weekly_versions(index, weeks=1))

    @staticmethod
    def line_form(document):
        return "".join(token + "\n" for token in flatten(document))

    def test_delta_is_roughly_unix_diff_sized(self):
        ratios = []
        for index in range(10):
            old, new = self.corpus_pair(index)
            delta_size = _diff_bytes(old, new)
            assert delta_size < len(serialize_bytes(old))
            ratios.append(
                delta_size
                / unix_diff_size(self.line_form(old), self.line_form(new))
            )
        assert max(ratios) < 8.0
        assert 0.2 < sum(ratios) / len(ratios) < 3.0

    def test_long_single_line_pathology(self):
        old, new = self.corpus_pair(2)
        compact_old, compact_new = serialize(old), serialize(new)
        unix_size = unix_diff_size(compact_old, compact_new)
        # the line diff ships the whole new document; the delta does not
        assert unix_size >= len(compact_new)
        assert _diff_bytes(old, new) < unix_size


class TestOptimum:
    """QUAL: distance from the exact move-less optimum."""

    def test_a_move_beats_the_moveless_optimum(self):
        big = (
            "<big><x>payload one</x><y>payload two</y>"
            "<z>payload three</z></big>"
        )
        old = parse(f"<r><a>{big}</a><b/></r>")
        new = parse(f"<r><a/><b>{big}</b></r>")
        delta = diff(old.clone(keep_xids=False), new.clone(keep_xids=False))
        assert delta.summary() == {"move": 1}
        assert tree_edit_distance(old, new) > 1

    @pytest.mark.parametrize("block", [5, 50])
    def test_chunked_moves_keep_most_weight(self, block):
        import random

        rng = random.Random(9)
        values = list(range(400))
        for start in range(0, 400, 20):  # web-like local reordering
            window = values[start:start + 20]
            rng.shuffle(window)
            values[start:start + 20] = window
        chunked, _ = chunked_increasing_subsequence(values, block_length=block)
        exact, _ = heaviest_increasing_subsequence(values)
        assert 0.5 * exact <= chunked <= exact


class TestTuningKnobs:
    """ABL: every Section 5.2 knob keeps the delta correct and close."""

    def test_id_attributes_do_not_hurt_quality(self):
        old, new = _catalog_pair(120, 41, with_ids=True)
        with_ids = _diff_bytes(old, new, DiffConfig(use_id_attributes=True))
        without = _diff_bytes(old, new, DiffConfig(use_id_attributes=False))
        assert with_ids <= without * 1.5

    def test_inferred_ids_do_not_hurt_quality(self):
        old, new = _catalog_pair(120, 81)
        inferred = _diff_bytes(old, new, DiffConfig(infer_id_attributes=True))
        plain = _diff_bytes(old, new, DiffConfig(infer_id_attributes=False))
        assert inferred <= plain * 1.3

    def test_optimization_passes_never_hurt_quality_much(self):
        old, new = _pair(1_000, 55, 56)
        none = _diff_bytes(old, new, DiffConfig(optimization_passes=0))
        two = _diff_bytes(old, new, DiffConfig(optimization_passes=2))
        assert two <= none * 1.1

    @pytest.mark.parametrize(
        "config",
        [DiffConfig(max_candidates=1), DiffConfig(ancestor_depth_factor=0.0)],
        ids=["candidate-cap=1", "ancestor-depth-factor=0"],
    )
    def test_extreme_settings_stay_correct(self, config):
        old, new = _pair(600, 75, 76)
        delta = diff(old, new, config)
        assert apply_delta(delta, old, verify=True).deep_equal(new)
