"""Tests for the change simulator and its ground-truth delta."""

import hashlib

import pytest

from repro.core import apply_delta, max_xid, serialize_delta
from repro.core.xid import DOCUMENT_XID, assign_initial_xids
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    WebCorpus,
    WebCorpusConfig,
    evolve_site,
    generate_document,
    generate_site_snapshot,
    simulate_changes,
    weekly_change_profile,
)
from repro.xmlkit import parse, preorder


def small_doc(seed=0):
    return generate_document(GeneratorConfig(target_nodes=120, seed=seed))


class TestGroundTruth:
    def test_perfect_delta_transforms_old_into_new(self):
        doc = small_doc()
        result = simulate_changes(doc, SimulatorConfig(seed=1))
        replay = apply_delta(result.perfect_delta(), doc, verify=True)
        assert replay.deep_equal(result.new_document)

    @pytest.mark.parametrize("seed", range(6))
    def test_many_seeds(self, seed):
        doc = small_doc(seed)
        result = simulate_changes(doc, SimulatorConfig(seed=seed + 100))
        replay = apply_delta(result.perfect_delta(), doc, verify=True)
        assert replay.deep_equal(result.new_document)

    def test_input_document_not_structurally_modified(self):
        doc = small_doc()
        pristine = doc.clone()
        simulate_changes(doc, SimulatorConfig(seed=2))
        assert doc.deep_equal(pristine)

    def test_moves_appear_as_move_operations(self):
        doc = small_doc(3)
        config = SimulatorConfig(
            delete_probability=0.15,
            update_probability=0.0,
            insert_probability=0.0,
            move_probability=0.5,
            seed=3,
        )
        result = simulate_changes(doc, config)
        if result.counts["moves"]:
            assert len(result.perfect_delta().by_kind("move")) >= 1

    def test_new_document_fully_labelled(self):
        result = simulate_changes(small_doc(4), SimulatorConfig(seed=4))
        for node in preorder(result.new_document):
            if node.kind != "document":
                assert node.xid is not None

    def test_fresh_xids_are_above_old_range(self):
        doc = small_doc(5)
        top = None
        result = simulate_changes(doc, SimulatorConfig(seed=5))
        top = max_xid(doc)
        inserted = result.perfect_delta().by_kind("insert")
        for operation in inserted:
            assert operation.xid > top


class TestPhases:
    def test_zero_probabilities_change_nothing(self):
        doc = small_doc(6)
        config = SimulatorConfig(0.0, 0.0, 0.0, 0.0, seed=6)
        result = simulate_changes(doc, config)
        assert result.new_document.deep_equal(doc)
        assert result.perfect_delta().is_empty()
        assert all(v == 0 for v in result.counts.values())

    def test_pure_deletes(self):
        doc = small_doc(7)
        config = SimulatorConfig(0.2, 0.0, 0.0, 0.0, seed=7)
        result = simulate_changes(doc, config)
        assert result.counts["deleted_subtrees"] > 0
        assert result.counts["inserts"] == 0
        summary = result.perfect_delta().summary()
        assert set(summary) <= {"delete", "move"}  # no updates/inserts
        assert "delete" in summary

    def test_pure_updates(self):
        doc = small_doc(8)
        config = SimulatorConfig(0.0, 0.5, 0.0, 0.0, seed=8)
        result = simulate_changes(doc, config)
        assert result.counts["updates"] > 0
        assert set(result.perfect_delta().summary()) == {"update"}

    def test_pure_inserts(self):
        doc = small_doc(9)
        config = SimulatorConfig(0.0, 0.0, 0.4, 0.0, seed=9)
        result = simulate_changes(doc, config)
        assert result.counts["inserts"] > 0
        assert set(result.perfect_delta().summary()) == {"insert"}

    def test_root_never_deleted(self):
        doc = small_doc(10)
        config = SimulatorConfig(0.95, 0.0, 0.0, 0.0, seed=10)
        result = simulate_changes(doc, config)
        assert result.new_document.root is not None
        assert result.new_document.root.label == doc.root.label

    def test_no_adjacent_text_after_simulation(self):
        doc = small_doc(11)
        config = SimulatorConfig(0.1, 0.1, 0.4, 0.3, seed=11)
        result = simulate_changes(doc, config)
        for node in preorder(result.new_document):
            children = node.children
            for first, second in zip(children, children[1:]):
                assert not (first.kind == "text" and second.kind == "text")

    def test_deterministic(self):
        doc = small_doc(12)
        a = simulate_changes(doc, SimulatorConfig(seed=12))
        b = simulate_changes(doc, SimulatorConfig(seed=12))
        assert a.new_document.deep_equal(b.new_document)
        assert a.counts == b.counts

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            simulate_changes(
                small_doc(), SimulatorConfig(delete_probability=1.5)
            )

    def test_works_on_tiny_document(self):
        doc = parse("<a><b>x</b></a>")
        result = simulate_changes(doc, SimulatorConfig(seed=13))
        replay = apply_delta(result.perfect_delta(), doc, verify=True)
        assert replay.deep_equal(result.new_document)


@pytest.fixture
def build_calls(monkeypatch):
    """Count phase-5 delta builds (the perfect delta is one of them)."""
    import repro.core.apply as apply_module

    calls = []
    real = apply_module.build_delta

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(apply_module, "build_delta", counting)
    return calls


class TestGroundTruthOnRequest:
    """The perfect delta is built only when ``perfect_delta()`` is called."""

    def test_simulating_builds_no_delta(self, build_calls):
        result = simulate_changes(small_doc(14), SimulatorConfig(seed=14))
        assert build_calls == []
        result.perfect_delta()
        assert len(build_calls) == 1

    def test_corpus_evolution_builds_no_delta(self, build_calls):
        corpus = WebCorpus(WebCorpusConfig(documents=1, max_bytes=8_000))
        corpus.weekly_versions(0, weeks=3)
        evolve_site(generate_site_snapshot(pages=20, seed=1), seed=2)
        assert build_calls == []

    def test_each_call_builds_a_fresh_delta(self):
        result = simulate_changes(small_doc(15), SimulatorConfig(seed=15))
        first, second = result.perfect_delta(), result.perfect_delta()
        assert first is not second
        assert serialize_delta(first) == serialize_delta(second)

    def test_both_documents_carry_the_document_xid(self):
        doc = parse("<a><b>x</b></a>")
        assign_initial_xids(doc)
        doc.xid = None  # labelled nodes, unlabelled document node
        result = simulate_changes(doc, SimulatorConfig(seed=16))
        assert result.old_document.xid == DOCUMENT_XID
        assert result.new_document.xid == DOCUMENT_XID

    @pytest.mark.parametrize(
        "config, size, sha256",
        [
            (
                SimulatorConfig(seed=4),
                39_918,
                "707d6263a6f3043eaeef96729d3baf232c2b3be5"
                "69c18f1c4d03cdb7ee45453d",
            ),
            (
                weekly_change_profile(5),
                12_271,
                "2b149c79576f52cf00a4fe350e4a293810c9fffc"
                "6beed9ac9df9774ed672a589",
            ),
        ],
        ids=["default", "weekly"],
    )
    def test_perfect_delta_bytes(self, config, size, sha256):
        doc = generate_document(GeneratorConfig(target_nodes=2000, seed=3))
        data = serialize_delta(
            simulate_changes(doc, config).perfect_delta()
        ).encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)
