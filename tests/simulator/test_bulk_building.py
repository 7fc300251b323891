"""The simulator builds trees at allocation speed and draws as before.

Generation and simulation run with the collector paused
(``repro.xmlkit.model.bulk``), draw their random integers through one
helper instead of ``randint``/``randrange``/``choice``, and skip two
whole-tree walks.  None of that may move a byte, so the outputs below
are pinned by sha256.
"""

import gc
import hashlib
import random

import pytest

import repro.simulator.change_simulator as change_simulator
from repro.core import serialize_delta
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    WebCorpus,
    WebCorpusConfig,
    evolve_site,
    generate_document,
    generate_site_snapshot,
    simulate_changes,
)
from repro.simulator.generator import generate_catalog
from repro.simulator.words import draw_below
from repro.xmlkit import parse, serialize


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1000])
def test_draw_below_draws_as_the_random_module(n):
    sequence = list(range(n))
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        assert sequence[draw_below(bits, n)] == theirs.choice(sequence)
        assert 5 + draw_below(bits, n) == theirs.randint(5, 4 + n)
        assert draw_below(bits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -3])
def test_draw_below_rejects_an_empty_range(n):
    with pytest.raises(ValueError):
        draw_below(random.Random(0).getrandbits, n)


def test_an_unlabelled_document_is_not_walked_for_its_largest_xid(
    monkeypatch,
):
    calls = []
    real = change_simulator.max_xid

    def counting(document):
        calls.append(document)
        return real(document)

    monkeypatch.setattr(change_simulator, "max_xid", counting)
    document = generate_document(GeneratorConfig(target_nodes=300, seed=2))
    result = simulate_changes(document, SimulatorConfig(seed=3))
    assert calls == []
    # A labelled document still is: its XIDs need not be 1..n.
    simulate_changes(result.new_document, SimulatorConfig(seed=4))
    assert len(calls) == 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_generated_and_simulated_bytes_are_unchanged():
    document = generate_document(GeneratorConfig(target_nodes=1500, seed=3))
    assert sha256(serialize(document)) == (
        "b6adc74e39cc7f75482d07029eab35f35a2b60232147050b4e385726bef8943c"
    )
    result = simulate_changes(document, SimulatorConfig(seed=4))
    assert result.counts == {
        "deleted_subtrees": 111,
        "deleted_nodes": 425,
        "updates": 38,
        "inserts": 124,
        "moves": 105,
    }
    assert sha256(serialize(result.new_document)) == (
        "a8635e070249f6fbc49bb1f855ffdc82e76888e58aba30fda46608e123133e5f"
    )
    assert sha256(serialize_delta(result.perfect_delta())) == (
        "93fae85239d8694943a57473427b14c1f956c8e9f2ad5b88a7c911fbe262d045"
    )
    catalog = generate_catalog(products=120, seed=5, with_ids=True)
    assert sha256(serialize(catalog)) == (
        "44c5a134fb70f81f61d2c03505cc6a6aad9c9cb04203f19b3afe1e905d69b8fd"
    )
    site = generate_site_snapshot(pages=80, seed=6)
    assert sha256(serialize(site)) == (
        "b0a38c3fef9196c03a0fcbac2c813348e314319412b7aea2d0d991c3c152a31c"
    )
    assert sha256(serialize(evolve_site(site, seed=7))) == (
        "55d03b852138f4b23d7f72bcef5be550a1e154e8cb73603e564b48f74423ad7e"
    )
    corpus = WebCorpus(WebCorpusConfig(documents=4, max_bytes=40_000, seed=2))
    assert [sha256(serialize(v)) for v in corpus.weekly_versions(3, 2)] == [
        "179b8820edb371b33523161290f1868e397b6c4c2eac02f3195129603131a0d8",
        "ed5afb7220cc846575ae67924d6f43d039fd4bf5163fe552c3589ece24aaef6f",
        "99cc68f787012e7125332cbd2165c50fea0c008a125150c74156b39dd6a2adc5",
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_builders_leave_the_collector_as_they_found_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        document = generate_document(GeneratorConfig(target_nodes=200))
        simulate_changes(document, SimulatorConfig(seed=1))
        generate_catalog(products=10)
        generate_site_snapshot(pages=5)
        parse(serialize(document)).clone()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
