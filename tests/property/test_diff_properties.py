"""Property-based tests of the paper's central correctness claims.

"We show first that our algorithm is 'correct' in that it finds a set of
changes that is sufficient to transform the old version into the new
version ... it misses no changes."  These properties exercise exactly
that, over arbitrary generated documents, arbitrary simulated change
scripts, and arbitrary *unrelated* document pairs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DiffConfig,
    apply_backward,
    apply_delta,
    diff,
    invert,
    parse_delta,
    serialize_delta,
)
from repro.engine.engines import ENGINES
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import parse, serialize

from tests.property.strategies import documents


def fresh(document):
    return document.clone(keep_xids=False)


@settings(max_examples=50, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_diff_correct_on_unrelated_documents(old, new):
    delta = diff(old, new)
    assert apply_delta(delta, old, verify=True).deep_equal(new)
    assert apply_backward(delta, new, verify=True).deep_equal(old)


@settings(max_examples=50, deadline=None)
@given(documents(max_depth=3))
def test_diff_of_identical_documents_is_empty(document):
    twin = document.clone(keep_xids=False)
    assert diff(document, twin).is_empty()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.floats(0.0, 0.4),
    st.floats(0.0, 0.4),
    st.floats(0.0, 0.4),
    st.floats(0.0, 0.4),
)
def test_diff_correct_under_simulated_changes(
    doc_seed, sim_seed, p_delete, p_update, p_insert, p_move
):
    base = generate_document(GeneratorConfig(target_nodes=80, seed=doc_seed))
    result = simulate_changes(
        base,
        SimulatorConfig(p_delete, p_update, p_insert, p_move, seed=sim_seed),
    )
    old = fresh(base)
    new = fresh(result.new_document)
    delta = diff(old, new)
    assert apply_delta(delta, old, verify=True).deep_equal(new)
    assert apply_backward(delta, new, verify=True).deep_equal(old)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.booleans(),
    st.integers(0, 3),
)
def test_diff_correct_under_any_config(seed, use_ids, lazy, passes):
    base = generate_document(GeneratorConfig(target_nodes=60, seed=seed))
    result = simulate_changes(base, SimulatorConfig(seed=seed + 1))
    config = DiffConfig(
        use_id_attributes=use_ids,
        lazy_down=lazy,
        optimization_passes=passes,
    )
    old = fresh(base)
    new = fresh(result.new_document)
    delta = diff(old, new, config)
    assert apply_delta(delta, old, verify=True).deep_equal(new)


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_double_inversion_identity(old, new):
    delta = diff(old, new)
    assert invert(invert(delta)) == delta


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_diff_correct_with_id_attributes(doc_seed, sim_seed):
    """Catalogs with DTD-declared ID attributes stay correct under
    arbitrary simulated change (Phase 1 + locking in the loop)."""
    from repro.simulator import generate_catalog

    base = generate_catalog(products=20, categories=3, seed=doc_seed,
                            with_ids=True)
    result = simulate_changes(base, SimulatorConfig(seed=sim_seed))
    old = fresh(base)
    old.id_attributes = set(base.id_attributes)
    new = fresh(result.new_document)
    new.id_attributes = set(base.id_attributes)
    delta = diff(old, new)
    assert apply_delta(delta, old, verify=True).deep_equal(new)
    assert apply_backward(delta, new, verify=True).deep_equal(old)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_inferred_ids_stay_correct(doc_seed, sim_seed):
    base = generate_document(GeneratorConfig(target_nodes=70, seed=doc_seed))
    result = simulate_changes(base, SimulatorConfig(seed=sim_seed))
    old = fresh(base)
    new = fresh(result.new_document)
    delta = diff(old, new, DiffConfig(infer_id_attributes=True))
    assert apply_delta(delta, old, verify=True).deep_equal(new)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_matching_respects_labels_and_kinds(seed):
    from tests.core.buld_phases import match_documents

    base = generate_document(GeneratorConfig(target_nodes=70, seed=seed))
    result = simulate_changes(base, SimulatorConfig(seed=seed + 5))
    matcher = match_documents(fresh(base), fresh(result.new_document))
    for old_node, new_node in matcher.matching.pairs():
        assert old_node.kind == new_node.kind
        if old_node.kind == "element":
            assert old_node.label == new_node.label


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "strip_whitespace", [True, False], ids=["strip", "keep"]
)
@settings(max_examples=15, deadline=None)
@given(doc_seed=st.integers(0, 10_000), sim_seed=st.integers(0, 10_000))
def test_every_engine_round_trips_bytes(
    engine, strip_whitespace, doc_seed, sim_seed
):
    """For Δ = diff(a, b) through the delta's XML form, apply(Δ, a) and
    apply(invert(Δ), b) serialize to the bytes of b and a: on
    pretty-printed pairs, under either whitespace policy."""
    base = generate_document(GeneratorConfig(target_nodes=60, seed=doc_seed))
    changed = simulate_changes(
        base, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=sim_seed)
    ).new_document
    old, new = (
        parse(serialize(fresh(document), indent=2),
              strip_whitespace=strip_whitespace)
        for document in (base, changed)
    )
    delta = parse_delta(serialize_delta(diff(old, new, engine=engine)))
    assert serialize(apply_delta(delta, old)) == serialize(new)
    assert serialize(apply_delta(invert(delta), new)) == serialize(old)
