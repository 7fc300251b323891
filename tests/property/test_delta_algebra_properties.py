"""Property-based tests of the completed-delta algebra.

The change model's selling points (Section 4): deltas reconstruct any
version from a neighbour, invert, aggregate, and survive their XML
representation unchanged.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    aggregate,
    apply_backward,
    apply_delta,
    diff,
    parse_delta,
    serialize_delta,
)
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)

from tests.property.strategies import documents


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_delta_xml_roundtrip(old, new):
    delta = diff(old, new)
    assert parse_delta(serialize_delta(delta)) == delta


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_reparsed_delta_still_applies(old, new):
    delta = parse_delta(serialize_delta(diff(old, new)))
    assert apply_delta(delta, old, verify=True).deep_equal(new)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_aggregation_composes_chains(doc_seed, seed_one, seed_two):
    v0 = generate_document(GeneratorConfig(target_nodes=60, seed=doc_seed))
    step_one = simulate_changes(v0, SimulatorConfig(seed=seed_one))
    v1 = step_one.new_document
    step_two = simulate_changes(v1, SimulatorConfig(seed=seed_two))
    v2 = step_two.new_document

    combined = aggregate(
        [step_one.perfect_delta(), step_two.perfect_delta()], v0
    )
    assert apply_delta(combined, v0, verify=True).deep_equal(v2)
    assert apply_backward(combined, v2, verify=True).deep_equal(v0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_delta_then_inverse_aggregates_to_empty(doc_seed, sim_seed):
    v0 = generate_document(GeneratorConfig(target_nodes=60, seed=doc_seed))
    step = simulate_changes(v0, SimulatorConfig(seed=sim_seed))
    perfect = step.perfect_delta()
    combined = aggregate([perfect, perfect.inverted()], v0)
    assert combined.is_empty()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_perfect_delta_is_never_bigger_than_delete_all_insert_all(
    doc_seed, sim_seed
):
    from repro.core import delta_byte_size
    from repro.xmlkit import serialize_bytes

    v0 = generate_document(GeneratorConfig(target_nodes=60, seed=doc_seed))
    step = simulate_changes(v0, SimulatorConfig(seed=sim_seed))
    perfect = step.perfect_delta()
    # sanity envelope: the ground-truth delta cannot exceed a full dump of
    # both versions plus operation overhead per node
    bound = (
        len(serialize_bytes(v0))
        + len(serialize_bytes(step.new_document))
        + 200 * (len(perfect.operations) + 1)
    )
    assert delta_byte_size(perfect) <= bound
