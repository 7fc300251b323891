"""Property-based tests for merge, transforms, HTML conversion, site diff."""

from hypothesis import given, settings, strategies as st

from repro.core import apply_delta, diff, xid_index
from repro.core.transform import moves_to_edits
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.versioning.merge import merge
from repro.xmlkit import parse, serialize
from repro.xmlkit.htmlize import htmlize

from tests.property.strategies import documents


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 5_000),
    st.integers(0, 5_000),
    st.integers(0, 5_000),
)
def test_merge_always_produces_valid_document(doc_seed, ours_seed, theirs_seed):
    base = generate_document(GeneratorConfig(target_nodes=60, seed=doc_seed))
    ours = simulate_changes(
        base, SimulatorConfig(0.05, 0.1, 0.05, 0.03, seed=ours_seed)
    ).perfect_delta()
    theirs = simulate_changes(
        base, SimulatorConfig(0.05, 0.1, 0.05, 0.03, seed=theirs_seed)
    ).perfect_delta()
    result = merge(base, ours, theirs)
    # XIDs stay unique (raises on duplicates)
    xid_index(result.document)
    # the merged document serializes and reparses
    assert parse(
        serialize(result.document), strip_whitespace=False
    ).deep_equal(result.document)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5_000), st.integers(0, 5_000))
def test_merge_with_empty_side_applies_other_side(doc_seed, sim_seed):
    from repro.core import Delta

    base = generate_document(GeneratorConfig(target_nodes=50, seed=doc_seed))
    changed = simulate_changes(
        base, SimulatorConfig(0.05, 0.1, 0.05, 0.03, seed=sim_seed)
    )
    result = merge(base, changed.perfect_delta(), Delta([]))
    assert result.is_clean
    assert result.document.deep_equal(changed.new_document)
    # symmetric
    result = merge(base, Delta([]), changed.perfect_delta())
    assert result.is_clean
    assert result.document.deep_equal(changed.new_document)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 5_000),
    st.integers(0, 5_000),
    st.booleans(),
)
def test_moves_to_edits_preserves_content(doc_seed, sim_seed, intra_only):
    base = generate_document(GeneratorConfig(target_nodes=60, seed=doc_seed))
    result = simulate_changes(
        base, SimulatorConfig(0.05, 0.05, 0.05, 0.25, seed=sim_seed)
    )
    old = base.clone(keep_xids=False)
    new = result.new_document.clone(keep_xids=False)
    delta = diff(old, new)
    rewritten = moves_to_edits(delta, old, intra_parent_only=intra_only)
    assert apply_delta(rewritten, old, verify=True).deep_equal(new)


@settings(max_examples=40, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        max_size=200,
    )
)
def test_htmlize_always_wellformed(junk):
    document = htmlize(junk)
    assert document.root is not None
    reparsed = parse(serialize(document), strip_whitespace=False)
    assert reparsed.deep_equal(document)


@settings(max_examples=25, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_sitediff_roundtrip(old_doc, new_doc):
    from repro.versioning.sitediff import SiteSnapshot, diff_sites

    old_snap = SiteSnapshot({"page": old_doc})
    new_snap = SiteSnapshot({"page": new_doc})
    site_delta = diff_sites(old_snap, new_snap)
    if old_doc.deep_equal(new_doc):
        assert site_delta.changed == {}
    else:
        page_delta = site_delta.changed["page"]
        assert apply_delta(page_delta, old_doc, verify=True).deep_equal(
            new_doc
        )
