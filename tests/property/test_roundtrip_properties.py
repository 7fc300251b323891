"""Property-based round-trip invariants of the XML substrate."""

from hypothesis import given, settings

from repro.xmlkit import canonical_bytes, parse, serialize
from repro.core import annotate

from tests.property.strategies import documents


@settings(max_examples=60, deadline=None)
@given(documents())
def test_serialize_parse_roundtrip(document):
    text = serialize(document)
    again = parse(text, strip_whitespace=False)
    assert again.deep_equal(document)


@settings(max_examples=60, deadline=None)
@given(documents())
def test_double_roundtrip_is_stable(document):
    once = serialize(document)
    twice = serialize(parse(once, strip_whitespace=False))
    assert once == twice


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3))
def test_clone_preserves_everything(document):
    copy = document.clone()
    assert copy.deep_equal(document)
    assert canonical_bytes(copy) == canonical_bytes(document)


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_canonical_bytes_characterize_equality(first, second):
    same_bytes = canonical_bytes(first) == canonical_bytes(second)
    assert same_bytes == first.deep_equal(second)


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3), documents(max_depth=3))
def test_signatures_characterize_equality(first, second):
    # Subtree numbers compare between documents that share one table.
    table = {}
    sig_first = annotate(first, table=table).signature(first)
    sig_second = annotate(second, table=table).signature(second)
    assert (sig_first == sig_second) == first.deep_equal(second)


@settings(max_examples=40, deadline=None)
@given(documents(max_depth=3))
def test_weights_at_least_one_and_superadditive(document):
    from repro.xmlkit import preorder

    annotations = annotate(document)
    for node in preorder(document):
        weight = annotations.weight(node)
        assert weight >= 1.0
        if node.children:
            assert weight >= sum(
                annotations.weight(child) for child in node.children
            )
