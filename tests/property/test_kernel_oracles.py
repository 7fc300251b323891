"""The one-pass tree kernels against the routines they replaced.

``postorder``, compact ``serialize``, ``annotate``, the parser's tree
builder, ``clone`` and ``Element.append`` run on every tree the store
commits and the diff reads, so each was rewritten to do less work per
node.  The earlier routines are kept here as oracles: the new ones must
give the same node order, the same trees, the same bytes, the same
XIDs, and the same weights and equality classes of subtrees (the exact
subtree numbers that replaced the digests).  The version store, which now
copies a caller's tree only when it must be normalized, must write the
same bytes either way.
"""

from __future__ import annotations

import hashlib
import io
import math
import tempfile
from weakref import ref
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import annotate
from repro.core.xid import assign_initial_xids
from repro.storage import FilesystemBackend, SQLiteBackend
from repro.versioning import BackendRepository, VersionStore, layout
from repro.xmlkit import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    parse,
)
from repro.xmlkit.model import coalesce_text, normalized_size, postorder, preorder
from repro.xmlkit.serializer import escape_attribute, escape_text, serialize
from tests.property.strategies import (
    attribute_values,
    documents,
    labels,
    text_values,
)

# -- oracles ------------------------------------------------------------------


def old_postorder(node):
    """The generator ``postorder`` was: one (node, expanded) pair per push."""
    stack = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded or not current.children:
            yield current
            continue
        stack.append((current, True))
        for child in reversed(current.children):
            stack.append((child, False))


def old_serialize(node, *, sort_attributes=False):
    """The node-by-node compact serializer, one ``write`` per piece."""
    out = io.StringIO()
    top_level = list(node.children) if node.kind == "document" else [node]
    for top in top_level:
        stack = [top]
        while stack:
            current = stack.pop()
            if isinstance(current, str):
                out.write(current)
                continue
            kind = current.kind
            if kind == "element":
                items = current.attributes.items()
                if sort_attributes:
                    items = sorted(items)
                attrs = "".join(
                    f' {name}="{escape_attribute(str(value))}"'
                    for name, value in items
                )
                if not current.children:
                    out.write(f"<{current.label}{attrs}/>")
                    continue
                out.write(f"<{current.label}{attrs}>")
                stack.append(f"</{current.label}>")
                stack.extend(reversed(current.children))
            elif kind == "text":
                out.write(escape_text(current.value))
            elif kind == "comment":
                out.write(f"<!--{current.value}-->")
            elif kind == "pi":
                data = f" {current.value}" if current.value else ""
                out.write(f"<?{current.target}{data}?>")
    return out.getvalue()


def old_annotate(document, log_text_weight=True):
    """The per-``update`` annotate: ``(signatures, weights)`` maps."""
    signatures, weights = {}, {}

    def leaf_weight(length):
        return 1.0 + math.log(1 + length) if log_text_weight else 1.0

    for node in old_postorder(document):
        kind = node.kind
        hasher = hashlib.blake2b(digest_size=16)
        if kind == "element":
            label_bytes = node.label.encode("utf-8")
            hasher.update(b"E")
            hasher.update(str(len(label_bytes)).encode("ascii"))
            hasher.update(b":")
            hasher.update(label_bytes)
            for name, value in sorted(node.attributes.items()):
                name_bytes = name.encode("utf-8")
                value_bytes = str(value).encode("utf-8")
                hasher.update(str(len(name_bytes)).encode("ascii"))
                hasher.update(b"=")
                hasher.update(name_bytes)
                hasher.update(str(len(value_bytes)).encode("ascii"))
                hasher.update(b":")
                hasher.update(value_bytes)
            weight = 1.0
            for child in node.children:
                hasher.update(signatures[child])
                weight += weights[child]
        elif kind in ("text", "comment"):
            hasher.update(b"T" if kind == "text" else b"C")
            hasher.update(node.value.encode("utf-8"))
            weight = leaf_weight(len(node.value))
        elif kind == "pi":
            hasher.update(b"P")
            hasher.update(node.target.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(node.value.encode("utf-8"))
            weight = leaf_weight(len(node.value))
        else:
            hasher.update(b"D")
            weight = 1.0
            for child in node.children:
                hasher.update(signatures[child])
                weight += weights[child]
        signatures[node] = hasher.digest()
        weights[node] = weight
    return signatures, weights


class OldTreeBuilder:
    """The builder ``parse`` used before: it copied expat's attribute
    dict in ``Element.__init__`` and called ``_flush_text`` on every
    event."""

    def __init__(self, strip_whitespace):
        self.document = Document()
        self.strip_whitespace = strip_whitespace
        self.open = [(self.document, [])]
        self.text_parts = []

    def finish(self):
        document, children = self.open[0]
        for child in children:
            document.append(child)
        return document

    def flush_text(self):
        if not self.text_parts:
            return
        value = "".join(self.text_parts)
        self.text_parts.clear()
        if len(self.open) == 1:
            return
        if self.strip_whitespace and not value.strip():
            return
        self.open[-1][1].append(Text(value))

    def start_element(self, name, attributes):
        self.flush_text()
        element = Element(name, attributes)
        self.open[-1][1].append(element)
        self.open.append((element, []))

    def end_element(self, name):
        self.flush_text()
        element, children = self.open.pop()
        if children:
            up = ref(element)
            for child in children:
                child._up = up
            element.children = tuple(children)

    def character_data(self, data):
        self.text_parts.append(data)

    def comment(self, data):
        self.flush_text()
        self.open[-1][1].append(Comment(data))

    def processing_instruction(self, target, data):
        self.flush_text()
        self.open[-1][1].append(ProcessingInstruction(target, data))


def old_parse(text, strip_whitespace=True):
    builder = OldTreeBuilder(strip_whitespace)
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    parser.CommentHandler = builder.comment
    parser.ProcessingInstructionHandler = builder.processing_instruction
    parser.Parse(text, True)
    return builder.finish()


def old_clone(node, keep_xids=True):
    """The clone that made every copy through ``_shallow_clone``."""
    copy_root = node._shallow_clone(keep_xids)
    stack = [(node, copy_root)]
    while stack:
        original, copy = stack.pop()
        children = original.children
        if not children:
            continue
        copies = [child._shallow_clone(keep_xids) for child in children]
        up = ref(copy)
        for child_copy in copies:
            child_copy._up = up
        copy.children = tuple(copies) if copy.kind == "element" else copies
        stack.extend(zip(children, copies))
    return copy_root


def old_append(parent, child):
    """``Element.append`` as it was: always through ``insert``."""
    return parent.insert(len(parent.children), child)


def same_shape(a, b):
    """Both trees have the same nodes, XIDs, container types and links."""
    pairs = list(zip(preorder(a), preorder(b)))
    assert len(pairs) == len(list(preorder(a))) == len(list(preorder(b)))
    for x, y in pairs:
        assert x.kind == y.kind and x.xid == y.xid
        assert type(x.children) is type(y.children)
        if x.kind == "element":
            assert x.label == y.label
            assert type(x.attributes) is type(y.attributes)
            assert list(x.attributes.items()) == list(y.attributes.items())
        for child in x.children:
            assert child.parent is x
        for child in y.children:
            assert child.parent is y


def chain(depth: int) -> Element:
    """An element chain ``depth`` levels deep, a text leaf at the bottom."""
    root = current = Element("n0", {"k": "v"})
    for index in range(1, depth):
        current = current.append(Element(f"n{index}"))
    current.append(Text("bottom & <end>"))
    return root


# -- postorder ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(documents(max_depth=5))
def test_postorder_matches_the_generator(document):
    assert [id(n) for n in postorder(document)] == [
        id(n) for n in old_postorder(document)
    ]
    root = document.root
    assert [id(n) for n in postorder(root)] == [
        id(n) for n in old_postorder(root)
    ]


def test_postorder_matches_the_generator_5000_levels_deep():
    root = chain(5000)
    order = postorder(root)
    assert len(order) == 5001
    assert [id(n) for n in order] == [id(n) for n in old_postorder(root)]


def test_postorder_of_a_leaf_is_the_leaf():
    leaf = Text("x")
    assert postorder(leaf) == [leaf]


def test_callers_may_relabel_while_iterating():
    document = parse("<a><b>x</b><c/></a>")
    for number, node in enumerate(postorder(document)):
        node.xid = number
    assert [n.xid for n in old_postorder(document)] == [0, 1, 2, 3, 4]


# -- serialize ----------------------------------------------------------------

#: Values built from the characters the serializer must escape.
special_values = st.text(alphabet="&<>\"\t\n\rab ", min_size=0, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    documents(max_depth=5),
    st.booleans(),
)
def test_serialize_matches_the_old_routine(document, sort_attributes):
    options = dict(sort_attributes=sort_attributes)
    assert serialize(document, **options) == old_serialize(document, **options)
    root = document.root
    assert serialize(root, **options) == old_serialize(root, **options)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(labels, st.one_of(attribute_values, special_values),
                    max_size=4),
    st.lists(special_values.filter(bool), max_size=3),
    st.booleans(),
)
def test_serialize_escapes_like_the_old_routine(attributes, texts, sort):
    element = Element("e", attributes)
    for value in texts:
        element.append(Element("t")).append(Text(value))
    element.append(Comment("c"))
    element.append(ProcessingInstruction("p", ""))
    assert serialize(element, sort_attributes=sort) == old_serialize(
        element, sort_attributes=sort
    )


def test_serialize_escapes_every_special_character():
    element = Element("e", {"b": '& < > " \t \n \r', "a": "plain"})
    element.append(Text('& < > " \t \n \r'))
    for sort in (False, True):
        assert serialize(element, sort_attributes=sort) == old_serialize(
            element, sort_attributes=sort
        )
    assert serialize(element) == (
        '<e b="&amp; &lt; &gt; &quot; &#9; &#10; &#13;" a="plain">'
        '&amp; &lt; &gt; " \t \n &#13;</e>'
    )


def test_serialize_handles_any_depth():
    root = chain(5000)
    text = serialize(root)
    assert text == old_serialize(root)
    assert parse(text).root.deep_equal(root)


# -- annotate -----------------------------------------------------------------


def same_classes(roots, log_text_weight=True):
    """Annotate ``roots`` against one table and check them on the oracle.

    Two nodes of any of the trees get equal numbers exactly when their
    oracle digests are equal, and every weight is the oracle's.
    """
    table = {}
    number_of_digest, digest_of_number = {}, {}
    for root in roots:
        annotations = annotate(
            root, table=table, log_text_weight=log_text_weight
        )
        digests, weights = old_annotate(root, log_text_weight)
        assert annotations.weights == weights
        assert annotations.node_count == len(digests)
        assert annotations.total_weight == weights[root]
        for node, digest in digests.items():
            number = annotations.signatures[node]
            assert number_of_digest.setdefault(digest, number) == number
            assert digest_of_number.setdefault(number, digest) == digest
    return len(number_of_digest)


@settings(max_examples=150, deadline=None)
@given(documents(max_depth=5), documents(max_depth=5), st.booleans())
def test_annotate_matches_the_per_update_routine(
    document, other, log_text_weight
):
    # The copy shares every subtree with the document, the other
    # document few: both equal and different numbers are exercised.
    same_classes([document, document.clone(), other], log_text_weight)


def test_annotate_matches_on_a_deep_chain():
    root = chain(5000)
    assert same_classes([root, chain(5000)]) == 5001


# -- parse --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(documents(max_depth=5), st.booleans(), st.booleans())
def test_parse_matches_the_old_builder(document, pretty, strip):
    text = serialize(document, indent=2) if pretty else serialize(document)
    new = parse(text, strip_whitespace=strip)
    old = old_parse(text, strip_whitespace=strip)
    assert new.deep_equal(old)
    same_shape(new, old)
    assert serialize(new) == serialize(old)
    assert [n.xid for n in postorder(new)] == [None] * len(postorder(new))
    assign_initial_xids(new)
    assign_initial_xids(old)
    same_shape(new, old)


def test_parse_keeps_expat_attribute_dicts_private():
    document = parse('<a k="1"><b k="1"/><c/></a>')
    a = document.root
    b, c = a.children
    assert a.attributes == b.attributes and a.attributes is not b.attributes
    b.set_attribute("k", "2")
    assert a.get("k") == "1"
    with pytest.raises(TypeError):
        c.attributes["k"] = "x"  # the shared empty map stays read-only


# -- clone --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(documents(max_depth=5), st.booleans(), st.booleans())
def test_clone_matches_the_old_clone(document, labelled, keep_xids):
    if labelled:
        assign_initial_xids(document)
    for original in (document, document.root):
        new = original.clone(keep_xids=keep_xids)
        old = old_clone(original, keep_xids=keep_xids)
        assert new.parent is None and new.deep_equal(old)
        same_shape(new, old)
        assert serialize(new) == serialize(old) == serialize(original)
        for copy, source in zip(preorder(new), preorder(original)):
            assert copy is not source
            if copy.kind == "element" and source.attributes:
                assert copy.attributes is not source.attributes


def test_clone_of_a_leaf_and_of_a_deep_chain():
    for leaf in (Text("t"), Comment("c"), ProcessingInstruction("p", "v")):
        leaf.xid = 7
        copy = leaf.clone()
        assert copy is not leaf and copy.deep_equal(leaf) and copy.xid == 7
    root = chain(5000)
    same_shape(root.clone(), old_clone(root))


# -- append -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    documents(max_depth=4),
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.sampled_from(["text", "element", "move"]),
            text_values,
        ),
        max_size=12,
    ),
)
def test_append_matches_the_old_append(document, steps):
    new_tree = document.clone()
    old_tree = old_clone(document)
    for target_pick, node_pick, what, value in steps:
        picks = []
        for tree in (new_tree, old_tree):
            elements = [n for n in preorder(tree) if n.kind == "element"]
            target = elements[target_pick % len(elements)]
            if what == "text":
                child = Text(value)
            elif what == "element":
                child = Element("e")
            else:
                # Any node but the document, the root and the target's
                # ancestors: moving one of those would make a cycle.
                banned = {id(target), id(tree.root), id(tree)}
                banned.update(id(n) for n in target.ancestors())
                movable = [n for n in preorder(tree) if id(n) not in banned]
                if not movable:
                    break
                child = movable[node_pick % len(movable)]
            picks.append((target, child))
        if len(picks) != 2 or picks[1][1].parent is picks[1][0]:
            # The old append raised IndexError on a child of the target,
            # after detaching it (see the test below): no oracle there.
            continue
        (new_target, new_child), (old_target, old_child) = picks
        assert new_target.append(new_child) is new_child
        assert old_append(old_target, old_child) is old_child
        assert new_child.parent is new_target
        assert new_target.children[-1] is new_child
    assert new_tree.deep_equal(old_tree)
    same_shape(new_tree, old_tree)
    assert serialize(new_tree) == serialize(old_tree)


def test_append_moves_a_child_of_the_element_to_the_end():
    document = parse("<a><b/><c/></a>")
    a = document.root
    b = a.children[0]
    twin = document.clone()
    with pytest.raises(IndexError):
        old_append(twin.root, twin.root.children[0])  # counted b twice
    assert a.append(b) is b
    assert [child.label for child in a.children] == ["c", "b"]
    assert type(a.children) is list and b.parent is a
    assert a.append(b) is b  # already last: stays
    fresh = a.append(Element("d"))
    assert a.children[-1] is fresh and fresh.parent is a
    assert serialize(document) == "<a><c/><b/><d/></a>"


# -- the version store copies only what it must -------------------------------


def unnormalized(document):
    """A twin of ``document`` that normalizes back to it: its first
    text node is split in two and an empty text node is added."""
    twin = document.clone()
    for node in preorder(twin):
        if node.kind == "text" and len(node.value) > 1:
            parent = node.parent
            head, tail = node.value[:1], node.value[1:]
            node.value = head
            parent.insert(node.position() + 1, Text(tail))
            break
    twin.root.append(Text(""))
    return twin


def store_bytes(backend):
    return {key: backend.get(key) for key in backend.list_keys()}


def write_history(make_backend, first, second):
    """Every stored key's bytes after ``create``, then after ``commit``."""
    backend = make_backend()
    try:
        store = VersionStore(BackendRepository(backend))
        store.create("doc", first)
        created = store_bytes(backend)
        store.commit("doc", second)
        return created, store_bytes(backend)
    finally:
        backend.close()


def old_create_bytes(make_backend, first):
    """What ``create`` stores for a normalized clone, checked against
    the labels and next XID that labelling the clone gives."""
    backend = make_backend()
    try:
        working = old_clone(first, keep_xids=False)
        coalesce_text(working)
        allocator = assign_initial_xids(working)
        BackendRepository(backend).create(
            "doc", working, allocator.next_xid - 1
        )
        head = layout.get_record(backend, "doc", "meta")
        assert head["xid_labels"] == layout.collect_xids(working)
        assert head["next_xid"] == allocator.next_xid
        return store_bytes(backend)
    finally:
        backend.close()


@pytest.mark.parametrize("scheme", ["file", "sqlite"])
@settings(max_examples=25, deadline=None)
@given(first=documents(max_depth=4), second=documents(max_depth=4))
def test_store_writes_the_same_bytes_for_a_tree_and_its_copies(
    scheme, first, second
):
    with tempfile.TemporaryDirectory() as scratch:
        counter = iter(range(100))

        def make_backend():
            name = f"{scratch}/store-{next(counter)}"
            if scheme == "sqlite":
                return SQLiteBackend(name + ".sqlite")
            return FilesystemBackend(name)

        created = old_create_bytes(make_backend, first)
        as_given = write_history(make_backend, first, second)
        from_clones = write_history(
            make_backend, first.clone(), second.clone()
        )
        from_twins = write_history(
            make_backend, unnormalized(first), unnormalized(second)
        )
    assert as_given == from_clones == from_twins
    assert as_given[0] == created


@pytest.fixture
def clone_calls(monkeypatch):
    calls = []
    original = Document.clone

    def counting(self, *, keep_xids=True):
        calls.append(self.subtree_size())
        return original(self, keep_xids=keep_xids)

    monkeypatch.setattr(Document, "clone", counting)
    return calls


def test_a_normalized_document_is_never_copied(clone_calls):
    store = VersionStore()
    first = parse("<a><b>x</b><c k='1'>y<d/>z</c></a>")
    second = parse("<a><b>x!</b><c k='1'>y<d/>z</c><e/></a>")
    assert normalized_size(first) == (8, True)
    store.create("doc", first)
    assert [n.xid for n in preorder(first)] == [None] * 8
    delta = store.commit("doc", second)
    assert clone_calls == []
    # commit labels the caller's tree in place, with the stored XIDs.
    stored = store.get_current("doc")
    assert [n.xid for n in postorder(second)] == [
        n.xid for n in postorder(stored)
    ]
    assert delta.target_version == 2


def test_an_unnormalized_document_is_copied_once(clone_calls):
    store = VersionStore()
    first = parse("<a><b>x</b></a>")
    first.root.children[0].append(Text("y"))
    first.root.append(Text(""))
    second = parse("<a><b>x</b></a>")
    second.root.children[0].append(Text("z"))
    before = [serialize(first), serialize(second)]
    shapes = [
        [len(n.children) for n in preorder(tree)] for tree in (first, second)
    ]
    assert normalized_size(first) == (6, False)
    store.create("doc", first)
    assert len(clone_calls) == 1
    store.commit("doc", second)
    assert len(clone_calls) == 2
    # The caller's trees keep their structure and carry no XIDs.
    assert [serialize(first), serialize(second)] == before
    assert [
        [len(n.children) for n in preorder(tree)] for tree in (first, second)
    ] == shapes
    for tree in (first, second):
        assert [n.xid for n in preorder(tree)] == [None] * tree.subtree_size()
    assert serialize(store.get_version("doc", 1)) == "<a><b>xy</b></a>"
    assert serialize(store.get_current("doc")) == "<a><b>xz</b></a>"
