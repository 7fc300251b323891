"""The tree model's memory per node, and the shared empty containers.

Most nodes of a document have no attributes and most have no children,
so an :class:`Element` without them shares one read-only empty mapping
and the immutable empty child tuple that leaves use too.  Its own
``dict`` or ``list`` is allocated on the first write.  These tests bound
what a parsed tree costs per node, and check that no write can go
through a shared container and change other nodes.
"""

import gc
import tracemalloc

import pytest

from repro.core import apply_delta
from repro.core.delta import AttributeInsert, Delta
from repro.simulator import GeneratorConfig, generate_document
from repro.xmlkit import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    coalesce_text,
    parse,
    preorder,
    serialize,
)

#: Bytes per node of a parsed Fig. 4 document (4,001 nodes).  Measured
#: under CPython 3.11: 165.0 with shared empty containers and a strong
#: parent link, 227.3 with a dict and a list allocated per element.  The
#: weak parent link (an ``__weakref__`` slot per element and one shared
#: reference per parent) costs about 20 B: 192.3 / 187.2 / 188.5 on
#: CPython 3.10 / 3.11 / 3.12 with each child list grown by appends, and
#: 185.5 / 180.5 / 181.8 with the parser's exact-size child tuples.  The
#: bound sits 2.4% above the 3.10 value and 16% below the second 3.11 one.
TREE_BYTES_PER_NODE = 190


def test_parsed_tree_bytes_per_node():
    document = generate_document(GeneratorConfig(target_nodes=4000, seed=1))
    text = serialize(document)
    parse(text)  # warm-up: parser and interned names are not counted
    gc.collect()
    tracemalloc.start()
    try:
        document = parse(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nodes = sum(1 for _ in preorder(document))
    per_node = held / nodes
    assert per_node <= TREE_BYTES_PER_NODE, f"{per_node:.1f} B per node"


class TestSharedEmptyContainers:
    @pytest.mark.parametrize(
        "leaf",
        [Text("a"), Comment("c"), ProcessingInstruction("t", "v")],
        ids=["text", "comment", "pi"],
    )
    def test_write_through_leaf_children_raises(self, leaf):
        with pytest.raises(AttributeError):
            leaf.children.append(Element("x"))
        fresh = Text("b")
        assert len(fresh.children) == 0
        assert list(preorder(fresh)) == [fresh]

    def test_write_through_fresh_element_raises(self):
        element = Element("e")
        with pytest.raises(TypeError):
            element.attributes["k"] = "v"
        with pytest.raises(AttributeError):
            element.attributes.update(k="v")
        with pytest.raises(AttributeError):
            element.children.append(Text("x"))
        with pytest.raises(TypeError):
            element.children[0:0] = [Text("x")]
        assert len(Element("other").attributes) == 0
        assert len(Element("other").children) == 0

    def test_fresh_elements_share_no_mutable_container(self):
        first, second = Element("a"), Element("b")
        first.set_attribute("k", "1")
        first.append(Text("x"))
        assert dict(second.attributes) == {}
        assert len(second.children) == 0
        second.set_attribute("k", "2")
        second.append(Text("y"))
        assert first.attributes is not second.attributes
        assert first.children is not second.children
        assert first.get("k") == "1" and second.get("k") == "2"
        assert [child.value for child in first.children] == ["x"]

    def test_constructor_copies_the_given_attributes(self):
        given = {"k": "v"}
        element = Element("e", given)
        element.set_attribute("k", "w")
        assert given == {"k": "v"}
        assert Element("e", {}).attributes == {}

    def test_set_attribute_on_empty_and_filled_elements(self):
        element = Element("e")
        element.set_attribute("a", "1")
        element.set_attribute("b", "2")
        element.set_attribute("a", "3")
        assert element.attributes == {"a": "3", "b": "2"}

    def test_append_and_insert_on_empty_element(self):
        parent = Element("p")
        second = parent.append(Element("second"))
        first = parent.insert(0, Element("first"))
        assert parent.children == [first, second]
        assert first.parent is parent and second.parent is parent
        with pytest.raises(IndexError):
            Element("q").insert(1, Text("x"))

    def test_detach_last_child_leaves_an_empty_element(self):
        parent = Element("p")
        child = parent.append(Text("x"))
        child.detach()
        assert len(parent.children) == 0 and parent.is_leaf
        parent.append(child)
        assert parent.children == [child]

    def test_clone_of_elements_that_start_empty(self):
        root = Element("r")
        root.append(Element("empty"))
        leaf_parent = root.append(Element("full", {"k": "v"}))
        leaf_parent.append(Text("t"))
        copy = root.clone()
        assert copy.deep_equal(root)
        copied_empty = copy.children[0]
        copied_empty.set_attribute("n", "1")
        copied_empty.append(Text("new"))
        assert len(root.children[0].attributes) == 0
        assert len(root.children[0].children) == 0
        copy.children[1].set_attribute("k", "changed")
        assert leaf_parent.get("k") == "v"
        assert all(node.parent is copy for node in copy.children)

    def test_coalesce_text_on_elements_that_start_empty(self):
        root = Element("r")
        root.append(Element("empty"))
        text_parent = root.append(Element("t"))
        text_parent.append(Text("a"))
        text_parent.append(Text(""))
        text_parent.append(Text("b"))
        assert coalesce_text(Document(root)) == 2
        assert [child.value for child in text_parent.children] == ["ab"]
        assert len(root.children[0].children) == 0

    def test_attr_insert_onto_attribute_less_element(self):
        document = parse("<r><a/><b/></r>")
        for xid, node in enumerate(preorder(document), start=1):
            node.xid = xid
        target = document.root.children[0]
        untouched = document.root.children[1]
        delta = Delta([AttributeInsert(target.xid, "k", "v")])
        result = apply_delta(delta, document, verify=True)
        assert result.root.children[0].attributes == {"k": "v"}
        assert len(untouched.attributes) == 0
        assert len(result.root.children[1].attributes) == 0
