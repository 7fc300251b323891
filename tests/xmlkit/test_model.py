"""Unit tests for the ordered-tree document model."""

import pytest

from repro.xmlkit import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    postorder,
    preorder,
)


def build_sample():
    root = Element("catalog")
    product = Element("product", {"sku": "A1"})
    name = Element("name")
    name.append(Text("Widget"))
    price = Element("price")
    price.append(Text("$10"))
    product.append(name)
    product.append(price)
    root.append(product)
    return Document(root)


class TestStructure:
    def test_append_sets_parent(self):
        parent = Element("a")
        child = Element("b")
        parent.append(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_insert_positions(self):
        parent = Element("a")
        first = Element("x")
        second = Element("y")
        parent.append(first)
        parent.insert(0, second)
        assert parent.children == [second, first]
        assert first.position() == 1
        assert second.position() == 0

    def test_insert_out_of_range(self):
        parent = Element("a")
        with pytest.raises(IndexError):
            parent.insert(2, Element("b"))

    def test_append_reattaches(self):
        first = Element("a")
        second = Element("b")
        child = Element("c")
        first.append(child)
        second.append(child)
        assert child.parent is second
        assert first.children == []

    def test_detach(self):
        parent = Element("a")
        child = parent.append(Element("b"))
        child.detach()
        assert child.parent is None
        assert parent.children == []
        # detaching again is a no-op
        child.detach()

    def test_position_of_detached_raises(self):
        with pytest.raises(ValueError):
            Element("a").position()

    def test_remove_requires_child(self):
        parent = Element("a")
        stranger = Element("b")
        with pytest.raises(ValueError):
            parent.remove(stranger)

    def test_replace(self):
        parent = Element("a")
        old = parent.append(Element("old"))
        sibling = parent.append(Element("s"))
        new = Element("new")
        parent.replace(old, new)
        assert [c.label for c in parent.children] == ["new", "s"]
        assert old.parent is None

    def test_document_single_root(self):
        doc = Document(Element("a"))
        with pytest.raises(ValueError):
            doc.append(Element("b"))

    def test_document_allows_prolog_nodes(self):
        doc = Document()
        doc.append(Comment("header"))
        doc.append(ProcessingInstruction("xml-stylesheet", "href='x'"))
        doc.append(Element("root"))
        assert doc.root.label == "root"
        assert len(doc.children) == 3

    def test_ancestors_and_depth(self):
        doc = build_sample()
        name = doc.root.children[0].children[0]
        labels = [
            node.label for node in name.ancestors() if node.kind == "element"
        ]
        assert labels == ["product", "catalog"]
        assert name.depth() == 3  # product, catalog, document

    def test_document_lookup(self):
        doc = build_sample()
        text = doc.root.children[0].children[0].children[0]
        assert text.document() is doc
        assert Element("loose").document() is None


class TestTraversal:
    def test_preorder_order(self):
        doc = build_sample()
        kinds = [
            node.label if node.kind == "element" else node.kind
            for node in preorder(doc)
        ]
        assert kinds == [
            "document",
            "catalog",
            "product",
            "name",
            "text",
            "price",
            "text",
        ]

    def test_postorder_order(self):
        doc = build_sample()
        labels = [
            node.label for node in postorder(doc) if node.kind == "element"
        ]
        assert labels == ["name", "price", "product", "catalog"]

    def test_subtree_size(self):
        doc = build_sample()
        assert doc.subtree_size() == 7
        assert doc.root.subtree_size() == 6

    def test_deep_tree_traversal_is_iterative(self):
        # A chain far deeper than the recursion limit must traverse fine.
        root = Element("n0")
        current = root
        for index in range(1, 5000):
            nxt = Element(f"n{index}")
            current.append(nxt)
            current = nxt
        assert sum(1 for _ in preorder(root)) == 5000
        assert sum(1 for _ in postorder(root)) == 5000


class TestEqualityAndClone:
    def test_deep_equal_true(self):
        assert build_sample().deep_equal(build_sample())

    def test_deep_equal_detects_text_change(self):
        a = build_sample()
        b = build_sample()
        b.root.children[0].children[1].children[0].value = "$11"
        assert not a.deep_equal(b)

    def test_deep_equal_detects_attribute_change(self):
        a = build_sample()
        b = build_sample()
        b.root.children[0].attributes["sku"] = "A2"
        assert not a.deep_equal(b)

    def test_deep_equal_detects_reorder(self):
        a = build_sample()
        b = build_sample()
        product = b.root.children[0]
        price = product.children[1]
        product.insert(0, price)
        assert not a.deep_equal(b)

    def test_deep_equal_ignores_xids(self):
        a = build_sample()
        b = build_sample()
        a.root.xid = 42
        assert a.deep_equal(b)

    def test_clone_is_deep_and_detached(self):
        doc = build_sample()
        copy = doc.clone()
        assert copy.deep_equal(doc)
        assert copy is not doc
        copy.root.children[0].attributes["sku"] = "B9"
        assert doc.root.children[0].attributes["sku"] == "A1"

    def test_clone_keeps_or_drops_xids(self):
        doc = build_sample()
        doc.root.xid = 7
        kept = doc.clone()
        assert kept.root.xid == 7
        dropped = doc.clone(keep_xids=False)
        assert dropped.root.xid is None

    def test_clone_of_deep_tree(self):
        root = Element("a")
        current = root
        for _ in range(4000):
            nxt = Element("a")
            current.append(nxt)
            current = nxt
        assert root.clone().deep_equal(root)

    def test_text_content(self):
        doc = build_sample()
        assert doc.root.text_content() == "Widget$10"


class TestElementQueries:
    def test_find_and_find_all(self):
        parent = Element("p")
        parent.append(Element("a"))
        parent.append(Element("b"))
        parent.append(Element("a"))
        assert parent.find("a") is parent.children[0]
        assert parent.find("missing") is None
        assert len(parent.find_all("a")) == 2

    def test_get_attribute(self):
        element = Element("e", {"k": "v"})
        assert element.get("k") == "v"
        assert element.get("other", "d") == "d"

