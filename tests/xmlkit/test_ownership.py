"""Trees are owned top-down; a child reaches its parent by a weak link.

A dropped document is freed by reference counting at once, and a node
kept past its document reads as a detached root; the path helpers raise
on it instead of returning a path cut short.  A parsed or cloned element
keeps its children in one exact-size tuple until the first structural
write turns it into the element's own list.
"""

import gc
import pathlib
import re
import weakref

import pytest

from repro.core.deltaxml import _collapse_wrapped_descendants
from repro.xmlkit import (
    Comment,
    Document,
    Element,
    LabelPattern,
    PathError,
    ProcessingInstruction,
    Text,
    coalesce_text,
    find_all,
    label_path_of,
    parse,
    path_of,
    preorder,
    serialize,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def assert_linked(document):
    """Every child's parent is the node whose children hold it."""
    for node in preorder(document):
        for child in node.children:
            assert child.parent is node


class TestWeakParentLink:
    def test_dropped_document_is_freed_without_the_collector(self):
        document = parse("<r><a><b>t</b></a><c/></r>")
        root_ref = weakref.ref(document.root)
        leaf = document.root.children[0].children[0]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del document
            assert root_ref() is None
            assert leaf.parent is None
        finally:
            if enabled:
                gc.enable()

    def test_kept_root_of_a_dropped_document_is_detached(self):
        root = parse("<r><a/>t</r>").root
        assert root.parent is None and root.orphaned
        assert root.document() is None
        assert root.detach() is root
        assert root.parent is None
        assert [child.parent for child in root.children] == [root, root]
        with pytest.raises(ValueError):
            root.position()

    def test_kept_root_can_join_another_document(self):
        root = parse("<r><a/></r>").root
        document = Document(root)
        assert root.parent is document and root.document() is document
        assert_linked(document)

    def test_clone_links_copies_to_the_copied_parent(self):
        document = parse("<r><a><b/>x</a><c k='v'/></r>")
        copy = document.clone()
        assert copy.deep_equal(document)
        assert_linked(copy)
        originals = set(map(id, preorder(document)))
        for node in preorder(copy):
            assert id(node) not in originals
            if node is not copy:
                assert id(node.parent) not in originals
        assert copy.parent is None
        assert type(copy.root.children) is tuple
        assert type(copy.root.children[0].children) is tuple
        assert type(copy.children) is list

    @pytest.mark.parametrize(
        "leaf",
        [Text("a"), Comment("c"), ProcessingInstruction("t", "v")],
        ids=["text", "comment", "pi"],
    )
    def test_leaf_cannot_be_a_parent(self, leaf):
        with pytest.raises(TypeError):
            Element("e").parent = leaf
        with pytest.raises(TypeError):
            Text("x").parent = leaf

    def test_parent_setter_accepts_elements_documents_and_none(self):
        node = Text("x")
        element, document = Element("e"), Document()
        node.parent = element
        assert node.parent is element
        node.parent = document
        assert node.parent is document
        node.parent = None
        assert node.parent is None


class TestPathsNeedTheirDocument:
    TEXT = "<catalog><product><price>1</price></product></catalog>"

    def test_paths_of_a_kept_document(self):
        document = parse(self.TEXT)
        (price,) = find_all(document, "//price")
        assert label_path_of(price) == "/catalog/product/price"
        assert path_of(price) == "/catalog/product/price"
        assert LabelPattern("/catalog//price").matches_node(price)

    def test_paths_raise_once_the_document_is_dropped(self):
        (price,) = find_all(parse(self.TEXT), "//price")
        assert price.orphaned
        with pytest.raises(PathError, match="dropped"):
            label_path_of(price)
        with pytest.raises(PathError, match="dropped"):
            label_path_of(price.children[0])
        with pytest.raises(PathError, match="dropped"):
            path_of(price)
        with pytest.raises(PathError, match="dropped"):
            LabelPattern("/catalog//price").matches_node(price)

    def test_detached_subtree_reads_from_its_own_root(self):
        document = parse(self.TEXT)
        product = document.root.children[0]
        product.detach()
        assert not product.orphaned
        assert label_path_of(product.children[0]) == "/product/price"
        with pytest.raises(PathError, match="detached"):
            path_of(product)


class TestParsedChildTuples:
    def parsed(self):
        return parse("<r><a>x</a><b/><c>y<d/>z</c></r>")

    def test_parser_stores_exact_size_tuples(self):
        document = self.parsed()
        root = document.root
        assert type(root.children) is tuple and len(root.children) == 3
        assert type(root.children[2].children) is tuple
        assert type(document.children) is list
        assert_linked(document)
        with pytest.raises(AttributeError):
            root.children.append(Text("x"))

    def test_insert_and_append_make_a_list(self):
        document = self.parsed()
        root = document.root
        first = root.insert(0, Element("first"))
        last = root.append(Text("last"))
        assert type(root.children) is list
        assert [child.label for child in root.children[:4]] == [
            "first", "a", "b", "c"
        ]
        assert root.children[-1] is last and first.parent is root
        assert_linked(document)
        assert serialize(document).endswith("<c>y<d/>z</c>last</r>")

    def test_detach_makes_a_list(self):
        document = self.parsed()
        c = document.root.children[2]
        d = c.children[1]
        assert d.detach() is d and d.parent is None
        assert type(c.children) is list
        assert [child.value for child in c.children] == ["y", "z"]
        assert_linked(document)

    def test_move_between_parsed_parents(self):
        document = self.parsed()
        a, _, c = document.root.children
        moved = c.children[1]
        a.insert(1, moved)
        assert moved.parent is a
        assert serialize(document) == (
            "<r><a>x<d/></a><b/><c>yz</c></r>"
        )
        assert_linked(document)

    def test_coalesce_text_makes_a_list(self):
        document = self.parsed()
        c = document.root.children[2]
        c.children[0].value = ""
        assert coalesce_text(document) == 1
        assert type(c.children) is list
        assert [child.kind for child in c.children] == ["element", "text"]
        assert_linked(document)
        untouched = self.parsed()
        assert coalesce_text(untouched) == 0
        assert type(untouched.root.children[2].children) is tuple

    def test_collapse_wrapped_descendants_makes_a_list(self):
        document = parse(
            "<p><e><xy:text>x</xy:text><f/></e><xy:comment>c</xy:comment></p>"
        )
        payload = document.root
        _collapse_wrapped_descendants(payload)
        e, comment = payload.children
        assert type(payload.children) is list
        assert comment.kind == "comment" and comment.value == "c"
        assert e.children[0].kind == "text" and e.children[0].value == "x"
        assert type(e.children) is list
        assert_linked(document)


def test_no_src_caller_drops_a_document_it_reads_nodes_from():
    """``f(...).root`` keeps a node whose document is already dropped."""
    pattern = re.compile(r"\)\.(root|children)\b")
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
