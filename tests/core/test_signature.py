"""Tests for subtree signatures and weights (Phase 2)."""

import math

from repro.core import annotate
from repro.xmlkit import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    canonical_bytes,
    parse,
    preorder,
)


def numbers(*roots, **options):
    """Annotate every root against one shared table: their signatures."""
    table = {}
    return [annotate(root, table=table, **options) for root in roots]


def root_numbers(a, b):
    ann_a, ann_b = numbers(a, b)
    return ann_a.signature(a.root), ann_b.signature(b.root)


class TestSignatures:
    def test_identical_documents_share_signatures(self):
        a = parse("<a><b>x</b><c k='v'/></a>")
        b = parse("<a><b>x</b><c k='v'/></a>")
        first, second = root_numbers(a, b)
        assert first == second

    def test_text_change_changes_ancestor_signatures(self):
        a = parse("<a><b>x</b></a>")
        b = parse("<a><b>y</b></a>")
        first, second = root_numbers(a, b)
        assert first != second

    def test_attribute_change_changes_signature(self):
        a = parse("<a k='1'/>")
        b = parse("<a k='2'/>")
        first, second = root_numbers(a, b)
        assert first != second

    def test_attribute_order_matters(self):
        # A delta records attribute order, so a subtree whose attributes
        # were only reordered is no identical match.
        a = parse("<a x='1' y='2'/>")
        b = parse("<a y='2' x='1'/>")
        first, second = root_numbers(a, b)
        assert first != second

    def test_child_order_matters(self):
        a = parse("<a><b/><c/></a>")
        b = parse("<a><c/><b/></a>")
        first, second = root_numbers(a, b)
        assert first != second

    def test_kind_distinguished(self):
        a = parse("<a><!--x--></a>")
        b = parse("<a>x</a>", strip_whitespace=False)
        first, second = root_numbers(a, b)
        assert first != second

    def test_unchanged_subtree_signature_stable_across_documents(self):
        a = parse("<r><keep><x>1</x></keep><old/></r>")
        b = parse("<r><new/><keep><x>1</x></keep></r>")
        ann_a, ann_b = numbers(a, b)
        sig_a = ann_a.signature(a.root.find("keep"))
        sig_b = ann_b.signature(b.root.find("keep"))
        assert sig_a == sig_b

    def test_signature_agrees_with_canonical_fingerprint(self):
        # Signatures and canonical forms must induce the same
        # equivalence classes (both capture structural equality).
        docs = [
            parse("<a><b>x</b></a>"),
            parse("<a><b>x</b></a>"),
            parse("<a><b>y</b></a>"),
        ]
        annotations = numbers(*docs)
        for i in range(3):
            for j in range(3):
                same_sig = annotations[i].signature(docs[i].root) == annotations[
                    j
                ].signature(docs[j].root)
                same_form = canonical_bytes(docs[i].root) == canonical_bytes(
                    docs[j].root
                )
                assert same_sig == same_form


class TestLookAlikeKinds:
    """An element, a text, a comment and a PI never share a number."""

    @staticmethod
    def leaves(value):
        return [
            Element(value or "e"),
            Text(value),
            Comment(value),
            ProcessingInstruction(value or "t", value),
        ]

    def distinct(self, nodes):
        table = {}
        signatures = [
            annotate(node, table=table).signature(node) for node in nodes
        ]
        assert len(set(signatures)) == len(nodes), signatures

    def test_leaves_with_one_value(self):
        for value in ("x", "C", "P", "T", ""):
            self.distinct(self.leaves(value))

    def test_tag_like_values(self):
        # Values spelled like another kind's key never reach its number.
        self.distinct([
            Text("C"),
            Comment("x"),
            Text("P"),
            ProcessingInstruction("x", "x"),
            Element("C"),
            Element("P", {"x": "x"}),
            Comment(""),
            Text(""),
        ])

    def test_element_children_against_a_document(self):
        table = {}
        wrapper = Element("a")
        wrapper.append(Text("x"))
        document = parse("<a>x</a>")
        first = annotate(wrapper, table=table).signature(wrapper)
        second = annotate(document, table=table)
        assert second.signature(document.root) == first
        assert second.signature(document) != first

    def test_attribute_values_compare_as_strings(self):
        first, second = Element("e", {"k": 1}), Element("e", {"k": "1"})
        table = {}
        assert annotate(first, table=table).signature(first) == annotate(
            second, table=table
        ).signature(second)

    def test_attributes_cannot_pose_as_children(self):
        plain = Element("e", {"k": "v"})
        nested = Element("e")
        nested.append(Element("k"))
        self.distinct([plain, nested, Element("e")])


class TestCanonicalBytes:
    def test_equal_trees_equal_bytes(self):
        assert canonical_bytes(parse("<a><b/>t</a>")) == canonical_bytes(
            parse("<a><b/>t</a>")
        )

    def test_length_prefixing_avoids_concatenation_collisions(self):
        a = parse("<a><b>1</b><c>23</c></a>")
        b = parse("<a><b>12</b><c>3</c></a>")
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_label_split_collisions(self):
        a = parse("<ab><c/></ab>")
        b = parse("<a><bc/></a>")
        assert canonical_bytes(a) != canonical_bytes(b)


class TestWeights:
    def test_every_weight_at_least_one(self):
        doc = parse("<a><b></b><c>x</c></a>")
        annotations = annotate(doc)
        assert all(w >= 1.0 for w in annotations.weights.values())

    def test_element_weight_is_one_plus_children(self):
        doc = parse("<a><b>hello</b><c/></a>")
        annotations = annotate(doc)
        root = doc.root
        expected = 1.0 + sum(
            annotations.weight(child) for child in root.children
        )
        assert annotations.weight(root) == expected

    def test_text_weight_grows_logarithmically(self):
        doc = parse("<a><b>x</b><c>" + "y" * 1000 + "</c></a>")
        annotations = annotate(doc)
        short = annotations.weight(doc.root.children[0].children[0])
        long = annotations.weight(doc.root.children[1].children[0])
        assert short == 1.0 + math.log(2)
        assert long == 1.0 + math.log(1001)
        assert long < short * 5  # log, not linear

    def test_flat_text_weight_option(self):
        doc = parse("<a>" + "y" * 1000 + "</a>")
        annotations = annotate(doc, log_text_weight=False)
        assert annotations.weight(doc.root.children[0]) == 1.0

    def test_total_weight_and_node_count(self):
        doc = parse("<a><b/><c/></a>")
        annotations = annotate(doc)
        assert annotations.node_count == 4  # document, a, b, c
        assert annotations.total_weight == annotations.weight(doc)

    def test_weight_superadditive_everywhere(self):
        doc = parse("<r><a><b>xx</b><c/></a><d>yyy</d></r>")
        annotations = annotate(doc)
        for node in preorder(doc):
            if node.children:
                child_sum = sum(
                    annotations.weight(child) for child in node.children
                )
                assert annotations.weight(node) >= child_sum
