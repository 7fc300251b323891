"""Synthetic XML document generators.

The paper's experiments "needed large test sets" with controllable
properties; real web XML is characterized by *label reuse* (few distinct
labels, many instances — the reason BULD needs candidate disambiguation)
and text values of mixed length (the reason text weight is logarithmic).
Two generators are provided:

- :func:`generate_document` — generic random trees with controlled size,
  depth, fanout, per-depth label vocabulary, and text length mix.
- :func:`generate_catalog` — the paper's motivating product-catalog shape
  (categories, products, names, prices, descriptions), optionally with
  DTD-declared ID attributes on products (``sku``).

All generation is deterministic given the ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.simulator.words import WORDS, draw_below, make_text
from repro.xmlkit.model import Document, Element, Text, bulk

__all__ = [
    "GeneratorConfig",
    "generate_catalog",
    "generate_document",
]

#: Labels drawn on when building per-depth vocabularies.
_LABEL_STEMS = (
    "section item entry record group list detail info block row field "
    "meta body header footer article note para ref tag unit part"
).split()

_ATTRIBUTE_NAMES = ("type", "lang", "status", "class", "rank")


@dataclass
class GeneratorConfig:
    """Shape parameters of a generated document.

    Attributes:
        target_nodes: Approximate number of nodes (document excluded); the
            generator stops once it reaches this count.
        max_depth: Maximum element nesting below the root.
        max_fanout: Upper bound on children added per growth step.
        labels_per_depth: Vocabulary size at each depth level — small
            values reproduce the heavy label reuse of real XML.
        text_probability: Chance that a grown child is a text node.
        long_text_probability: Chance a text node is a long "description"
            (30-80 words) rather than a short phrase.
        attribute_probability: Chance an element carries 1-2 attributes.
        seed: RNG seed; equal configs generate equal documents.
    """

    target_nodes: int = 200
    max_depth: int = 8
    max_fanout: int = 6
    labels_per_depth: int = 4
    text_probability: float = 0.4
    long_text_probability: float = 0.08
    attribute_probability: float = 0.2
    seed: int = 0


def generate_document(config: GeneratorConfig) -> Document:
    """Generate a random document according to ``config``."""
    rng = random.Random(config.seed)
    draw = rng.random
    getrandbits = rng.getrandbits
    vocabulary = _depth_vocabulary(rng, config)
    target_nodes = config.target_nodes
    max_depth = config.max_depth
    max_fanout = config.max_fanout
    text_probability = config.text_probability
    long_text_probability = config.long_text_probability
    attribute_probability = config.attribute_probability

    root = Element(vocabulary[0][0])
    document = Document(root)
    node_count = 1
    counter = 0

    # Elements that can still grow children, bucketed for random choice.
    open_elements: list[Element] = [root]
    depths: dict[int, int] = {id(root): 1}

    with bulk():
        while node_count < target_nodes and open_elements:
            index = draw_below(getrandbits, len(open_elements))
            parent = open_elements[index]
            depth = depths[id(parent)]

            batch = 1 + draw_below(getrandbits, max_fanout)
            for _ in range(batch):
                if node_count >= target_nodes:
                    break
                make_text_child = draw() < text_probability and not (
                    parent.children and parent.children[-1].kind == "text"
                )
                if make_text_child:
                    counter += 1
                    if draw() < long_text_probability:
                        value = make_text(rng, 30, 80, counter)
                    else:
                        value = make_text(rng, 2, 10, counter)
                    parent.append(Text(value))
                    node_count += 1
                else:
                    label_pool = vocabulary[min(depth, max_depth)]
                    child = Element(
                        label_pool[draw_below(getrandbits, len(label_pool))]
                    )
                    if draw() < attribute_probability:
                        for name in rng.sample(
                            _ATTRIBUTE_NAMES, 1 + draw_below(getrandbits, 2)
                        ):
                            word = WORDS[draw_below(getrandbits, len(WORDS))]
                            child.set_attribute(name, word)
                    parent.append(child)
                    node_count += 1
                    if depth < max_depth:
                        open_elements.append(child)
                        depths[id(child)] = depth + 1

            # Retire parents that grew wide enough to keep fanout bounded.
            if len(parent.children) >= max_fanout:
                open_elements[index] = open_elements[-1]
                open_elements.pop()

    return document


def _depth_vocabulary(
    rng: random.Random, config: GeneratorConfig
) -> dict[int, list[str]]:
    vocabulary: dict[int, list[str]] = {0: ["root"]}
    for depth in range(1, config.max_depth + 1):
        stems = rng.sample(
            _LABEL_STEMS, min(config.labels_per_depth, len(_LABEL_STEMS))
        )
        vocabulary[depth] = [f"{stem}{depth}" for stem in stems]
    return vocabulary


def generate_catalog(
    products: int = 50,
    categories: int = 5,
    seed: int = 0,
    with_ids: bool = False,
) -> Document:
    """Generate a product catalog (the paper's motivating document shape).

    Args:
        products: Total number of products, spread over the categories.
        categories: Number of ``<category>`` sections.
        seed: RNG seed.
        with_ids: Declare ``product/sku`` as an ID attribute (exercises
            BULD Phase 1).

    Returns:
        A document shaped ``catalog > category > product > name/price/...``.
    """
    rng = random.Random(seed)
    root = Element("catalog")
    document = Document(root)

    with bulk():
        category_elements = []
        for index in range(max(categories, 1)):
            category = Element("category")
            title = Element("title")
            title.append(
                Text(f"{rng.choice(WORDS).title()} {rng.choice(WORDS)}")
            )
            category.append(title)
            root.append(category)
            category_elements.append(category)

        for index in range(products):
            category = rng.choice(category_elements)
            product = Element("product")
            product.set_attribute("sku", f"sku-{seed}-{index:05d}")
            if rng.random() < 0.3:
                product.set_attribute(
                    "status", rng.choice(("new", "sale", "old"))
                )
            name = Element("name")
            name.append(Text(make_text(rng, 1, 3, index)))
            price = Element("price")
            price.append(
                Text(f"${rng.randint(1, 2000)}.{rng.randint(0, 99):02d}")
            )
            product.append(name)
            product.append(price)
            if rng.random() < 0.6:
                description = Element("description")
                description.append(Text(make_text(rng, 15, 60)))
                product.append(description)
            if rng.random() < 0.4:
                stock = Element("stock")
                stock.append(Text(str(rng.randint(0, 500))))
                product.append(stock)
            category.append(product)

    if with_ids:
        document.id_attributes.add(("product", "sku"))
        document.doctype_name = "catalog"
    return document
