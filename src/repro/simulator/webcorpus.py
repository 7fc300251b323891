"""Simulated web corpus (substitute for the paper's crawled XML).

Section 6.2 runs the diff over XML documents crawled from the web — about
two hundred weekly-changing documents with log-spread sizes around a 20 KB
average — plus large site-map documents (the INRIA site: ~14,000 pages,
~5 MB of XML, diffed in ~30 s with the core under 2 s).

There is no crawler here (no network, and the 2001 web is gone), so this
module synthesizes the same *workload shape*:

- :class:`WebCorpus` — a deterministic collection of documents whose byte
  sizes are log-uniform between configurable bounds (default 400 B-1 MB,
  median near the paper's 20 KB), each evolving week over week under a
  low-rate change profile typical of real pages.
- :func:`generate_site_snapshot` — a site-map document ("a snapshot of a
  portion of the web as a set of XML documents"): sections of pages with
  URL, title, size, modification date and outgoing links.  At
  ``pages=14000`` its serialization is ~5 MB, matching the INRIA
  experiment's scale.
- :func:`evolve_site` / :func:`WebCorpus.weekly_versions` — produce the
  next weekly snapshot via the change simulator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.simulator.change_simulator import SimulatorConfig, simulate_changes
from repro.simulator.generator import GeneratorConfig, generate_document
from repro.simulator.words import WORDS, make_text
from repro.xmlkit.model import Document, Element, Text, bulk

__all__ = [
    "WebCorpus",
    "WebCorpusConfig",
    "evolve_site",
    "generate_site_snapshot",
    "weekly_change_profile",
]

#: Rough bytes-per-node of generator output; used to size documents.
_BYTES_PER_NODE = 55


@dataclass
class WebCorpusConfig:
    """Shape of the simulated crawl.

    Attributes:
        documents: Number of distinct documents in the corpus.
        min_bytes / max_bytes: Log-uniform size range of the documents
            (the paper's sample spans a few hundred bytes to a megabyte).
        seed: RNG seed for the whole corpus.
    """

    documents: int = 50
    min_bytes: int = 400
    max_bytes: int = 1_000_000
    seed: int = 0


def weekly_change_profile(seed: int = 0) -> SimulatorConfig:
    """Change rates typical of week-over-week web documents.

    Real pages mostly update text in place, with few structural edits and
    rare moves — which is why the paper notes its diff "is typically
    excellent for few changes".
    """
    return SimulatorConfig(
        delete_probability=0.01,
        update_probability=0.05,
        insert_probability=0.015,
        move_probability=0.005,
        seed=seed,
    )


class WebCorpus:
    """A deterministic, lazily generated set of web-like XML documents."""

    def __init__(self, config: WebCorpusConfig | None = None):
        self.config = config or WebCorpusConfig()

    def document_seeds(self) -> list[int]:
        return [self._seed(i) for i in range(self.config.documents)]

    def _seed(self, index: int) -> int:
        """``document_seeds()[index]``, without building the list."""
        return self.config.seed * 10_000 + index

    def generate(self, index: int) -> Document:
        """The ``index``-th corpus document (deterministic)."""
        if not 0 <= index < self.config.documents:
            raise IndexError(f"corpus has {self.config.documents} documents")
        seed = self._seed(index)
        rng = random.Random(seed)
        log_min = math.log(self.config.min_bytes)
        log_max = math.log(self.config.max_bytes)
        target_bytes = math.exp(rng.uniform(log_min, log_max))
        target_nodes = max(8, int(target_bytes / _BYTES_PER_NODE))
        return generate_document(
            GeneratorConfig(
                target_nodes=target_nodes,
                max_depth=rng.randint(4, 10),
                max_fanout=rng.randint(3, 10),
                labels_per_depth=rng.randint(2, 6),
                text_probability=rng.uniform(0.3, 0.6),
                long_text_probability=rng.uniform(0.02, 0.15),
                seed=seed,
            )
        )

    def documents(self):
        """Yield all corpus documents in order."""
        for index in range(self.config.documents):
            yield self.generate(index)

    def weekly_versions(self, index: int, weeks: int) -> list[Document]:
        """``weeks + 1`` consecutive weekly snapshots of one document."""
        versions = [self.generate(index)]
        for week in range(weeks):
            profile = weekly_change_profile(
                seed=self._seed(index) + 7_000 + week
            )
            result = simulate_changes(versions[-1], profile)
            versions.append(result.new_document)
        return versions


def generate_site_snapshot(
    pages: int = 200, sections: int = 12, seed: int = 0
) -> Document:
    """An XML snapshot describing a web site (the INRIA-style experiment).

    Each page contributes a dozen-odd nodes (url, title, byte size, last
    modification, a handful of outgoing links, a summary), so ~14,000
    pages serialize to roughly five megabytes.
    """
    rng = random.Random(seed)
    site = Element("site", {"host": f"www.example{seed}.org"})
    document = Document(site)
    with bulk():
        section_elements = []
        for index in range(max(sections, 1)):
            section = Element(
                "section", {"path": f"/{rng.choice(WORDS)}{index}/"}
            )
            site.append(section)
            section_elements.append(section)

        for index in range(pages):
            section = rng.choice(section_elements)
            page = Element("page")
            url = Element("url")
            url.append(
                Text(
                    f"http://{site.attributes['host']}"
                    f"{section.attributes['path']}page{index}.html"
                )
            )
            title = Element("title")
            title.append(Text(make_text(rng, 2, 6, index)))
            size = Element("bytes")
            size.append(Text(str(rng.randint(500, 80_000))))
            modified = Element("modified")
            modified.append(
                Text(f"2001-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
            )
            page.append(url)
            page.append(title)
            page.append(size)
            page.append(modified)
            links = Element("links")
            for _ in range(rng.randint(0, 5)):
                link = Element("link")
                link.append(
                    Text(
                        f"http://{site.attributes['host']}"
                        f"/{rng.choice(WORDS)}"
                        f"/page{rng.randrange(max(pages, 1))}.html"
                    )
                )
                links.append(link)
            page.append(links)
            if rng.random() < 0.5:
                summary = Element("summary")
                summary.append(Text(make_text(rng, 10, 40)))
                page.append(summary)
            section.append(page)
    return document


def evolve_site(
    site: Document, seed: int = 0, profile: SimulatorConfig | None = None
) -> Document:
    """The next snapshot of a site under a weekly change profile."""
    if profile is None:
        profile = weekly_change_profile(seed)
    return simulate_changes(site, profile).new_document
