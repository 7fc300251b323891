"""Analyzing changes in a portion of the web (Section 6.2 + conclusion).

"We also used the diff to analyze changes in portions of the web of
interest" and "to understand changes, we need to also gather statistics
on change frequency, patterns of changes in a document, in a web site".

This example runs that study on the simulated crawl: a corpus of web
documents, each followed over several weekly snapshots through a version
store, and the report shows the kind of numbers the paper gathers —
change frequency per document, delta-size distributions, and the
operation mix read off each delta's ``Delta.summary()``.

Run:  python examples/web_change_analysis.py
"""

from collections import Counter

from repro.core import delta_byte_size
from repro.simulator import WebCorpus, WebCorpusConfig
from repro.versioning import VersionStore
from repro.xmlkit import serialize_bytes

WEEKS = 3
DOCUMENTS = 8


def main() -> None:
    corpus = WebCorpus(
        WebCorpusConfig(
            documents=DOCUMENTS, min_bytes=2_000, max_bytes=60_000, seed=17
        )
    )
    store = VersionStore()
    totals: Counter[str] = Counter()

    print(f"crawling {DOCUMENTS} documents over {WEEKS + 1} weekly snapshots ...\n")
    delta_sizes: dict[str, list[int]] = {}
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index:02d}"
        versions = corpus.weekly_versions(index, weeks=WEEKS)
        store.create(doc_id, versions[0])
        sizes = []
        for version in versions[1:]:
            delta = store.commit(doc_id, version)
            totals.update(delta.summary())
            sizes.append(delta_byte_size(delta))
        delta_sizes[doc_id] = sizes

    # --- per-document change frequency ---------------------------------------
    print(f"{'document':>8} {'doc bytes':>10} {'weeks changed':>14} "
          f"{'avg delta B':>12} {'delta/doc':>9}")
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index:02d}"
        doc_bytes = len(serialize_bytes(store.get_current(doc_id)))
        sizes = delta_sizes[doc_id]
        changed = sum(1 for size in sizes if size > 60)
        average = sum(sizes) / len(sizes)
        print(
            f"{doc_id:>8} {doc_bytes:>10} {changed:>8}/{len(sizes):<5} "
            f"{average:>12.0f} {average / doc_bytes:>9.1%}"
        )

    # --- operation mix across the corpus --------------------------------------
    grand_total = sum(totals.values()) or 1
    print("\noperation mix across the corpus:")
    for kind, count in totals.most_common():
        print(f"  {kind:<8} {count:>6}  ({count / grand_total:.0%})")

    # --- site-level view: the whole crawl as one diff --------------------------
    from repro.versioning import SiteSnapshot, diff_sites

    first_snapshot = SiteSnapshot()
    last_snapshot = SiteSnapshot()
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index:02d}"
        first_snapshot.add(doc_id, store.get_version(doc_id, 1))
        last_snapshot.add(doc_id, store.get_current(doc_id))
    site_delta = diff_sites(first_snapshot, last_snapshot)
    print(
        f"\nsite-level view (week 0 vs week {WEEKS}): "
        f"{site_delta.summary()}, "
        f"{site_delta.change_ratio():.0%} of documents changed, "
        f"change stream {site_delta.delta_bytes() / 1e3:.1f} KB "
        f"({site_delta.operation_totals()})"
    )


if __name__ == "__main__":
    main()
