"""The commit path keeps no per-document state in memory.

A crawler commits to many distinct documents.  If the repository or the
version store kept anything per document between commits (a parsed
tree, an annotation record), the memory they hold would grow with the
number of documents.  This test commits to K=40 and then K=160
documents and bounds the growth of what the store retains, measured
with :mod:`tracemalloc` after a full collection.  Runs against every
storage backend; ``XYDIFF_BACKENDS`` narrows the sweep.
"""

import gc
import os
import tracemalloc

import pytest

from repro.storage import open_backend
from repro.versioning import BackendRepository, VersionStore
from repro.xmlkit import parse

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

#: Items per page: a cached tree of such a page is several KB.
ITEMS = 5

#: Allowed growth per extra document: a name in a dict is fine, a tree
#: is not.
PER_DOCUMENT_BYTES = 1024


def _page(doc, revision):
    items = "".join(
        f"<item id='i{n}'><name>item {doc}-{n}</name>"
        f"<price>{(doc * 7 + n * 3 + revision) % 97}</price></item>"
        for n in range(ITEMS)
    )
    return f"<page><title>page {doc}</title>{items}</page>"


def _commit_pages(store, docs):
    for doc in docs:
        doc_id = f"page-{doc:04d}"
        store.create(doc_id, parse(_page(doc, 0)))
        store.commit(doc_id, parse(_page(doc, 1)))


def _traced_now():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("scheme", BACKENDS)
def test_retained_memory_does_not_grow_per_document(tmp_path, scheme):
    # Warm up untraced, so imports and interned names are not counted.
    warm = BackendRepository(open_backend(f"{scheme}://{tmp_path / 'warm'}"))
    _commit_pages(VersionStore(warm), range(2))
    warm.close()

    repo = BackendRepository(open_backend(f"{scheme}://{tmp_path / 'store'}"))
    store = VersionStore(repo)
    tracemalloc.start()
    try:
        _commit_pages(store, range(40))
        small = _traced_now()
        _commit_pages(store, range(40, 160))
        large = _traced_now()
    finally:
        tracemalloc.stop()
        repo.close()
    per_document = (large - small) / (160 - 40)
    assert per_document < PER_DOCUMENT_BYTES, (
        f"{per_document:.0f} B retained per extra document"
    )
