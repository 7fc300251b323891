"""A backend repository reads the stored ``current.xml`` on every load.

The repository keeps no parsed tree between calls, so a rewrite of
``current.xml`` made through the backend, with ``meta.json`` untouched,
is what the next ``load_current`` returns.  Runs against every storage
backend; ``XYDIFF_BACKENDS`` narrows the sweep (CI runs one backend per
job).
"""

import os

import pytest

from repro.storage import open_backend
from repro.versioning import BackendRepository, VersionStore
from repro.xmlkit import parse, postorder, serialize

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]


@pytest.mark.parametrize("scheme", BACKENDS)
def test_load_current_sees_a_rewrite_under_unchanged_meta(tmp_path, scheme):
    repo = BackendRepository(open_backend(f"{scheme}://{tmp_path / 'store'}"))
    try:
        store = VersionStore(repo)
        store.create("doc", parse("<doc><a>one</a><b>two</b></doc>"))
        store.commit("doc", parse("<doc><a>one</a><b>three</b></doc>"))
        before = repo.load_current("doc", readonly=True)
        meta = repo.backend.get("doc/meta.json")

        # Same shape, different text: the stored XID labels still fit.
        repo.backend.put("doc/current.xml", b"<doc><a>uno</a><b>tres</b></doc>")
        after = repo.load_current("doc", readonly=True)

        assert repo.backend.get("doc/meta.json") == meta
        assert serialize(after) == "<doc><a>uno</a><b>tres</b></doc>"
        assert [node.xid for node in postorder(after)] == [
            node.xid for node in postorder(before)
        ]
    finally:
        repo.close()
