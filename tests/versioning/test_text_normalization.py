"""A store never writes a snapshot it cannot read back.

A backend repository keeps XIDs as a postorder list beside the
serialized snapshot, so the XML must parse back to the same nodes.  An
empty text node parses back as nothing, and adjacent text siblings as
one node.  The version store normalizes both away before it writes, so
every backend (and the in-memory store) keeps the same tree; a direct
repository write of such a tree is refused before anything lands.  Runs
against every storage backend; ``XYDIFF_BACKENDS`` narrows the sweep
(CI runs one backend per job).
"""

import os

import pytest

from repro.core import Delta, Insert
from repro.storage import open_backend
from repro.versioning import BackendRepository, VersionStore
from repro.xmlkit import Text, parse, postorder
from repro.xmlkit.errors import RepositoryError

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

STORED = "<doc><p><b/></p><q>x</q></doc>"


def _open(tmp_path, scheme):
    return BackendRepository(open_backend(f"{scheme}://{tmp_path / 'store'}"))


def _with_empty_text():
    document = parse(STORED)
    document.root.children[0].append(Text(""))
    return document


def _write(store, step):
    if step == "create":
        store.create("doc", _with_empty_text())
    else:
        store.create("doc", parse("<doc><p/></doc>"))
        store.commit("doc", _with_empty_text())


def _contents(repo):
    return {key: repo.backend.get(key) for key in repo.backend.list_keys()}


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("step", ["create", "commit"])
def test_empty_text_node_reads_back_after_reopen(tmp_path, scheme, step):
    repo = _open(tmp_path, scheme)
    _write(VersionStore(repo), step)
    repo.close()

    memory = VersionStore()
    _write(memory, step)
    repo = _open(tmp_path, scheme)
    try:
        store = VersionStore(repo)
        current = store.get_current("doc")
        assert current.deep_equal(parse(STORED))
        assert [node.xid for node in postorder(current)] == [
            node.xid for node in postorder(memory.get_current("doc"))
        ]
        for version in range(1, store.current_version("doc") + 1):
            assert store.get_version("doc", version).deep_equal(
                memory.get_version("doc", version)
            )
        assert store.verify_integrity("doc")
    finally:
        repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("value", ["", "c"], ids=["empty", "adjacent"])
def test_repository_refuses_a_tree_it_cannot_read_back(tmp_path, scheme, value):
    repo = _open(tmp_path, scheme)
    try:
        store = VersionStore(repo)
        store.create("doc", parse("<doc><p>a</p></doc>"))
        before = _contents(repo)

        new = repo.load_current("doc")
        allocator = repo.load_allocator("doc")
        paragraph = new.root.children[0]
        text = paragraph.append(Text(value))
        text.xid = allocator.allocate()
        delta = Delta([Insert(text.xid, paragraph.xid, 1, text.clone())])
        delta.base_version, delta.target_version = 1, 2

        with pytest.raises(RepositoryError, match="empty or adjacent text"):
            repo.append("doc", delta, new, allocator)
        with pytest.raises(RepositoryError, match="empty or adjacent text"):
            repo.create("other", new, allocator)

        assert _contents(repo) == before
        assert store.current_version("doc") == 1
        assert store.get_version("doc", 1).deep_equal(
            parse("<doc><p>a</p></doc>")
        )
    finally:
        repo.close()
