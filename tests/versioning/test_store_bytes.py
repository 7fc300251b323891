"""Every stored byte of a small history, pinned.

One document with a storage prefix of its own making (``shop/catalog``
sanitises to ``shop_catalog``) is created and committed five times,
with a checkpoint every second version; two commits carry a
``commit_record`` with a ``request_id``.  The SHA-256 of the sorted
``(key, value)`` pairs of the whole store covers the head record, the
current snapshot, the checkpoints and the delta chain.  The journal a
commit writes first is pinned too, captured as it is put by a commit
that crashes on its next write.

Rewritten in the layout stores had before the head held the checksums
(see :mod:`tests.versioning.old_layout`), the same store and journal
hash to what that code wrote: only the head's bytes moved.

Both backends store the same keys and values, so one hash holds for
each.  Runs against every storage backend; ``XYDIFF_BACKENDS`` narrows
the sweep.
"""

import hashlib
import json
import os
from unittest import mock

import pytest

from repro.storage import open_backend
from repro.testing import FaultInjector, InjectedFault
from repro.versioning import BackendRepository, VersionStore, layout
from repro.versioning import repository as repository_module
from repro.xmlkit import parse

from tests.versioning.old_layout import old_journal, to_old_layout

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

DOC_ID = "shop/catalog"

_DTD = "<!DOCTYPE catalog [<!ATTLIST product id ID #REQUIRED>]>"

VERSIONS = [
    _DTD + "<catalog><product id='p1'><name>lamp</name><price>10</price>"
    "</product><product id='p2'><name>desk</name><price>80</price>"
    "</product><note>spring list</note></catalog>",
    _DTD + "<catalog><product id='p1'><name>lamp</name><price>12</price>"
    "</product><product id='p2'><name>desk</name><price>80</price>"
    "</product><note>spring list</note></catalog>",
    _DTD + "<catalog><product id='p2'><name>desk</name><price>80</price>"
    "</product><product id='p1'><name>lamp</name><price>12</price>"
    "</product><product id='p3'><name>chair</name><price>35</price>"
    "</product><note>spring list</note></catalog>",
    _DTD + "<catalog sale='yes'><product id='p2'><name>desk</name>"
    "<price>72</price></product><product id='p1'><name>lamp</name>"
    "<price>12</price></product><product id='p3'><name>chair</name>"
    "<price>35</price></product></catalog>",
    _DTD + "<catalog sale='yes'><product id='p2'><name>desk</name>"
    "<price>72</price></product><product id='p3'><name>chair</name>"
    "<price>35</price><stock>4</stock></product></catalog>",
    _DTD + "<catalog sale='no'><product id='p3'><name>chair</name>"
    "<price>30</price><stock>4</stock></product><product id='p2'>"
    "<name>desk</name><price>72</price></product><note>summer list</note>"
    "</catalog>",
]

#: The commits of versions 3 and 5 carry an attributed commit record.
RECORDS = {
    3: {"key": "key-3", "digest": "digest-3", "request_id": "req-3"},
    5: {"key": "key-5", "digest": "digest-5", "request_id": "req-5"},
}

STORE_SHA256 = (
    "3e3de93480012d39945e33b41b134068284efa40f425ed29d43d31980b794534"
)
JOURNAL_SHA256 = (
    "3a1060132cf1540df3324ba27383f5cae3dd27f6d653c6c2384507a9cdcf4cbd"
)
#: The same store and journal in the older layout.
OLD_STORE_SHA256 = (
    "ff610a538bf7dc2a94d9f1a629f936de953c053424f092c976da7693e0ea9be0"
)
OLD_JOURNAL_SHA256 = (
    "6beba8d5be0708ef7d96dd25d36b91d40e7198c91284a35133c9cf2c3b76d772"
)


def _open(tmp_path, scheme):
    return BackendRepository(open_backend(f"{scheme}://{tmp_path / 'store'}"))


def _store_digest(backend) -> str:
    digest = hashlib.sha256()
    for key in sorted(backend.list_keys()):
        value = backend.get(key)
        digest.update(f"{key}\0{len(value)}\0".encode("utf-8"))
        digest.update(value)
    return digest.hexdigest()


def _history(repo) -> VersionStore:
    store = VersionStore(repo)
    with mock.patch.object(repository_module, "CHECKPOINT_EVERY", 2):
        store.create(DOC_ID, parse(VERSIONS[0]))
        for version, text in enumerate(VERSIONS[1:], start=2):
            store.commit(
                DOC_ID, parse(text), commit_record=RECORDS.get(version)
            )
    return store


@pytest.mark.parametrize("scheme", BACKENDS)
def test_every_stored_byte_is_pinned(tmp_path, scheme):
    repo = _open(tmp_path, scheme)
    store = _history(repo)
    assert store.current_version(DOC_ID) == len(VERSIONS)
    assert repo.snapshot_versions(DOC_ID) == [2, 4, 6]
    assert repo.attribution(DOC_ID) == {"3": "req-3", "5": "req-5"}
    assert _store_digest(repo.backend) == STORE_SHA256
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_only_the_head_bytes_moved(tmp_path, scheme):
    repo = _open(tmp_path, scheme)
    _history(repo)
    to_old_layout(repo.backend, "shop_catalog")
    assert _store_digest(repo.backend) == OLD_STORE_SHA256
    journal = json.loads(_crashed_journal(repo))
    assert hashlib.sha256(
        layout.encode_record(old_journal(journal))
    ).hexdigest() == OLD_JOURNAL_SHA256
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_the_journal_bytes_are_pinned(tmp_path, scheme):
    repo = _open(tmp_path, scheme)
    _history(repo)
    assert hashlib.sha256(_crashed_journal(repo)).hexdigest() == (
        JOURNAL_SHA256
    )
    repo.close()


def _crashed_journal(repo) -> bytes:
    """The journal a commit of version 7 puts before it crashes."""
    store = VersionStore(repo)
    written = []
    put = repo.backend.put

    def recording_put(key, data, *, label=None):
        written.append((key, label, data))
        return put(key, data, label=label)

    repo.backend.put = recording_put
    repo.faults = FaultInjector(crash_after=1)
    with pytest.raises(InjectedFault):
        store.commit(
            DOC_ID,
            parse(VERSIONS[0]),
            commit_record={"key": "key-7", "digest": "digest-7",
                           "request_id": "req-7"},
        )
    repo.backend.put = put
    repo.faults = None
    # The journal is the one write that landed before the crash.
    ((key, label, data),) = written[:1]
    assert (key, label) == ("shop_catalog/journal.json", "journal")
    return data
