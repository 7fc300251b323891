"""Document ids that would escape the store or alias another document.

A document's storage prefix is its id with every character outside
``[A-Za-z0-9._-]`` replaced by ``_``.  Three prefixes name no directory
of their own: ``""`` and ``"."`` are the store root, ``".."`` the
directory above it.  Ids with those prefixes are refused before
anything is read or written: a caller's mistake (400 over HTTP, one
``error:`` line in the CLI), not an unknown document.

Two ids can share a prefix (``a/b`` and ``a_b``).  The metadata records
which id owns it, so the other id reads as unknown (delta reads and
audits included), and creating or committing it names both.  Runs against every storage backend; ``XYDIFF_BACKENDS``
narrows the sweep.
"""

import http.client
import json
import os
from urllib.parse import quote

import pytest

from repro.cli import main
from repro.server import ServerConfig, serve_in_thread
from repro.storage import open_backend
from repro.versioning import BackendRepository, VersionStore, layout
from repro.xmlkit import parse
from repro.xmlkit.errors import RepositoryError

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

V1 = "<doc><a>one</a></doc>"
V2 = "<doc><a>two</a><b>new</b></doc>"

ESCAPING_IDS = ["", ".", ".."]


def _open(tmp_path, scheme):
    name = "store.sqlite" if scheme == "sqlite" else "store"
    url = f"{scheme}://{tmp_path / 'inner' / name}"
    return BackendRepository(open_backend(url))


def _files_beside_the_store(tmp_path) -> list[str]:
    return sorted(
        name for name in os.listdir(tmp_path / "inner")
        if not name.startswith("store")
    )


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("doc_id", ESCAPING_IDS)
def test_an_escaping_id_is_refused_and_writes_nothing(
    tmp_path, scheme, doc_id
):
    repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    for call in (
        lambda: store.create(doc_id, parse(V1)),
        lambda: repo.exists(doc_id),
        lambda: store.get_version(doc_id, 1),
    ):
        with pytest.raises(layout.DocIdError, match="cannot name") as excinfo:
            call()
        assert not isinstance(excinfo.value, RepositoryError)
    assert repo.backend.list_keys() == []
    assert _files_beside_the_store(tmp_path) == []
    assert repo.verify() == []
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_ids_sharing_a_prefix_do_not_alias(tmp_path, scheme):
    repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    store.create("a/b", parse(V1))
    assert not repo.exists("a_b")
    with pytest.raises(RepositoryError, match="unknown document 'a_b'"):
        store.get_version("a_b", 1)
    # A commit of an unknown id creates it, so it is refused as create
    # refuses it: naming both ids.
    for call in (store.commit, store.create):
        with pytest.raises(RepositoryError) as excinfo:
            call("a_b", parse(V2))
        assert "'a_b'" in str(excinfo.value) and "'a/b'" in str(excinfo.value)
    # The owner is untouched.
    assert repo.document_ids() == ["a/b"]
    assert store.current_version("a/b") == 1
    assert store.get_version("a/b", 1).deep_equal(parse(V1))
    store.commit("a/b", parse(V2))
    assert store.current_version("a/b") == 2
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_reads_of_an_id_sharing_a_prefix_are_unknown(tmp_path, scheme):
    # Delta reads and audits check the owner too, not only the reads
    # that materialize a version.
    repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    store.create("a/b", parse(V1))
    store.commit("a/b", parse(V2))
    for call in (
        lambda: store.delta("a_b", 1),
        lambda: store.deltas("a_b"),
        lambda: store.changes_between("a_b", 1, 2),
        lambda: store.verify_integrity("a_b"),
        lambda: repo.load_delta("a_b", 1),
        lambda: repo.verify("a_b"),
    ):
        with pytest.raises(RepositoryError, match="unknown document 'a_b'"):
            call()
    assert store.delta("a/b", 1).summary() == store.deltas("a/b")[0].summary()
    assert store.verify_integrity("a/b")
    assert repo.verify("a/b") == []
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_meta_without_doc_id_still_reads(tmp_path, scheme):
    # Stores written before the metadata named its document.
    repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    store.create("doc", parse(V1))
    key = "doc/meta.json"
    meta = json.loads(repo.backend.get(key))
    del meta["doc_id"]
    repo.backend.put(key, (json.dumps(meta, indent=2) + "\n").encode())
    assert repo.exists("doc")
    store.commit("doc", parse(V2))
    assert store.get_version("doc", 1).deep_equal(parse(V1))
    assert store.delta("doc", 1).summary() and repo.verify("doc") == []
    repo.close()


def test_the_cli_prints_one_error_line(tmp_path, capsys):
    document = tmp_path / "doc.xml"
    document.write_text(V1)
    (tmp_path / "inner").mkdir()
    url = f"file://{tmp_path / 'inner' / 'store'}"
    assert main(["store", "commit", "..", str(document), "--store", url]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "'..'" in line
    assert _files_beside_the_store(tmp_path) == []


@pytest.fixture(scope="module")
def file_server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("docids")
    (tmp / "inner").mkdir()
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"file://{tmp / 'inner' / 'store'}"},
            workers=1,
        )
    )
    yield handle, tmp
    handle.close()


def _call(handle, method, path, payload=None):
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=30
    )
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize("doc_id", ESCAPING_IDS)
def test_http_commit_of_an_escaping_id_is_400(file_server, doc_id):
    handle, tmp = file_server
    status, body = _call(
        handle, "POST", "/repos/main/commit",
        {"doc_id": doc_id, "document": V1},
    )
    assert status == 400
    assert body["error"]["code"] == "bad-request"
    assert _files_beside_the_store(tmp) == []
    assert sorted(os.listdir(tmp / "inner" / "store")) in ([], ["a_b"])


def test_http_commit_does_not_alias_a_shared_prefix(file_server):
    handle, _ = file_server
    status, body = _call(
        handle, "POST", "/repos/main/commit", {"doc_id": "a/b", "document": V1}
    )
    assert (status, body["version"]) == (201, 1)
    status, body = _call(
        handle, "POST", "/repos/main/commit", {"doc_id": "a_b", "document": V2}
    )
    assert status == 404
    message = body["error"]["message"]
    assert "'a_b'" in message and "'a/b'" in message
    status, _ = _call(handle, "GET", "/repos/main/docs/a_b")
    assert status == 404
    status, body = _call(
        handle, "GET", "/repos/main/docs/" + quote("a/b", safe="")
    )
    assert (status, body["version"]) == (200, 1)
