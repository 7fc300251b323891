"""Every bad input to a store-facing subcommand ends in one error line.

A property over ``store commit``, ``store cat``, ``store log``,
``sitediff --store`` and ``fsck``: each gets a fixed set of bad inputs
(a missing path, a directory, a file that is not XML, truncated XML, a
``sqlite://`` file that is not a database, and a store whose head is
half written over), each placed where that subcommand reads it.  Every
run must exit 1 or 2 with exactly one ``error:`` line on stderr and no
traceback.  The cases the property found are pinned as examples.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.versioning import VersionStore, open_repository
from repro.xmlkit import parse

SUBCOMMANDS = ["store commit", "store cat", "store log", "sitediff", "fsck"]
SHAPES = [
    "missing", "directory", "not-xml", "truncated", "not-a-database",
    "torn-store",
]

PAGE = "page.xml"
V1 = "<doc><a>one</a></doc>"
V2 = "<doc><a>two</a><b>new</b></doc>"
NOT_XML = b"\xff\xfe plain bytes, not UTF-8 and not XML\n"
TRUNCATED = b"<doc><a>one</a"


def _workspace(root: str) -> None:
    """A good store and site, and one file or store of every bad shape."""
    os.mkdir(os.path.join(root, "directory"))
    for name, data in (
        ("not-xml.xml", NOT_XML),
        ("truncated.xml", TRUNCATED),
        ("not-a-database.db", b"plain text, " * 20),
        ("good.xml", V2.encode()),
    ):
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(data)
    for site, data in (
        ("old", V1.encode()),
        ("new", V2.encode()),
        ("new-not-xml", NOT_XML),
        ("new-truncated", TRUNCATED),
    ):
        os.mkdir(os.path.join(root, site))
        with open(os.path.join(root, site, PAGE), "wb") as handle:
            handle.write(data)
    for name in ("store", "torn"):
        repo = open_repository(os.path.join(root, name))
        VersionStore(repo).create(PAGE, parse(V1))
        repo.close()
    # Damage no journal covers: half a meta.json written over the head
    # (a torn create is journaled and recovers on reopen).
    meta = os.path.join(root, "torn", PAGE, "meta.json")
    with open(meta, "rb") as handle:
        data = handle.read()
    with open(meta, "wb") as handle:
        handle.write(data[: len(data) // 2])


def _argv(subcommand: str, shape: str, root: str) -> list[str]:
    def path(name):
        return os.path.join(root, name)

    store = f"file://{path('store')}"
    bad_stores = {
        "missing": path("missing"),
        "directory": f"sqlite://{path('directory')}",
        "not-xml": path("not-xml.xml"),
        "truncated": path("truncated.xml"),
        "not-a-database": f"sqlite://{path('not-a-database.db')}",
        "torn-store": f"file://{path('torn')}",
    }
    if subcommand == "store commit":
        document = {
            "missing": path("missing.xml"),
            "directory": path("directory"),
            "not-xml": path("not-xml.xml"),
            "truncated": path("truncated.xml"),
        }.get(shape)
        if document is None:
            document, store = path("good.xml"), bad_stores[shape]
        return ["store", "commit", PAGE, document, "--store", store]
    if subcommand == "sitediff":
        new = {
            "missing": path("missing"),
            "not-xml": path("new-not-xml"),
            "truncated": path("new-truncated"),
        }.get(shape)
        if new is None:
            new, store = path("new"), bad_stores[shape]
        return ["sitediff", path("old"), new, "--store", store]
    if subcommand == "fsck":
        return ["fsck", bad_stores[shape]]
    return subcommand.split() + [PAGE, "--store", bad_stores[shape]]


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
        io.StringIO()
    ):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    subcommand=st.sampled_from(SUBCOMMANDS), shape=st.sampled_from(SHAPES)
)
# Found by this property: a page or document that is not UTF-8 was a
# UnicodeDecodeError traceback; a site that is missing or not a
# directory was an empty crawl that exited 0; fsck exited 2 on a
# damaged store with nothing on stderr.
@example(subcommand="store commit", shape="not-xml")
@example(subcommand="sitediff", shape="not-xml")
@example(subcommand="sitediff", shape="missing")
@example(subcommand="fsck", shape="torn-store")
def test_a_bad_input_is_one_error_line(subcommand, shape):
    with tempfile.TemporaryDirectory() as root:
        _workspace(root)
        code, stderr = _run(_argv(subcommand, shape, root))
    assert code in (1, 2), (code, stderr)
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_a_site_that_is_a_file_is_one_error_line(tmp_path):
    (tmp_path / "old").mkdir()
    (tmp_path / "page.xml").write_text(V1)
    code, stderr = _run(
        ["sitediff", str(tmp_path / "old"), str(tmp_path / "page.xml")]
    )
    assert code == 1
    (line,) = stderr.splitlines()
    assert line.startswith("error: ") and "Not a directory" in line


def test_a_file_store_that_is_a_file_is_one_error_line(tmp_path):
    # The file backend would create its root over the file and fail
    # with an OSError naming only the path; every command refuses the
    # store the same way instead.
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / PAGE).write_text(V2)
    (tmp_path / PAGE).write_text(V2)
    (tmp_path / "plain").write_text("a regular file\n")
    url = f"file://{tmp_path / 'plain'}"
    for argv in (
        ["store", "commit", PAGE, str(tmp_path / PAGE), "--store", url],
        ["store", "cat", PAGE, "--store", url],
        ["sitediff", str(tmp_path / "old"), str(tmp_path / "new"),
         "--store", url],
    ):
        code, stderr = _run(argv)
        assert code == 1, argv
        assert stderr.splitlines() == [
            f"error: store {url!r} is not a directory"
        ], argv
