"""Dropped trees never reach the cycle collector.

A tree is owned top-down: children hold a weak link to their parent
(see :mod:`repro.xmlkit.model`), so a dropped document is freed by
reference counting at once.  With a strong parent link every dropped
tree is a reference cycle that waits for a generation-2 collection; a
long-running warehouse loop then carries a backlog of old page trees.

Each test runs one user-facing path with the collector off and
``DEBUG_SAVEALL`` set, drops every result, and counts the nodes a full
collection finds unreachable.  A strong parent link leaves tens of
thousands there (82,745 for one CLI diff of the 36k-node Fig. 4 pair).
"""

import pytest

from repro.cli import main as cli_main
from repro.core import (
    apply_delta,
    diff,
    invert,
    parse_delta,
    serialize_delta,
)
from repro.versioning import VersionStore
from repro.versioning.repository import open_repository
from repro.xmlkit import parse

from tests.integration.cycle_garbage import cycle_garbage_nodes, fig4_texts


def cli_diff_garbage_nodes(nodes: int, directory) -> int:
    """Nodes an in-process ``xydiff diff`` of a Fig. 4 pair leaves behind."""
    old_path, new_path = directory / "old.xml", directory / "new.xml"
    old_text, new_text = fig4_texts(nodes)
    old_path.write_text(old_text)
    new_path.write_text(new_text)
    argv = ["diff", str(old_path), str(new_path), "-o", str(directory / "d.xml")]
    return cycle_garbage_nodes(lambda: cli_main(argv))


@pytest.fixture(scope="module")
def texts():
    return fig4_texts(1_000, versions=4)


def test_library_round_trip_leaves_no_cycles(texts):
    old_text, new_text = texts[:2]

    def work():
        old, new = parse(old_text), parse(new_text)
        delta = parse_delta(serialize_delta(diff(old, new)))
        forward = apply_delta(delta, old)
        backward = apply_delta(invert(delta), forward)
        assert backward.deep_equal(old) and forward.deep_equal(new)

    assert cycle_garbage_nodes(work) == 0


def test_cli_diff_leaves_no_cycles(tmp_path):
    assert cli_diff_garbage_nodes(1_000, tmp_path) == 0


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_version_store_leaves_no_cycles(texts, store, tmp_path):
    def work():
        repository = None
        if store == "sqlite":
            repository = open_repository(f"sqlite://{tmp_path / 'store.db'}")
        versions = VersionStore(repository)
        versions.create("page", parse(texts[0]))
        for text in texts[1:]:
            versions.commit("page", parse(text))
        assert versions.get_version("page", 2).deep_equal(parse(texts[1]))
        assert len(versions.changes_between("page", 1, len(texts))) > 0
        versions.repository.close()

    assert cycle_garbage_nodes(work) == 0
