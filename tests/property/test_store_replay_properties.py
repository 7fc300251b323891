"""Property: the stored delta chain is a faithful history.

For random simulator change sequences committed to a directory store,
replaying the stored deltas forward from version 1 reproduces every
committed snapshot byte-for-byte — and replaying backward from the
current version via delta inversion reproduces them again.  This is the
paper's "completed deltas" promise (§5) expressed over the actual bytes
the crash-safe store persisted.  ``Repository.materialize`` keeps that
promise from every stored state on every kind of store.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apply import apply_delta
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.versioning import DirectoryRepository, open_repository
from repro.versioning.repository import CURRENT_NAME
from repro.versioning.version_control import VersionStore
from repro.xmlkit.model import postorder
from repro.xmlkit.serializer import serialize_bytes


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), steps=st.integers(1, 4))
def test_replay_reproduces_every_committed_snapshot(seed, steps):
    with tempfile.TemporaryDirectory() as root:
        repo = DirectoryRepository(root)
        store = VersionStore(repo, checkpoint_every=2)
        document = generate_document(
            GeneratorConfig(target_nodes=60, seed=seed)
        )
        store.create("doc", document)
        committed = [serialize_bytes(store.get_current("doc"))]
        for step in range(steps):
            changed = simulate_changes(
                store.get_current("doc"),
                SimulatorConfig(0.1, 0.15, 0.1, 0.05, seed=seed + step + 1),
            ).new_document
            store.commit("doc", changed)
            committed.append(serialize_bytes(store.get_current("doc")))

        # forward: v1 + stored deltas reproduces each version's bytes
        replayed = store.get_version("doc", 1)
        assert serialize_bytes(replayed) == committed[0]
        for base in range(1, steps + 1):
            replayed = apply_delta(
                store.delta("doc", base), replayed, in_place=True
            )
            assert serialize_bytes(replayed) == committed[base]

        # backward: current + inverted deltas walks the history back
        replayed = store.get_current("doc")
        for base in range(steps, 0, -1):
            replayed = apply_delta(
                store.delta("doc", base).inverted(), replayed, in_place=True
            )
            assert serialize_bytes(replayed) == committed[base - 1]

        # and the store the walk was read from audits clean
        assert repo.verify() == []


#: Backend schemes under test; CI's backend matrix narrows the sweep
#: (XYDIFF_BACKENDS=sqlite), locally every backend runs.
BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]
STORES = ["memory"] + BACKENDS


def _open_store(kind, root):
    if kind == "memory":
        return VersionStore().repository
    suffix = ".sqlite" if kind == "sqlite" else ""
    return open_repository(f"{kind}://{root}/store{suffix}")


def _xid_labels(document):
    return [node.xid for node in postorder(document)]


@pytest.mark.parametrize("kind", STORES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), steps=st.integers(2, 5))
def test_materialize_from_every_start_matches_commits(kind, seed, steps):
    """Every version rebuilt from every stored state — current.xml and
    each checkpoint, forward or backward — has the committed bytes and
    the committed XID labelling."""
    with tempfile.TemporaryDirectory() as root:
        repo = _open_store(kind, root)
        store = VersionStore(repo, checkpoint_every=2)
        store.create("doc", generate_document(
            GeneratorConfig(target_nodes=60, seed=seed)
        ))
        current = store.get_current("doc")
        committed = [(serialize_bytes(current), _xid_labels(current))]
        for step in range(steps):
            changed = simulate_changes(
                current,
                SimulatorConfig(0.1, 0.15, 0.1, 0.05, seed=seed + step + 1),
            ).new_document
            store.commit("doc", changed)
            current = store.get_current("doc")
            committed.append((serialize_bytes(current), _xid_labels(current)))

        checkpoints = repo.snapshot_versions("doc")
        assert checkpoints == list(range(2, steps + 2, 2))
        for start in [None] + checkpoints:
            # Leave one start: current.xml alone, or one checkpoint with
            # current.xml marked damaged.
            repo.snapshot_versions = lambda doc_id, start=start: (
                [] if start is None else [start]
            )
            damaged = None if start is None else CURRENT_NAME
            for version, (data, labels) in enumerate(committed, start=1):
                document = repo.materialize("doc", version, damaged=damaged)
                assert serialize_bytes(document) == data, (start, version)
                assert _xid_labels(document) == labels, (start, version)
        repo.close()
