"""Tests for store verification and repair (``fsck``)."""

import json
import os

import pytest

from repro.versioning import fsck_store, open_repository
from repro.versioning import repository as repository_module
from repro.versioning.version_control import VersionStore
from repro.xmlkit import parse
from repro.xmlkit.errors import RepositoryError

from tests.versioning.old_layout import to_old_layout

V1 = "<doc><a>alpha alpha</a><b>beta beta</b></doc>"
V2 = "<doc><a>alpha!</a><b>beta beta</b><c>gamma</c></doc>"
V3 = "<doc><a>alpha!</a><c>gamma gamma</c></doc>"


@pytest.fixture
def store_path(tmp_path, monkeypatch):
    """A healthy three-version store with a checkpoint at version 2."""
    monkeypatch.setattr(repository_module, "CHECKPOINT_EVERY", 2)
    path = tmp_path / "store"
    store = VersionStore(open_repository(path))
    store.create("doc", parse(V1))
    store.commit("doc", parse(V2))
    store.commit("doc", parse(V3))
    return path


def _doc_dir(store_path):
    return store_path / "doc"


class TestCleanStore:
    def test_zero_findings(self, store_path):
        report = fsck_store(store_path)
        assert report.clean
        assert report.findings == []
        assert report.recovery_events == []
        assert report.documents == 1
        assert report.exit_code() == 0

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(RepositoryError):
            fsck_store(tmp_path / "nowhere")

    def test_metrics(self, store_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        fsck_store(store_path, metrics=metrics)
        assert metrics.counter("repro_fsck_documents_total").value() == 1


class TestCurrentRepair:
    def test_damaged_current_rederived_from_checkpoint(self, store_path):
        current = _doc_dir(store_path) / "current.xml"
        original = current.read_bytes()
        current.write_bytes(b"<doc>vandalised</doc>")

        report = fsck_store(store_path)
        assert [f.kind for f in report.findings] == ["checksum-mismatch"]
        assert report.findings[0].repairable
        assert report.exit_code() == 2  # found, not repaired

        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["checksum-mismatch"]
        assert report.exit_code() == 1  # found and repaired
        assert current.read_bytes() == original
        assert fsck_store(store_path).exit_code() == 0

    def test_damaged_current_without_checkpoint_unrepairable(self, tmp_path):
        path = tmp_path / "store"
        store = VersionStore(open_repository(path))  # no checkpoints
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        (path / "doc" / "current.xml").write_bytes(b"<doc>gone</doc>")
        report = fsck_store(path, repair=True)
        assert [f.kind for f in report.unrepaired] == ["checksum-mismatch"]
        assert report.exit_code() == 2

    def test_no_other_stored_state_means_no_repair_is_promised(
        self, tmp_path
    ):
        path = tmp_path / "store"
        store = VersionStore(open_repository(path))  # below a checkpoint
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        store.commit("doc", parse(V3))
        current = path / "doc" / "current.xml"
        current.write_bytes(current.read_bytes()[:10])
        findings = open_repository(path).verify()
        assert [(f.kind, f.repairable) for f in findings] == [
            ("checksum-mismatch", False)
        ]
        assert "no other intact stored state" in findings[0].message

    def test_two_damaged_copies_cannot_rebuild_each_other(self, store_path):
        for name in ("current.xml", "snapshot-0002.xml"):
            (_doc_dir(store_path) / name).write_bytes(b"<doc>gone</doc>")
        findings = open_repository(store_path).verify()
        assert [(f.kind, f.repairable) for f in findings] == [
            ("checksum-mismatch", False),
            ("checksum-mismatch", False),
        ]

    def test_missing_current_rederived(self, store_path):
        current = _doc_dir(store_path) / "current.xml"
        original = current.read_bytes()
        os.unlink(current)
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["missing-file"]
        assert current.read_bytes() == original


class TestSnapshotRepair:
    def test_damaged_checkpoint_rederived_backward(self, store_path):
        snapshot = _doc_dir(store_path) / "snapshot-0002.xml"
        original = snapshot.read_bytes()
        snapshot.write_bytes(b"<doc>half a snapsh")
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["checksum-mismatch"]
        assert snapshot.read_bytes() == original
        assert fsck_store(store_path).exit_code() == 0

    def test_damaged_checkpoint_rederived_from_nearer_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """Checkpoint 2 is rebuilt backward from intact checkpoint 4, two
        deltas away, not from current.xml seven deltas away."""
        monkeypatch.setattr(repository_module, "CHECKPOINT_EVERY", 2)
        path = tmp_path / "store"
        store = VersionStore(open_repository(path))
        store.create("doc", parse(V1))
        for step in range(8):
            store.commit("doc", parse(V2 if step % 2 == 0 else V3))
        snapshot = _doc_dir(path) / "snapshot-0002.xml"
        original = snapshot.read_bytes()
        snapshot.write_bytes(b"<doc>half a snapsh")

        repo = open_repository(path)
        touched, starts = [], []
        load_delta, load_snapshot = repo.load_delta, repo.load_snapshot

        def tracking_delta(doc_id, base):
            touched.append(base)
            return load_delta(doc_id, base)

        def tracking_snapshot(doc_id, version):
            starts.append(version)
            return load_snapshot(doc_id, version)

        def no_current(doc_id, readonly=False):
            raise AssertionError("walk started from current.xml")

        repo.load_delta = tracking_delta
        repo.load_snapshot = tracking_snapshot
        repo.load_current = no_current
        report = fsck_store(repo, repair=True)
        assert [f.kind for f in report.repaired] == ["checksum-mismatch"]
        assert starts == [4]
        assert touched == [3, 2]
        assert snapshot.read_bytes() == original
        assert fsck_store(path).exit_code() == 0


class TestDeltaDamage:
    def test_damaged_delta_is_unrepairable(self, store_path):
        delta = _doc_dir(store_path) / "delta-0001-0002.xml"
        delta.write_bytes(b"<not a delta")
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.unrepaired] == ["checksum-mismatch"]
        assert not report.unrepaired[0].repairable
        assert report.exit_code() == 2


class TestManifest:
    """Checksums missing from a head are rebuilt into it; a head in the
    older layout, whose ``manifest.json`` held them, becomes one
    record."""

    def _old_layout(self, store_path, manifest):
        repo = open_repository(store_path)
        to_old_layout(repo.backend, "doc", manifest=manifest)
        repo.close()

    def test_missing_manifest_rebuilt(self, store_path):
        meta_path = _doc_dir(store_path) / "meta.json"
        before = json.loads(meta_path.read_text())
        self._old_layout(store_path, manifest=False)
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["missing-manifest"]
        assert json.loads(meta_path.read_text()) == before
        assert fsck_store(store_path).exit_code() == 0

    def test_corrupt_manifest_rebuilt(self, store_path):
        self._old_layout(store_path, manifest=True)
        manifest_path = _doc_dir(store_path) / "manifest.json"
        manifest_path.write_text("{ not json")
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["missing-manifest"]
        assert not manifest_path.exists()
        assert fsck_store(store_path).exit_code() == 0

    def test_a_leftover_manifest_is_removed(self, store_path):
        manifest_path = _doc_dir(store_path) / "manifest.json"
        manifest_path.write_text("{}")
        report = fsck_store(store_path, repair=True)
        assert [(f.kind, f.message) for f in report.repaired] == [
            ("unexpected-file",
             "manifest.json is left over: the head holds checksums")
        ]
        assert not manifest_path.exists()
        assert fsck_store(store_path).exit_code() == 0


class TestStructure:
    def test_orphan_temp_swept(self, store_path):
        orphan = _doc_dir(store_path) / ".current.xml.deadbeef.tmp"
        orphan.write_bytes(b"leftover")
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["orphan-temp"]
        assert not orphan.exists()

    def test_stray_delta_removed(self, store_path):
        stray = _doc_dir(store_path) / "delta-0007-0008.xml"
        stray.write_bytes(b"<delta/>")
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.repaired] == ["unexpected-file"]
        assert not stray.exists()

    def test_stray_snapshot_removed(self, store_path):
        stray = _doc_dir(store_path) / "snapshot-0009.xml"
        stray.write_bytes(b"<doc/>")
        report = fsck_store(store_path, repair=True)
        assert [(f.kind, f.message) for f in report.repaired] == [
            ("unexpected-file",
             "snapshot-0009.xml is not referenced by the metadata")
        ]
        assert not stray.exists()

    def test_corrupt_meta_is_unrepairable(self, store_path):
        (_doc_dir(store_path) / "meta.json").write_text("{ broken")
        report = fsck_store(store_path, repair=True)
        assert [f.kind for f in report.unrepaired] == ["corrupt-meta"]
        assert report.exit_code() == 2


class TestFsckCli:
    def test_clean_store(self, store_path, capsys):
        from repro.cli import main

        assert main(["fsck", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "summary: documents=1" in out
        assert "unrepaired=0" in out

    def test_repair_flow(self, store_path, capsys):
        from repro.cli import main

        current = _doc_dir(store_path) / "current.xml"
        original = current.read_bytes()
        current.write_bytes(b"<doc>scribbled</doc>")
        assert main(["fsck", str(store_path)]) == 2
        assert "found" in capsys.readouterr().out
        assert main(["fsck", str(store_path), "--repair"]) == 1
        assert "repaired" in capsys.readouterr().out
        assert current.read_bytes() == original
        assert main(["fsck", str(store_path)]) == 0

    def test_missing_store(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fsck", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    def test_metrics_out(self, store_path, tmp_path):
        from repro.cli import main

        metrics_file = tmp_path / "metrics.prom"
        assert main(
            ["fsck", str(store_path), "--metrics-out", str(metrics_file)]
        ) == 0
        assert "repro_fsck_documents_total" in metrics_file.read_text()
