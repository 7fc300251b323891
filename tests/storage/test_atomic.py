"""Tests for the atomic write layer."""

import os

import pytest

from repro.storage import (
    DURABILITY_LEVELS,
    atomic_write,
    check_durability,
    sha256_bytes,
    sha256_file,
)
from repro.storage.atomic import fault_aware_unlink, is_temp_file
from repro.storage.filesystem import FilesystemBackend
from repro.testing import FaultInjector, InjectedCrash
from repro.versioning.layout import put_record


class TestAtomicWrite:
    def test_creates_file(self, tmp_path):
        target = tmp_path / "a.bin"
        assert atomic_write(target, b"payload") is None
        assert target.read_bytes() == b"payload"
        assert sha256_file(target) == sha256_bytes(b"payload")

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")
        atomic_write(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_file_left_on_success(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"data")
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_no_temp_file_left_on_crash(self, tmp_path):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")
        faults = FaultInjector(crash_after=0)
        with pytest.raises(InjectedCrash):
            atomic_write(target, b"new", faults=faults)
        # crash fires before any bytes move: old content intact, no junk
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["a.bin"]

    @pytest.mark.parametrize("durability", DURABILITY_LEVELS)
    def test_all_durability_levels_write(self, tmp_path, durability):
        target = tmp_path / "a.bin"
        atomic_write(target, b"x", durability=durability)
        assert target.read_bytes() == b"x"

    def test_unknown_durability_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            atomic_write(tmp_path / "a.bin", b"x", durability="paranoid")
        with pytest.raises(ValueError):
            check_durability("eventually")

    def test_json_writer_is_stable(self, tmp_path):
        # Records are written as compact JSON with sorted keys.
        backend = FilesystemBackend(tmp_path)
        put_record(backend, "doc", "meta", {"b": 1, "a": 2})
        first = backend.get("doc/meta.json")
        put_record(backend, "doc", "meta", {"a": 2, "b": 1})
        assert backend.get("doc/meta.json") == first == b'{"a":2,"b":1}\n'

    def test_is_temp_file(self, tmp_path):
        assert is_temp_file(".a.bin.0f3a9c12.tmp")
        assert not is_temp_file("a.bin")
        assert not is_temp_file("current.xml")

    def test_fault_aware_unlink_idempotent(self, tmp_path):
        target = tmp_path / "a.bin"
        target.write_bytes(b"x")
        fault_aware_unlink(target)
        assert not target.exists()
        fault_aware_unlink(target)  # second removal is a no-op
