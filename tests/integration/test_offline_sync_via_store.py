"""Offline synchronization through the version store, end to end.

Two editors check out the same stored version, edit offline, and
synchronize: the first editor's commit goes in normally; the second
editor's divergent edit is merged against the stored base and the merge
result committed on top.  The store's history then contains base, the
first edit, and the merged state — all reconstructible.
"""

from repro.core import diff
from repro.versioning import VersionStore, merge, open_repository
from repro.xmlkit import parse

import pytest


BASE = (
    "<doc><title>Plan</title>"
    "<section><p>intro text</p></section>"
    "<section><p>details text</p></section></doc>"
)
ALICE = (
    "<doc><title>Plan v2</title>"
    "<section><p>intro text</p></section>"
    "<section><p>details text</p></section></doc>"
)
BOB = (
    "<doc><title>Plan</title>"
    "<section><p>intro text, extended</p></section>"
    "<section><p>details text</p><p>appendix</p></section></doc>"
)


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return VersionStore()
    return VersionStore(open_repository(tmp_path / "repo"))


class TestSyncThroughStore:
    def test_checkout_edit_merge_commit(self, store):
        store.create("plan", parse(BASE))

        # both editors check out version 1 (the XID-labelled base)
        alice_base = store.get_version("plan", 1)
        bob_base = store.get_version("plan", 1)

        # Alice commits first — a plain store commit
        store.commit("plan", parse(ALICE))
        assert store.current_version("plan") == 2

        # Bob's edit is against version 1; compute his delta against his
        # checkout, merge with what the store accumulated since
        bob_delta = diff(bob_base, parse(BOB))
        since = store.changes_between("plan", 1, 2)
        merge_base = store.get_version("plan", 1)
        result = merge(merge_base, since, bob_delta, prefer="ours")
        assert result.is_clean  # edits touch different nodes

        store.commit("plan", result.document)
        final = store.get_current("plan")

        # the merged state contains both edits
        assert final.root.find("title").text_content() == "Plan v2"
        sections = final.root.find_all("section")
        assert "extended" in sections[0].text_content()
        assert "appendix" in sections[1].text_content()

        # the full history reconstructs
        assert store.verify_integrity("plan")
        assert store.get_version("plan", 1).deep_equal(parse(BASE))
        assert store.get_version("plan", 2).deep_equal(parse(ALICE))

    def test_conflicting_sync_reports(self, store):
        store.create("plan", parse(BASE))
        base_checkout = store.get_version("plan", 1)

        # Alice retitles, commits
        store.commit(
            "plan",
            parse(BASE.replace("<title>Plan</title>", "<title>Alpha</title>")),
        )
        # Bob also retitles, differently, from the same base
        bob_delta = diff(
            base_checkout,
            parse(BASE.replace("<title>Plan</title>", "<title>Beta</title>")),
        )
        since = store.changes_between("plan", 1, 2)
        result = merge(store.get_version("plan", 1), since, bob_delta)
        assert not result.is_clean
        assert result.conflicts[0].kind == "update-update"
        # store side (Alice) won
        assert result.document.root.find("title").text_content() == "Alpha"


class TestStorePersistence:
    def test_reopen_and_continue(self, tmp_path):
        """A directory store survives a 'process restart' mid-history."""
        path = tmp_path / "persistent"
        first_session = VersionStore(open_repository(path))
        first_session.create("doc", parse("<d><v>1</v></d>"))
        first_session.commit("doc", parse("<d><v>2</v></d>"))
        del first_session

        second_session = VersionStore(open_repository(path))
        assert second_session.current_version("doc") == 2
        second_session.commit("doc", parse("<d><v>3</v><w/></d>"))
        assert second_session.current_version("doc") == 3
        assert second_session.verify_integrity("doc")
        for version, text in enumerate(
            ["<d><v>1</v></d>", "<d><v>2</v></d>", "<d><v>3</v><w/></d>"],
            start=1,
        ):
            assert second_session.get_version("doc", version).deep_equal(
                parse(text)
            )

    def test_xid_continuity_across_reopen(self, tmp_path):
        """Fresh XIDs after reopening never collide with stored ones."""
        path = tmp_path / "persistent"
        first = VersionStore(open_repository(path))
        first.create("doc", parse("<d><a>x</a></d>"))
        first.commit("doc", parse("<d><a>x</a><b>y</b></d>"))
        del first

        second = VersionStore(open_repository(path))
        second.commit("doc", parse("<d><a>x</a><b>y</b><c>z</c></d>"))
        from repro.core import xid_index

        # all XIDs unique across the final version
        xid_index(second.get_current("doc"))
        # and the deltas' inserted XIDs are disjoint
        d1 = second.delta("doc", 1)
        d2 = second.delta("doc", 2)
        ids1 = {op.xid for op in d1.by_kind("insert")}
        ids2 = {op.xid for op in d2.by_kind("insert")}
        assert not ids1 & ids2
