"""Byte-identity goldens for the delta XML writer and the BULD matcher.

Every expected value below was produced by the earlier implementation
(payloads cloned into a temporary document that the generic serializer
wrote out, and a candidate index that re-scanned taken nodes); the
per-engine pins by the plugin-registry engine layer.  A change to the
delta writer, to phase 3's candidate index or to the engine layer must
keep each of them: the same delta bytes and the same matcher decisions.
"""

import hashlib

import pytest

from repro import diff
from repro.core.delta import (
    AttributeDelete,
    AttributeInsert,
    AttributeUpdate,
    Delete,
    Delta,
    Insert,
    Move,
    Update,
)
from repro.core.deltaxml import delta_to_document, parse_delta, serialize_delta
from repro.core.diff import diff_with_stats
from repro.obs.provenance import ProvenanceRecorder
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.simulator.webcorpus import (
    evolve_site,
    generate_site_snapshot,
    weekly_change_profile,
)
from repro.xmlkit import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    serialize,
)
from repro.xmlkit.model import postorder


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig4_pair(nodes):
    """The FIG4 pair: 10% of each operation over a generated document."""
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=1))
    new = simulate_changes(
        base, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=2)
    ).new_document
    return base.clone(keep_xids=False), new.clone(keep_xids=False)


FIG4_DELTA_SHA256 = {
    5_000: "c1b979171f0e6ae58c0fecf696a4b5fa600b59ab3da148d5bce0adf1ec486da4",
    20_000: "4d350fcc88ec24092186c7441246914cc89a5567e652ae7a8fe1e5848ae0e8cb",
    60_000: "a386e617853e035612911b15ce8bab2cf54ac599819708cb993a2a5bf17cab40",
}

WEEKLY_DELTA_SHA256 = (
    "b970d15e4bfa855356a6f6663311ffdba89378a6a5514ca0275bca10b10cef61"
)
SITE_DELTA_SHA256 = (
    "6787d907b2c77efe64983e04819e2ffe0e21bd56d7087d65d0c0e9524ab4ec6a"
)
PROVENANCE_SHA256 = (
    "b15f158246b470c50799ac1c9d234af2ad0505d2a853fffe08234eb29407be6d"
)

#: Every engine's delta on the 1k-node FIG4 pair.
ENGINE_DELTA_SHA256 = {
    "buld": "d566393e3c88a826637d0f2e5a00610e91321eee3cc0dc275fe59a79243517e2",
    "diffmk": "1116fe94d56627dc2e6f4d2fb23a84b703546449e77f117f5715335abf11e7ae",
    "flat": "95a668c4cc1d739043fc15161c4e52faae60c25fa1d21fe9dc465fd0be7cba68",
    "ladiff": "67ab536ab20e720cf10d9f214c70d4c322c0f5f255e68ac85b8d681e928ca52e",
    "lu": "ecae6396e0f4355c7cb0025642c2b3d6961d7ea87ccc91d9155ebedb0775e77e",
}


class TestDiffDeltaBytes:
    @pytest.mark.parametrize("nodes", sorted(FIG4_DELTA_SHA256))
    def test_fig4_pair(self, nodes):
        old, new = fig4_pair(nodes)
        delta = serialize_delta(diff(old, new))
        assert sha256(delta) == FIG4_DELTA_SHA256[nodes]

    def test_weekly_pair(self):
        base = generate_document(GeneratorConfig(target_nodes=8_000, seed=3))
        new = simulate_changes(base, weekly_change_profile(4)).new_document
        delta = diff(base.clone(keep_xids=False), new.clone(keep_xids=False))
        assert sha256(serialize_delta(delta)) == WEEKLY_DELTA_SHA256

    def test_site_pair(self):
        site = generate_site_snapshot(pages=600, seed=5)
        evolved = evolve_site(site, seed=6)
        delta = diff(
            site.clone(keep_xids=False), evolved.clone(keep_xids=False)
        )
        assert sha256(serialize_delta(delta)) == SITE_DELTA_SHA256

    @pytest.mark.parametrize("engine", sorted(ENGINE_DELTA_SHA256))
    def test_engine_pair(self, engine):
        old, new = fig4_pair(1_000)
        delta = serialize_delta(diff(old, new, engine=engine))
        assert sha256(delta) == ENGINE_DELTA_SHA256[engine]


def provenance_digest(recorder: ProvenanceRecorder) -> str:
    """Hash of every match (phase, XIDs) and rejection (reason, XIDs)."""

    def xid(node):
        return None if node is None else node.xid

    lines = [
        f"match {record.phase} {xid(record.old)} {xid(record.new)} "
        f"{xid(record.anchor)}"
        for record in recorder.matches
    ]
    lines.extend(
        f"reject {record.reason} {xid(record.old)} {xid(record.new)}"
        for record in recorder.rejections
    )
    return sha256("\n".join(lines))


class TestMatcherDecisions:
    def test_provenance_record(self):
        old, new = fig4_pair(20_000)
        recorder = ProvenanceRecorder()
        diff_with_stats(old, new, recorder=recorder)
        reasons = {record.reason for record in recorder.rejections}
        # The bucket scan's own outcomes are part of the record.
        assert {"candidate-cap", "candidates-taken"} <= reasons
        assert provenance_digest(recorder) == PROVENANCE_SHA256


# ---------------------------------------------------------------------------
# hand-built deltas: every payload shape the writer has to wrap
# ---------------------------------------------------------------------------


def numbered(node, first):
    """Give a payload subtree postorder XIDs ``first, first + 1, ...``."""
    for offset, each in enumerate(postorder(node)):
        each.xid = first + offset
    return node


def element(label, *children, **attributes):
    node = Element(label, attributes)
    for child in children:
        node.append(child)
    return node


def leaf_roots():
    """Payload roots that are not elements: text, comment and PI."""
    return Delta(
        [
            Insert(10, 3, 0, numbered(Text("a < b & c > d"), 10)),
            Delete(4, 3, 1, numbered(Text(""), 4)),
            Insert(11, 3, 2, numbered(Comment(" note -- dashes "), 11)),
            Delete(5, 3, 3, numbered(Comment(""), 5)),
            Delete(6, 0, 0, numbered(
                ProcessingInstruction("style", 'href="a.css" & <x>'), 6)),
            Insert(12, 0, 0, numbered(ProcessingInstruction("bare"), 12)),
        ],
        base_version=1,
        target_version=2,
        next_xid_before=10,
        next_xid_after=13,
    )


def element_holes():
    """Element payloads with empty and adjacent text (holes left by moves)."""
    inner = element(
        "x",
        Text(""),
        Text("  "),
        Text("tail"),
        element("empty"),
        k='q"<&>\'',
    )
    payload = element(
        "doomed",
        Text("alpha"),
        Text("beta"),
        Text(""),
        Text("gamma"),
        inner,
        Comment("c"),
        Text("delta"),
        Text("epsilon"),
        ProcessingInstruction("t", "d"),
        ProcessingInstruction("e"),
        Text(""),
        id="7",
        note="a & b",
    )
    return Delta(
        [
            Delete(40, 2, 1, numbered(payload, 25)),
            Insert(43, 2, 1, numbered(
                element("fresh", Text("x"), Text("y"), lang="en"), 41)),
        ],
    )


def value_operations():
    """Moves, text updates and attribute operations with escaping."""
    return Delta(
        [
            Move(7, 3, 1, 8, 0),
            Update(9, "x & y", ""),
            Update(10, "", "<b>\"quoted\"</b>"),
            AttributeInsert(4, "v", 'v"&<>'),
            AttributeDelete(4, "w", "a > b"),
            AttributeUpdate(4, "u", "a&b", '"q"'),
            AttributeUpdate(4, "blank", "", "set"),
        ],
        base_version=7,
        target_version=8,
    )


LEAF_ROOTS_XML = (
    '<delta baseVersion="1" targetVersion="2" nextXidBefore="10" '
    'nextXidAfter="13">'
    '<insert xid="10" xidMap="(10)" parentXid="3" pos="0">'
    '<xy:text>a &lt; b &amp; c &gt; d</xy:text></insert>'
    '<delete xid="4" xidMap="(4)" parentXid="3" pos="1">'
    '<xy:text/></delete>'
    '<insert xid="11" xidMap="(11)" parentXid="3" pos="2">'
    '<xy:comment> note -- dashes </xy:comment></insert>'
    '<delete xid="5" xidMap="(5)" parentXid="3" pos="3">'
    '<xy:comment/></delete>'
    '<delete xid="6" xidMap="(6)" parentXid="0" pos="0">'
    '<xy:pi target="style">href="a.css" &amp; &lt;x&gt;</xy:pi></delete>'
    '<insert xid="12" xidMap="(12)" parentXid="0" pos="0">'
    '<xy:pi target="bare"/></insert>'
    '</delta>'
)

ELEMENT_HOLES_XML = (
    '<delta>'
    '<delete xid="40" xidMap="(25-40)" parentXid="2" pos="1">'
    '<doomed id="7" note="a &amp; b">'
    'alpha<xy:text>beta</xy:text><xy:text/>gamma'
    '<x k="q&quot;&lt;&amp;&gt;\'"><xy:text/>  <xy:text>tail</xy:text>'
    '<empty/></x>'
    '<!--c-->delta<xy:text>epsilon</xy:text><?t d?><?e?><xy:text/>'
    '</doomed></delete>'
    '<insert xid="43" xidMap="(41-43)" parentXid="2" pos="1">'
    '<fresh lang="en">x<xy:text>y</xy:text></fresh></insert>'
    '</delta>'
)

VALUE_OPERATIONS_XML = (
    '<delta baseVersion="7" targetVersion="8">'
    '<move xid="7" fromParent="3" fromPos="1" toParent="8" toPos="0"/>'
    '<update xid="9"><oldval>x &amp; y</oldval><newval/></update>'
    '<update xid="10"><oldval/>'
    '<newval>&lt;b&gt;"quoted"&lt;/b&gt;</newval></update>'
    '<attr-insert xid="4" name="v" value="v&quot;&amp;&lt;&gt;"/>'
    '<attr-delete xid="4" name="w" oldValue="a &gt; b"/>'
    '<attr-update xid="4" name="u">'
    '<oldval>a&amp;b</oldval><newval>"q"</newval></attr-update>'
    '<attr-update xid="4" name="blank">'
    '<oldval/><newval>set</newval></attr-update>'
    '</delta>'
)

HAND_BUILT = {
    "leaf-roots": (leaf_roots, LEAF_ROOTS_XML),
    "element-holes": (element_holes, ELEMENT_HOLES_XML),
    "value-operations": (value_operations, VALUE_OPERATIONS_XML),
    "empty": (Delta, "<delta/>"),
    "versions-only": (
        lambda: Delta(base_version=3, target_version=4),
        '<delta baseVersion="3" targetVersion="4"/>',
    ),
}


class TestHandBuiltDeltaBytes:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_serialized_bytes(self, name):
        build, expected = HAND_BUILT[name]
        assert serialize_delta(build()) == expected

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_round_trip(self, name):
        build, expected = HAND_BUILT[name]
        delta = build()
        assert parse_delta(expected) == delta
        assert serialize_delta(parse_delta(expected)) == expected

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_delta_document_is_the_parsed_xml(self, name):
        build, expected = HAND_BUILT[name]
        assert serialize(delta_to_document(build())) == expected
