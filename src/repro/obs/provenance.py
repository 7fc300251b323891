"""Match provenance: *why* BULD produced each delta operation.

The tracing and metrics layers answer "how long did each stage take";
this module answers the quality question behind the paper's Figure 5 —
*what did the matcher decide, and why*.  A :class:`ProvenanceRecorder`
rides the run's :class:`~repro.engine.base.DiffContext` and is
notified by :class:`~repro.core.matching.Matching` and
:class:`~repro.core.buld.BuldMatcher` about every decision:

- each **matched pair**, stamped with the phase that claimed it (the
  taxonomy in :data:`MATCH_PHASES`), the subtree weight and — for
  hash/ancestor matches — the new-document anchor node whose identical
  subtree triggered the propagation;
- each **rejected candidate / failed probe**, with a reason from
  :data:`REJECTION_REASONS`;
- each **lock** placed by the ID-attribute phase.

:func:`build_report` joins the record with the two documents *after*
the diff (new-document XIDs only exist once Phase 5 ran) into a
:class:`ProvenanceReport` in which **every node of both documents is
accounted for**: matched-with-phase, or unmatched-with-terminal-cause
(:data:`UNMATCHED_CAUSES`).  The report renders as JSON or text and
supplies the "because" line for each delta operation
(:meth:`ProvenanceReport.because`, consumed by ``xydiff explain --why``
and ``xydiff audit``).

Recording is strictly observational — a recorder never changes a single
matching decision, so deltas are byte-identical with and without one.
The default is no recorder at all: hot paths guard with
``if recorder is not None`` and a :class:`NullRecorder`
(``enabled = False``) is normalized to ``None`` before the run starts,
so the disabled path is the seed's exact path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from repro.xmlkit.model import Document, Node, preorder
from repro.xmlkit.path import path_of

__all__ = [
    "MATCH_PHASES",
    "MatchRecord",
    "MatchRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "ProvenanceRecorder",
    "ProvenanceReport",
    "REJECTION_REASONS",
    "RejectionRecord",
    "UNMATCHED_CAUSES",
    "WEIGHT_BUCKETS",
    "build_report",
    "publish_provenance_metrics",
]

#: The phase taxonomy: which part of BULD claimed a matched pair.
MATCH_PHASES = (
    "root",           # the implicit document-root pair
    "id-attribute",   # Phase 1: equal DTD ID attribute values
    "subtree-hash",   # Phase 3: identical-signature subtrees, node by node
    "ancestor",       # Phase 3: equal-label ancestors of a hash match
    "parent-vote",    # Phase 4 bottom-up: children voted for the parent
    "unique-child",   # Phase 4 top-down / eager-down: unique label under
                      # a matched parent
)

#: Why a candidate was rejected or a probe came back empty.
REJECTION_REASONS = (
    "no-signature-match",  # no old subtree carries the probed signature
    "candidates-taken",    # identical subtrees exist but all are matched/locked
    "candidate-cap",       # viable list truncated at config.max_candidates
    "collision-loser",     # viable same-signature candidate that lost the
                           # ancestor-agreement tie-break
    "ancestor-matched",    # ancestor propagation hit an old ancestor already
                           # matched elsewhere
    "label-mismatch",      # ancestor propagation hit unequal labels/kinds
    "weight-bound",        # the weight-bounded propagation allowance ran out
    "vote-rejected",       # Phase-4 vote winner failed can_match
)

#: Terminal causes for nodes that ended the run unmatched.  Probe/rejection
#: reasons double as causes; these two cover nodes no event ever touched.
UNMATCHED_CAUSES = REJECTION_REASONS + (
    "locked-id",   # locked by the ID-attribute rule
    "unclaimed",   # old node never selected by any probe
    "unprobed",    # new node never probed (e.g. the stage was skipped)
)

#: Histogram bounds for matched-pair subtree weights (weight >= 1; the
#: top bucket holds snapshot-scale subtrees).
WEIGHT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)

_CAUSE_TEXT = {
    "no-signature-match": "no subtree on the other side has the same content",
    "candidates-taken": "every identical subtree was already matched or locked",
    "candidate-cap": "the candidate list was cut off at max_candidates",
    "collision-loser": "an identical-content candidate elsewhere won the match",
    "ancestor-matched": "its counterpart's ancestor was already matched "
                        "elsewhere",
    "label-mismatch": "the candidate ancestors' labels or kinds differ",
    "weight-bound": "the weight-bounded propagation allowance ran out",
    "vote-rejected": "the children's vote winner could not be matched",
    "locked-id": "its ID attribute value exists on only one side",
    "unclaimed": "no probe ever selected it",
    "unprobed": "the matcher never probed it",
}

_PHASE_TEXT = {
    "root": "the document roots always match",
    "id-attribute": "equal ID attribute values (phase 1)",
    "subtree-hash": "an identical subtree hash (phase 3)",
    "ancestor": "equal-label ancestor propagation (phase 3)",
    "parent-vote": "its children voted for it (phase 4, bottom-up)",
    "unique-child": "unique label under a matched parent (phase 4, top-down)",
}


@runtime_checkable
class MatchRecorder(Protocol):
    """What BULD expects from a recorder threaded through a run.

    ``enabled`` is the activation switch: the engine normalizes a
    recorder with ``enabled = False`` to ``None`` before the run, so
    implementations never see calls while disabled.  ``phase`` and
    ``anchor`` are *written by the matcher* (cheap attribute stores)
    before each batch of decisions; the record methods observe and must
    never influence the matching.
    """

    enabled: bool
    phase: str
    anchor: Optional[Node]

    def record_match(self, old: Node, new: Node) -> None: ...

    def record_lock(self, node: Node) -> None: ...

    def record_rejection(
        self,
        reason: str,
        old: Optional[Node] = None,
        new: Optional[Node] = None,
    ) -> None: ...

    def set_weights(self, old_annotations, new_annotations) -> None: ...

    def match_count(self) -> int: ...


class NullRecorder:
    """The do-nothing recorder (``enabled = False``).

    Exists so callers can hold a recorder unconditionally; the engine
    treats it exactly like ``None`` — the hot paths never call it, and
    traces/metrics stay byte-identical to a run without a recorder.
    """

    __slots__ = ()

    enabled = False
    phase = "root"
    anchor = None

    def record_match(self, old: Node, new: Node) -> None:
        pass

    def record_lock(self, node: Node) -> None:
        pass

    def record_rejection(self, reason, old=None, new=None) -> None:
        pass

    def set_weights(self, old_annotations, new_annotations) -> None:
        pass

    def match_count(self) -> int:
        return 0

    def __repr__(self):
        return "<NullRecorder>"


#: Shared no-op recorder; safe to pass anywhere a recorder is accepted.
NULL_RECORDER = NullRecorder()


@dataclass(frozen=True)
class MatchRecord:
    """One matched pair: which phase claimed it, via which anchor."""

    old: Node
    new: Node
    phase: str
    anchor: Optional[Node] = None


@dataclass(frozen=True)
class RejectionRecord:
    """One rejected candidate or failed probe."""

    reason: str
    old: Optional[Node] = None
    new: Optional[Node] = None


class ProvenanceRecorder:
    """Collects the full decision record of one BULD run.

    One recorder per diff; pass it as ``diff_with_stats(recorder=...)``
    (or set ``DiffContext.recorder``) and hand it to
    :func:`build_report` once the diff returns.
    """

    enabled = True

    def __init__(self):
        #: Current phase; the matcher stores a :data:`MATCH_PHASES` value
        #: here before each batch of ``Matching.add`` calls.
        self.phase: str = "root"
        #: New-document anchor of the current hash/ancestor propagation.
        self.anchor: Optional[Node] = None
        self.matches: list[MatchRecord] = []
        self.rejections: list[RejectionRecord] = []
        self.locked: set[Node] = set()
        self.old_weights: Optional[dict[Node, float]] = None
        self.new_weights: Optional[dict[Node, float]] = None
        self._match_by_old: dict[Node, MatchRecord] = {}
        self._match_by_new: dict[Node, MatchRecord] = {}
        self._rejection_by_old: dict[Node, RejectionRecord] = {}
        self._rejection_by_new: dict[Node, RejectionRecord] = {}

    # -- written by the matcher -------------------------------------------

    def record_match(self, old: Node, new: Node) -> None:
        record = MatchRecord(old, new, self.phase, self.anchor)
        self.matches.append(record)
        self._match_by_old[old] = record
        self._match_by_new[new] = record

    def record_lock(self, node: Node) -> None:
        self.locked.add(node)

    def record_rejection(
        self,
        reason: str,
        old: Optional[Node] = None,
        new: Optional[Node] = None,
    ) -> None:
        record = RejectionRecord(reason, old, new)
        self.rejections.append(record)
        # Later events overwrite earlier ones: the last probe outcome is
        # the node's terminal cause if it ends the run unmatched.
        if old is not None:
            self._rejection_by_old[old] = record
        if new is not None:
            self._rejection_by_new[new] = record

    def set_weights(self, old_annotations, new_annotations) -> None:
        """Phase 2 hands over both weight maps (TreeAnnotations)."""
        self.old_weights = old_annotations.weights
        self.new_weights = new_annotations.weights

    # -- queries ----------------------------------------------------------

    def match_count(self) -> int:
        return len(self.matches)

    def match_of_old(self, node: Node) -> Optional[MatchRecord]:
        return self._match_by_old.get(node)

    def match_of_new(self, node: Node) -> Optional[MatchRecord]:
        return self._match_by_new.get(node)

    def subtree_weight(self, record: MatchRecord) -> float:
        """Subtree weight of a matched pair (new side; 1.0 fallback)."""
        if self.new_weights is not None:
            return self.new_weights.get(record.new, 1.0)
        return 1.0

    def __repr__(self):
        return (
            f"<ProvenanceRecorder matches={len(self.matches)} "
            f"rejections={len(self.rejections)} locked={len(self.locked)}>"
        )


@dataclass(frozen=True)
class NodeProvenance:
    """The fate of one node: matched-with-phase or unmatched-with-cause."""

    xid: Optional[int]
    path: str
    kind: str
    status: str                       # "matched" | "unmatched"
    phase: Optional[str] = None       # set when matched
    cause: Optional[str] = None       # set when unmatched
    anchor_xid: Optional[int] = None  # propagation anchor (hash/ancestor)
    weight: float = 1.0               # the node's own (non-subtree) weight

    def to_dict(self) -> dict:
        payload = {
            "xid": self.xid,
            "path": self.path,
            "kind": self.kind,
            "status": self.status,
            "weight": round(self.weight, 4),
        }
        if self.phase is not None:
            payload["phase"] = self.phase
        if self.cause is not None:
            payload["cause"] = self.cause
        if self.anchor_xid is not None:
            payload["anchor_xid"] = self.anchor_xid
        return payload


@dataclass
class ProvenanceReport:
    """The joined record: every node of both documents, plus summaries.

    Weight accounting uses each node's *own* weight (its subtree weight
    minus its children's), so per-side sums add up to the document's
    total weight exactly and nothing is double-counted.
    ``unmatched_weight_ratio`` is the combined unmatched own-weight over
    the combined total — the quantity ``xydiff audit`` gates on.
    """

    old_entries: list[NodeProvenance] = field(default_factory=list)
    new_entries: list[NodeProvenance] = field(default_factory=list)
    phases: dict[str, int] = field(default_factory=dict)
    rejections: dict[str, int] = field(default_factory=dict)
    old_causes: dict[str, int] = field(default_factory=dict)
    new_causes: dict[str, int] = field(default_factory=dict)
    old_total_weight: float = 0.0
    new_total_weight: float = 0.0
    old_unmatched_weight: float = 0.0
    new_unmatched_weight: float = 0.0
    operation_counts: dict[str, int] = field(default_factory=dict)
    _old_by_xid: dict[int, NodeProvenance] = field(default_factory=dict)
    _new_by_xid: dict[int, NodeProvenance] = field(default_factory=dict)

    # -- derived ----------------------------------------------------------

    @property
    def matched_pairs(self) -> int:
        return sum(self.phases.values())

    @property
    def old_unmatched(self) -> int:
        return sum(self.old_causes.values())

    @property
    def new_unmatched(self) -> int:
        return sum(self.new_causes.values())

    @property
    def unmatched_weight_ratio(self) -> float:
        total = self.old_total_weight + self.new_total_weight
        if total <= 0:
            return 0.0
        return (self.old_unmatched_weight + self.new_unmatched_weight) / total

    @property
    def matched_weight_ratio(self) -> float:
        return 1.0 - self.unmatched_weight_ratio

    # -- the "because" join -----------------------------------------------

    def because(self, operation) -> str:
        """One clause explaining why the delta contains ``operation``."""
        kind = operation.kind
        if kind == "delete":
            entry = self._old_by_xid.get(operation.xid)
            cause = entry.cause if entry is not None else None
            return self._unmatched_text("the old subtree", cause)
        if kind == "insert":
            entry = self._new_by_xid.get(operation.xid)
            cause = entry.cause if entry is not None else None
            return self._unmatched_text("the new subtree", cause)
        entry = self._new_by_xid.get(operation.xid)
        if entry is None or entry.phase is None:
            entry = self._old_by_xid.get(operation.xid)
        if entry is None or entry.phase is None:
            return "no provenance was recorded for this node"
        text = (
            f"the nodes were matched by "
            f"{_PHASE_TEXT.get(entry.phase, entry.phase)}"
        )
        if entry.anchor_xid is not None:
            text += f", anchored at node #{entry.anchor_xid}"
        return f"{text} [{entry.phase}]"

    @staticmethod
    def _unmatched_text(subject: str, cause: Optional[str]) -> str:
        if cause is None:
            return f"{subject} stayed unmatched"
        return (
            f"{subject} stayed unmatched: "
            f"{_CAUSE_TEXT.get(cause, cause)} [{cause}]"
        )

    # -- export -----------------------------------------------------------

    def to_dict(self, include_nodes: bool = True) -> dict:
        payload = {
            "schema": "repro.provenance/1",
            "old_nodes": len(self.old_entries),
            "new_nodes": len(self.new_entries),
            "matched_pairs": self.matched_pairs,
            "phases": dict(sorted(self.phases.items())),
            "rejections": dict(sorted(self.rejections.items())),
            "old_unmatched": dict(sorted(self.old_causes.items())),
            "new_unmatched": dict(sorted(self.new_causes.items())),
            "old_total_weight": round(self.old_total_weight, 4),
            "new_total_weight": round(self.new_total_weight, 4),
            "old_unmatched_weight": round(self.old_unmatched_weight, 4),
            "new_unmatched_weight": round(self.new_unmatched_weight, 4),
            "unmatched_weight_ratio": round(self.unmatched_weight_ratio, 6),
            "matched_weight_ratio": round(self.matched_weight_ratio, 6),
            "operation_counts": dict(sorted(self.operation_counts.items())),
        }
        if include_nodes:
            payload["nodes"] = {
                "old": [entry.to_dict() for entry in self.old_entries],
                "new": [entry.to_dict() for entry in self.new_entries],
            }
        return payload

    def to_text(self) -> str:
        """The ``xydiff audit`` report: summary plus unmatched listing."""

        def counts(mapping: dict[str, int]) -> str:
            if not mapping:
                return "none"
            return " ".join(
                f"{key}={value}" for key, value in sorted(mapping.items())
            )

        lines = [
            f"old nodes:        {len(self.old_entries)} "
            f"({self.old_unmatched} unmatched)",
            f"new nodes:        {len(self.new_entries)} "
            f"({self.new_unmatched} unmatched)",
            f"matched pairs:    {self.matched_pairs}",
            f"  by phase:       {counts(self.phases)}",
            f"rejections:       {counts(self.rejections)}",
            f"unmatched old:    {counts(self.old_causes)}",
            f"unmatched new:    {counts(self.new_causes)}",
            f"operations:       {counts(self.operation_counts)}",
            f"unmatched weight: "
            f"old {self._side_ratio('old'):.2%}  "
            f"new {self._side_ratio('new'):.2%}  "
            f"combined {self.unmatched_weight_ratio:.2%}",
        ]
        for side, entries in (("old", self.old_entries),
                              ("new", self.new_entries)):
            for entry in entries:
                if entry.status != "unmatched":
                    continue
                xid = "?" if entry.xid is None else str(entry.xid)
                lines.append(
                    f"  {side} #{xid:<6} {entry.cause:<18} {entry.path}"
                )
        return "\n".join(lines)

    def _side_ratio(self, side: str) -> float:
        if side == "old":
            total, unmatched = self.old_total_weight, self.old_unmatched_weight
        else:
            total, unmatched = self.new_total_weight, self.new_unmatched_weight
        return unmatched / total if total > 0 else 0.0

    def __repr__(self):
        return (
            f"<ProvenanceReport matched={self.matched_pairs} "
            f"old_unmatched={self.old_unmatched} "
            f"new_unmatched={self.new_unmatched} "
            f"unmatched_weight={self.unmatched_weight_ratio:.2%}>"
        )


def _own_weight(node: Node, weights: Optional[dict[Node, float]]) -> float:
    """The node's weight minus its children's (no double counting)."""
    if weights is None or node not in weights:
        return 1.0
    weight = weights[node]
    for child in node.children:
        weight -= weights.get(child, 0.0)
    return max(weight, 0.0)


def _safe_path(node: Node) -> str:
    try:
        return path_of(node)
    except Exception:  # detached or exotic — keep the report robust
        return "?"


def _entries_for_side(
    document: Document,
    recorder: ProvenanceRecorder,
    weights: Optional[dict[Node, float]],
    match_of,
    rejection_of,
    default_cause: str,
) -> tuple[list[NodeProvenance], dict[str, int], dict[str, int], float]:
    entries: list[NodeProvenance] = []
    phases: dict[str, int] = {}
    causes: dict[str, int] = {}
    unmatched_weight = 0.0
    for node in preorder(document):
        own = _own_weight(node, weights)
        record = match_of(node)
        if record is not None:
            phases[record.phase] = phases.get(record.phase, 0) + 1
            anchor = record.anchor
            entries.append(
                NodeProvenance(
                    xid=getattr(node, "xid", None),
                    path=_safe_path(node),
                    kind=node.kind,
                    status="matched",
                    phase=record.phase,
                    anchor_xid=(
                        getattr(anchor, "xid", None)
                        if anchor is not None and anchor is not node
                        else None
                    ),
                    weight=own,
                )
            )
            continue
        if node in recorder.locked:
            cause = "locked-id"
        else:
            rejection = rejection_of(node)
            cause = rejection.reason if rejection is not None else default_cause
        causes[cause] = causes.get(cause, 0) + 1
        unmatched_weight += own
        entries.append(
            NodeProvenance(
                xid=getattr(node, "xid", None),
                path=_safe_path(node),
                kind=node.kind,
                status="unmatched",
                cause=cause,
                weight=own,
            )
        )
    return entries, phases, causes, unmatched_weight


def build_report(
    recorder: ProvenanceRecorder,
    old_document: Document,
    new_document: Document,
    delta=None,
) -> ProvenanceReport:
    """Join the recorder with both documents into a full report.

    Call *after* the diff completed: new-document XIDs are assigned by
    Phase 5, so building earlier would report ``xid: null`` for every
    inserted node.  ``delta`` (optional) contributes the operation
    counts and enables :meth:`ProvenanceReport.because` consumers.
    """
    report = ProvenanceReport()
    (
        report.old_entries,
        old_phases,
        report.old_causes,
        report.old_unmatched_weight,
    ) = _entries_for_side(
        old_document,
        recorder,
        recorder.old_weights,
        recorder.match_of_old,
        recorder._rejection_by_old.get,
        "unclaimed",
    )
    (
        report.new_entries,
        new_phases,
        report.new_causes,
        report.new_unmatched_weight,
    ) = _entries_for_side(
        new_document,
        recorder,
        recorder.new_weights,
        recorder.match_of_new,
        recorder._rejection_by_new.get,
        "unprobed",
    )
    # Old-side and new-side phase counts are the same pairs; keep one.
    report.phases = old_phases if old_phases else new_phases
    for rejection in recorder.rejections:
        report.rejections[rejection.reason] = (
            report.rejections.get(rejection.reason, 0) + 1
        )
    report.old_total_weight = sum(e.weight for e in report.old_entries)
    report.new_total_weight = sum(e.weight for e in report.new_entries)
    if delta is not None:
        report.operation_counts = delta.summary()
    report._old_by_xid = {
        entry.xid: entry
        for entry in report.old_entries
        if entry.xid is not None
    }
    report._new_by_xid = {
        entry.xid: entry
        for entry in report.new_entries
        if entry.xid is not None
    }
    return report


def publish_provenance_metrics(metrics, recorder: ProvenanceRecorder) -> None:
    """Feed the per-phase attribution metrics from one recorded run.

    Registers (get-or-create) and updates:

    - ``repro_matches_total{phase=...}`` — matched pairs per phase;
    - ``repro_match_weight{phase=...}`` — histogram of matched subtree
      weights (bounds :data:`WEIGHT_BUCKETS`);
    - ``repro_rejections_total{reason=...}`` — rejected candidates and
      failed probes per reason.

    Called by ``diff_with_stats(metrics=..., recorder=...)``; with the
    recorder absent or disabled nothing is registered, so metrics output
    stays byte-identical to an unrecorded run.
    """
    matches = metrics.counter(
        "repro_matches_total",
        help="Matched node pairs, by BULD phase.",
        unit="pairs",
    )
    weight_histogram = metrics.histogram(
        "repro_match_weight",
        help="Subtree weight of each matched pair, by phase.",
        unit="weight",
        buckets=WEIGHT_BUCKETS,
    )
    for record in recorder.matches:
        matches.inc(phase=record.phase)
        weight_histogram.observe(
            recorder.subtree_weight(record), phase=record.phase
        )
    rejections = metrics.counter(
        "repro_rejections_total",
        help="Rejected match candidates and failed probes, by reason.",
        unit="events",
    )
    for record in recorder.rejections:
        rejections.inc(reason=record.reason)
