"""The paper's contribution: BULD matching, XID deltas, and their algebra.

Modules:

- :mod:`repro.core.xid` — persistent identifiers and XID-maps.
- :mod:`repro.core.signature` — subtree signatures and weights (Phase 2).
- :mod:`repro.core.matching` — the old/new node correspondence.
- :mod:`repro.core.buld` — the BULD matching algorithm (Phases 1-4).
- :mod:`repro.core.moves` — intra-parent move detection (exact + chunked).
- :mod:`repro.core.lcs` — LCS / Myers diff machinery.
- :mod:`repro.core.builder` — delta construction from a matching (Phase 5).
- :mod:`repro.core.delta` — operation and delta classes.
- :mod:`repro.core.deltaxml` — deltas as XML documents.
- :mod:`repro.core.apply` — apply / invert / aggregate.
- :mod:`repro.core.diff` — re-exports the engine layer's ``diff`` entry
  point (:mod:`repro.engine.engines`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "AttributeDelete",
    "AttributeInsert",
    "AttributeUpdate",
    "BuldMatcher",
    "DOCUMENT_XID",
    "Delete",
    "Delta",
    "DiffConfig",
    "DiffStats",
    "Insert",
    "Matching",
    "MatchingError",
    "Move",
    "Operation",
    "TreeAnnotations",
    "Update",
    "ValidationProblem",
    "validate_delta",
    "XidAllocator",
    "aggregate",
    "annotate",
    "apply_backward",
    "apply_delta",
    "assign_initial_xids",
    "build_delta",
    "delta_by_xid_join",
    "delta_byte_size",
    "delta_from_document",
    "delta_to_document",
    "diff",
    "diff_with_stats",
    "edit_cost",
    "explain_delta",
    "explain_operation",
    "format_xid_map",
    "nodes_touched",
    "operation_count",
    "invert",
    "max_xid",
    "moves_to_edits",
    "parse_delta",
    "strip_metadata",
    "parse_xid_map",
    "serialize_delta",
    "subtree_xids",
    "xid_index",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "apply": (
        "aggregate", "apply_backward", "apply_delta", "delta_by_xid_join",
        "invert",
    ),
    "builder": ("build_delta",),
    "buld": ("BuldMatcher",),
    "config": ("DiffConfig",),
    "delta": (
        "AttributeDelete", "AttributeInsert", "AttributeUpdate", "Delete",
        "Delta", "Insert", "Move", "Operation", "Update",
    ),
    "deltaxml": (
        "delta_byte_size", "delta_from_document", "delta_to_document",
        "parse_delta", "serialize_delta",
    ),
    "diff": ("DiffStats", "diff", "diff_with_stats"),
    "explain": ("explain_delta", "explain_operation"),
    "matching": ("Matching", "MatchingError"),
    "metrics": ("edit_cost", "nodes_touched", "operation_count"),
    "signature": ("TreeAnnotations", "annotate"),
    "transform": ("moves_to_edits", "strip_metadata"),
    "validate": ("ValidationProblem", "validate_delta"),
    "xid": (
        "DOCUMENT_XID", "XidAllocator", "assign_initial_xids",
        "format_xid_map", "max_xid", "parse_xid_map", "subtree_xids",
        "xid_index",
    ),
})
