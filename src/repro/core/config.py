"""Tuning knobs of the diff (the paper's Section 5.2 *Tuning* discussion).

Every heuristic choice the paper calls out is a field here, so the ablation
benchmarks can flip them one at a time:

- the leaf weight function (``1 + log(len(text))`` vs. constant);
- the ancestor look-up / propagation depth factor (the ``d = 1 + W/W0 ·
  log n`` bound);
- the candidate enumeration cap (keeps Phase 3 at ``O(log n)`` per node);
- exact vs. chunked intra-parent move detection and the block length;
- whether ID attributes are used at all;
- lazy vs. eager downward propagation of fresh ancestor matches.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DiffConfig"]


@dataclass
class DiffConfig:
    """Configuration for :func:`repro.core.diff.diff`.

    Attributes:
        use_id_attributes: Run Phase 1 (ID-attribute matching + locking).
        infer_id_attributes: When no DTD declared ID attributes, infer
            them from the documents themselves (an attribute present on
            every instance of its element, with name-shaped values unique
            within each document).  Conservative: an attribute must
            qualify in both versions independently.
        optimization_passes: Maximum bottom-up/top-down propagation rounds
            in Phase 4 (each round is linear; rounds stop early at a
            fixpoint).  The paper uses one; two recovers slightly more
            matches for the same asymptotic cost.
        max_candidates: Cap on candidates examined per queue entry in
            Phase 3 — the explicit guard that keeps the candidate scan
            constant-bounded.
        ancestor_depth_factor: Scales the weight-proportional depth
            ``1 + factor · log2(n) · W/W0`` used both for candidate
            ancestor agreement checks and upward match propagation.
        log_text_weight: Leaf weight ``1 + log(1 + len)`` (paper) vs 1.0.
        lazy_down: When True (paper), children of freshly matched ancestors
            wait for Phase 4; when False they are aligned eagerly on the
            spot (the "quadratic risk" alternative, kept for ablation).
        exact_move_threshold: Child-list length up to which intra-parent
            reordering uses the exact heaviest increasing subsequence.
        move_block_length: Block length for the chunked heuristic beyond
            that threshold (the paper suggests 50).
    """

    use_id_attributes: bool = True
    infer_id_attributes: bool = False
    optimization_passes: int = 2
    max_candidates: int = 32
    ancestor_depth_factor: float = 1.0
    log_text_weight: bool = True
    lazy_down: bool = True
    exact_move_threshold: int = 50
    move_block_length: int = 50

    def validate(self) -> "DiffConfig":
        """Raise ``ValueError`` on nonsensical settings; returns self."""
        if self.optimization_passes < 0:
            raise ValueError("optimization_passes must be >= 0")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.ancestor_depth_factor < 0:
            raise ValueError("ancestor_depth_factor must be >= 0")
        if self.exact_move_threshold < 0:
            raise ValueError("exact_move_threshold must be >= 0")
        if self.move_block_length < 1:
            raise ValueError("move_block_length must be >= 1")
        return self
