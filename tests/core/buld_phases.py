"""BULD's matching phases on one pair, for tests that inspect the matcher.

The phases run in the order the ``buld`` engine runs them as stages
(:class:`repro.engine.engines.BuldEngine`), without the delta build.
"""

from repro.core import BuldMatcher, DiffConfig


def run_phases(matcher: BuldMatcher) -> BuldMatcher:
    """Run phases 1-4 on ``matcher``; returns it (matching inside)."""
    matcher.phase2_annotate()
    matcher.phase1_id_attributes()
    matcher.phase3_match_subtrees()
    matcher.phase4_propagate()
    return matcher


def match_documents(old_document, new_document, config=None) -> BuldMatcher:
    """A :class:`BuldMatcher` of the pair after phases 1-4."""
    return run_phases(
        BuldMatcher(old_document, new_document, config or DiffConfig())
    )
