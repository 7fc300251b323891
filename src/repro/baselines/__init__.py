"""Baseline algorithms the paper compares against (Section 3).

- :mod:`repro.baselines.unixdiff` — Myers line diff with Unix "normal"
  output (the Figure 6 comparator).
- :mod:`repro.baselines.diffmk` — DiffMK-style flattened-list diff.
- :mod:`repro.baselines.lu` — Lu's quadratic tree diff, Selkow variant.
- :mod:`repro.baselines.ladiff` — LaDiff/Chawathe-96 similarity matching.
- :mod:`repro.baselines.zhang_shasha` — exact ordered tree edit distance.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DiffMkResult",
    "LuResult",
    "diffmk",
    "flatten",
    "ladiff_match",
    "lu_match",
    "node_tokens",
    "patch",
    "tree_edit_distance",
    "unix_diff",
    "unix_diff_size",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "diffmk": ("DiffMkResult", "diffmk", "flatten", "node_tokens"),
    "ladiff": ("ladiff_match",),
    "lu": ("LuResult", "lu_match"),
    "unixdiff": ("patch", "unix_diff", "unix_diff_size"),
    "zhang_shasha": ("tree_edit_distance",),
})
