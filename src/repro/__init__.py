"""repro — a faithful reproduction of *Detecting Changes in XML Documents*.

This package implements the XyDiff system described by Cobéna, Abiteboul and
Marian (ICDE 2002): the BULD diff algorithm for XML trees, the completed
delta model over persistent identifiers (XIDs), and the surrounding
Xyleme-style change-control machinery (version repository and
subscriptions), together with the baselines and the workload generators
used by the paper's evaluation.

Quickstart::

    from repro import parse, diff, apply_delta

    old = parse("<a><b>1</b></a>")
    new = parse("<a><b>2</b></a>")
    delta = diff(old, new)
    assert apply_delta(delta, old).deep_equal(new)

The public surface is re-exported here, each name loading its submodule on
first access (see :mod:`repro._lazy`); see the subpackages for the full API:

- :mod:`repro.xmlkit` — XML document model, parser, serializer, DTD support.
- :mod:`repro.core` — BULD matching, deltas, apply/invert/aggregate.
- :mod:`repro.engine` — BULD and the four baselines as a fixed table
  of engines; every algorithm behind one ``diff`` interface.
- :mod:`repro.baselines` — Lu/Selkow, LaDiff, Zhang–Shasha, DiffMK, Unix diff.
- :mod:`repro.versioning` — repository, version control, alerter.
- :mod:`repro.simulator` — document generators and the change simulator.
- :mod:`repro.obs` — observability: tracing spans, metrics registry,
  match provenance (see ``docs/observability.md``).
"""

from repro._lazy import lazy_exports

__version__ = "1.2.0"

__all__ = [
    "Comment",
    "Delta",
    "DiffConfig",
    "DiffContext",
    "DiffEngine",
    "DiffStats",
    "Document",
    "Element",
    "MetricsRegistry",
    "ProcessingInstruction",
    "Text",
    "Tracer",
    "XmlParseError",
    "aggregate",
    "apply_backward",
    "apply_delta",
    "available_engines",
    "diff",
    "diff_with_stats",
    "get_engine",
    "invert",
    "parse",
    "parse_file",
    "serialize",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "xmlkit.errors": ("XmlParseError",),
    "xmlkit.model": (
        "Comment", "Document", "Element", "ProcessingInstruction", "Text",
    ),
    "xmlkit.parser": ("parse", "parse_file"),
    "xmlkit.serializer": ("serialize",),
    "core.apply": ("aggregate", "apply_backward", "apply_delta", "invert"),
    "core.config": ("DiffConfig",),
    "core.delta": ("Delta",),
    "engine.base": ("DiffContext", "DiffEngine", "DiffStats"),
    "engine.engines": (
        "available_engines", "diff", "diff_with_stats", "get_engine",
    ),
    "obs.metrics": ("MetricsRegistry",),
    "obs.trace": ("Tracer",),
})
