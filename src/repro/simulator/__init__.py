"""Workload substrate: document generators and the change simulator.

- :mod:`repro.simulator.generator` — synthetic documents and catalogs.
- :mod:`repro.simulator.change_simulator` — the paper's change simulator,
  returning the mutated document *and* the perfect ground-truth delta.
- :mod:`repro.simulator.webcorpus` — simulated web crawl and site maps
  (substitute for the paper's real crawled XML; see DESIGN.md).
"""

from repro._lazy import lazy_exports

__all__ = [
    "GeneratorConfig",
    "SimulationResult",
    "SimulatorConfig",
    "WORDS",
    "WebCorpus",
    "WebCorpusConfig",
    "evolve_site",
    "generate_catalog",
    "generate_document",
    "generate_site_snapshot",
    "make_text",
    "simulate_changes",
    "weekly_change_profile",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "change_simulator": (
        "SimulationResult", "SimulatorConfig", "simulate_changes",
    ),
    "generator": ("GeneratorConfig", "generate_catalog", "generate_document"),
    "webcorpus": (
        "WebCorpus", "WebCorpusConfig", "evolve_site",
        "generate_site_snapshot", "weekly_change_profile",
    ),
    "words": ("WORDS", "make_text"),
})
