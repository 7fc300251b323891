"""Engine comparison: every diff algorithm behind one interface.

The paper's evaluation (Figures 5/6) lines XyDiff up against simpler
tools — Unix diff over serialized text, DiffMK's flattened-list diff,
Lu's order-preserving matching, LaDiff's similarity matching.  The
``repro.engine`` table of five engines gives each of them the same entry
point, so comparing them is a loop:

- every engine produces a *correct* delta (applying it reproduces the
  new version exactly — asserted below);
- they differ in delta **quality**: structure-aware matching pays a
  move where structure-blind matching pays delete + insert.

Run:  python examples/engine_comparison.py
"""

from repro import apply_delta, available_engines, get_engine
from repro.core import delta_byte_size
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)


def main() -> None:
    base = generate_document(GeneratorConfig(target_nodes=400, seed=11))
    result = simulate_changes(
        base,
        SimulatorConfig(
            delete_probability=0.05,
            update_probability=0.1,
            insert_probability=0.05,
            move_probability=0.2,
            seed=12,
        ),
    )

    print(f"{'engine':<10} {'bytes':>8} {'ops':>5} {'moves':>6} {'seconds':>9}")
    for name in available_engines():
        old = base.clone(keep_xids=False)
        new = result.new_document.clone(keep_xids=False)
        delta, stats = get_engine(name).diff_with_stats(old, new)

        # parity: every engine's delta transforms old into new exactly
        assert apply_delta(delta, old, verify=True).deep_equal(new), name

        operations = sum(stats.operation_counts.values())
        moves = stats.operation_counts.get("move", 0)
        print(
            f"{name:<10} {delta_byte_size(delta):>8} {operations:>5} "
            f"{moves:>6} {stats.total_seconds:>9.4f}"
        )

    print()
    print(
        "all engines round-trip; structure-aware matching (buld) keeps "
        "relocations as moves instead of delete+insert pairs"
    )


if __name__ == "__main__":
    main()
