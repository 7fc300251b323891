"""Count the tree nodes a piece of work leaves to the cycle collector.

Shared by ``test_no_cycle_garbage.py`` and the CI step that runs the
same check on the 150k-node Fig. 4 pair; it imports no test framework,
so it runs under a bare interpreter.
"""

import gc

from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import Node, serialize


def cycle_garbage_nodes(work) -> int:
    """Run ``work()`` and count the nodes it leaves to the cycle collector."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return sum(1 for obj in gc.garbage if isinstance(obj, Node))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def fig4_texts(nodes: int, versions: int = 2) -> list[str]:
    """A Fig. 4 document (generator seed 1) and simulated successors."""
    document = generate_document(GeneratorConfig(target_nodes=nodes, seed=1))
    texts = [serialize(document.clone(keep_xids=False))]
    for seed in range(2, versions + 1):
        document = simulate_changes(
            document, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=seed)
        ).new_document
        texts.append(serialize(document.clone(keep_xids=False)))
    return texts
