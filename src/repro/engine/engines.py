"""The built-in engines: BULD plus the Section-3 baselines.

Each baseline algorithm used to expose its own incompatible API
(``lu_diff``, ``ladiff_diff``, ``diffmk`` returning token runs ...); here
they are all :class:`~repro.engine.base.DiffEngine` implementations
producing a completed delta through the shared Phase-5 builder, so any of
them round-trips (``apply(diff(old, new), old) == new``) and plugs into
the version store, the CLI and the benchmarks interchangeably.

``"diffmk"`` and ``"flat"`` deserve a note: the historical tools emit edit
scripts over flattened token lists, not tree deltas.  To give them a
seat at the same table their list-diff *matchings* are lifted back onto
the nodes (a token run that Myers reports equal pins the nodes owning
those tokens), and the shared builder derives the delta.  They remain
structurally blind — a moved subtree still costs delete + insert unless
the LCS happens to keep it — which is exactly the behaviour the paper's
comparison demonstrates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.buld import CANDIDATE_PROBES, BuldMatcher
from repro.core.lcs import myers_opcodes
from repro.core.matching import Matching
from repro.core.signature import annotate
from repro.engine.base import DiffEngine, EngineRun, Stage
from repro.engine.context import DiffContext
from repro.engine.registry import register_engine, register_matcher
from repro.xmlkit.model import Document, Node
from repro.xmlkit.serializer import escape_attribute, escape_text

if TYPE_CHECKING:
    from repro.baselines.ladiff import LaDiffConfig

__all__ = [
    "BuldEngine",
    "DiffMkMatcher",
    "FlatMatcher",
    "LaDiffMatcher",
    "LuMatcher",
]


class BuldEngine(DiffEngine):
    """The paper's algorithm as a five-stage pipeline.

    Stage names (execution order) and their paper-phase aliases:

    1. ``annotate``       (phase2) — signatures, weights, old-side indexes;
    2. ``id-attributes``  (phase1) — ID-attribute matches and locks;
    3. ``match-subtrees`` (phase3) — heaviest-first identical subtrees;
    4. ``propagate``      (phase4) — bottom-up / top-down optimization;
    5. ``build-delta``    (phase5) — the shared delta builder.

    Ablations switch phases off through :class:`~repro.core.config.
    DiffConfig`, not by skipping stages.
    """

    name = "buld"

    def stages(self, run: EngineRun) -> list[Stage]:
        matcher = BuldMatcher(
            run.old,
            run.new,
            run.context.config,
            recorder=run.context.recorder,
        )
        run.extra["matcher"] = matcher
        return [
            Stage("annotate", self._annotate, "phase2"),
            Stage("id-attributes", self._id_attributes, "phase1"),
            Stage("match-subtrees", self._match_subtrees, "phase3"),
            Stage("propagate", self._propagate, "phase4"),
            Stage("build-delta", self._build, "phase5"),
        ]

    @staticmethod
    def _annotate(run: EngineRun) -> None:
        run.extra["matcher"].phase2_annotate()

    @staticmethod
    def _id_attributes(run: EngineRun) -> None:
        run.extra["matcher"].phase1_id_attributes()

    @staticmethod
    def _match_subtrees(run: EngineRun) -> None:
        matcher: BuldMatcher = run.extra["matcher"]
        matcher.phase3_match_subtrees()
        run.context.count(CANDIDATE_PROBES, matcher.candidate_probes)

    @staticmethod
    def _propagate(run: EngineRun) -> None:
        run.extra["matcher"].phase4_propagate()

    def _build(self, run: EngineRun) -> None:
        # Release the matcher first: the delta builder needs only the
        # matching and the new weights, and dropping the rest (old-side
        # annotations, new signatures, both candidate indexes) before it
        # runs lowers the diff's peak memory.
        matcher: BuldMatcher = run.extra.pop("matcher")
        run.matching = matcher.matching
        if matcher.new_annotations is not None:
            run.weights = matcher.new_annotations.weights
            run.old_nodes = matcher.old_annotations.node_count
            run.new_nodes = matcher.new_annotations.node_count
        del matcher
        self._build_delta_stage(run)


class LuMatcher:
    """Lu/Selkow optimal order-preserving matching (quadratic DP)."""

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        # The baselines load with the first baseline diff, not with BULD.
        from repro.baselines.lu import lu_match

        return lu_match(old, new).matching


class LaDiffMatcher:
    """LaDiff/Chawathe-96 similarity matching.

    Thresholds come from a :class:`~repro.baselines.ladiff.LaDiffConfig`
    given at construction (defaults are Chawathe's).
    """

    def __init__(self, config: LaDiffConfig | None = None):
        self.config = config

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        from repro.baselines.ladiff import ladiff_match

        return ladiff_match(old, new, self.config)


def _diffmk_tokens(document: Document) -> list[tuple[str, Node | None]]:
    """DiffMK's flattened token list, each token tagged with its node.

    Mirrors :func:`repro.baselines.diffmk.flatten`: one token per
    tag-open (with attributes), tag-close, and leaf value.  The owning
    node rides along on open/leaf tokens (close tags carry ``None``).
    """
    tokens: list[tuple[str, Node | None]] = []
    stack: list = [document]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            tokens.append((node, None))
            continue
        kind = node.kind
        if kind == "document":
            stack.extend(reversed(node.children))
        elif kind == "element":
            attributes = "".join(
                f' {name}="{escape_attribute(str(value))}"'
                for name, value in sorted(node.attributes.items())
            )
            tokens.append((f"<{node.label}{attributes}>", node))
            stack.append(f"</{node.label}>")
            stack.extend(reversed(node.children))
        elif kind == "text":
            tokens.append((escape_text(node.value), node))
        elif kind == "comment":
            tokens.append((f"<!--{node.value}-->", node))
        else:  # pi
            tokens.append((f"<?{node.target} {node.value}?>", node))
    return tokens


class DiffMkMatcher:
    """DiffMK's flattened-list diff, lifted back onto the tree.

    Runs Myers over the token lists (exactly what the historical tool
    diffed) and matches the nodes owning tokens inside ``equal`` runs.
    Equal open tokens imply equal labels and attributes, so every pair
    satisfies the matching's kind/label preservation; ``can_match``
    guards the rest.
    """

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        matching = Matching()
        matching.add(old, new)
        old_tokens = _diffmk_tokens(old)
        new_tokens = _diffmk_tokens(new)
        opcodes = myers_opcodes(
            [token for token, _ in old_tokens],
            [token for token, _ in new_tokens],
        )
        for tag, i1, i2, j1, j2 in opcodes:
            if tag != "equal":
                continue
            for offset in range(i2 - i1):
                old_node = old_tokens[i1 + offset][1]
                new_node = new_tokens[j1 + offset][1]
                if (
                    old_node is not None
                    and new_node is not None
                    and matching.can_match(old_node, new_node)
                ):
                    matching.add(old_node, new_node)
        return matching


def _node_sequence(document: Document) -> tuple[list[tuple], list[Node]]:
    """Preorder node keys (kind + shallow content) and the nodes."""
    keys: list[tuple] = []
    nodes: list[Node] = []
    stack: list[Node] = list(reversed(document.children))
    while stack:
        node = stack.pop()
        kind = node.kind
        if kind == "element":
            keys.append(("E", node.label))
            stack.extend(reversed(node.children))
        elif kind == "pi":
            keys.append(("P", node.target, node.value))
        else:  # text / comment
            keys.append((kind[0].upper(), node.value))
        nodes.append(node)
    return keys, nodes


class FlatMatcher:
    """Node-sequence LCS: the simplest structure-blind matcher.

    Flattens both documents to their preorder node sequences (elements
    keyed by label, leaves by value) and matches along a longest common
    subsequence.  Attribute changes survive as attribute operations
    (labels still match); everything positional is left to the builder's
    move/delete/insert derivation.
    """

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        matching = Matching()
        matching.add(old, new)
        old_keys, old_nodes = _node_sequence(old)
        new_keys, new_nodes = _node_sequence(new)
        for tag, i1, i2, j1, j2 in myers_opcodes(old_keys, new_keys):
            if tag != "equal":
                continue
            for offset in range(i2 - i1):
                old_node = old_nodes[i1 + offset]
                new_node = new_nodes[j1 + offset]
                if matching.can_match(old_node, new_node):
                    matching.add(old_node, new_node)
        return matching


register_engine("buld", BuldEngine)
register_matcher("lu", LuMatcher())
register_matcher("ladiff", LaDiffMatcher())
register_matcher("diffmk", DiffMkMatcher())
register_matcher("flat", FlatMatcher())
