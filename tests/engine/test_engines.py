"""Engine-layer contract: every engine in the table is a *correct* diff.

Parity means: whatever matching an engine produces, the shared builder
turns it into a delta that transforms old into new exactly — so all five
engines round-trip on the simulator workloads, differ only in delta
*quality*, and plug into every consumer interchangeably.
"""

import pytest

from repro.core import apply_backward, apply_delta, diff, serialize_delta
from repro.engine import (
    DiffContext,
    EngineError,
    MatcherEngine,
    available_engines,
    diff_with_stats,
    get_engine,
)
from repro.engine.engines import ENGINES
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import parse, serialize


def scenario(doc_seed, sim_seed, nodes=90, **probabilities):
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=doc_seed))
    result = simulate_changes(
        base, SimulatorConfig(seed=sim_seed, **probabilities)
    )
    return (
        base.clone(keep_xids=False),
        result.new_document.clone(keep_xids=False),
    )


class TestRegistry:
    """The fixed engine table and the name lookup over it."""

    def test_builtins_registered(self):
        assert available_engines() == [
            "buld",
            "diffmk",
            "flat",
            "ladiff",
            "lu",
        ]
        for name, engine in ENGINES.items():
            assert engine.name == name

    def test_get_engine_caches_instances(self):
        assert get_engine("buld") is get_engine("buld")

    def test_unknown_engine_lists_available(self):
        with pytest.raises(EngineError) as error:
            get_engine("nope")
        assert "buld" in str(error.value)

    def test_resolve_accepts_instances(self):
        engine = get_engine("lu")
        assert get_engine(engine) is engine
        custom = MatcherEngine("custom", object())
        assert get_engine(custom) is custom


class TestEngineParity:
    """Every engine's delta replays both ways, to the very bytes."""

    @pytest.mark.parametrize("name", sorted(ENGINES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_round_trip_on_simulator_workload(self, name, seed):
        old, new = scenario(seed, seed + 40)
        delta = diff(old, new, engine=name)
        forward = apply_delta(delta, old, verify=True)
        assert forward.deep_equal(new)
        assert serialize(forward) == serialize(new)
        backward = apply_backward(delta, new, verify=True)
        assert backward.deep_equal(old)
        assert serialize(backward) == serialize(old)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_identical_documents_empty_delta(self, name):
        base = generate_document(GeneratorConfig(target_nodes=60, seed=7))
        delta = diff(
            base.clone(keep_xids=False), base.clone(keep_xids=False),
            engine=name,
        )
        assert delta.is_empty(), f"{name} found changes in identity"

    def test_repro_diff_is_engine_shim(self):
        old_a, new_a = scenario(4, 44)
        old_b, new_b = scenario(4, 44)
        via_shim = diff(old_a, new_a)
        via_engine, _ = get_engine("buld").diff_with_stats(old_b, new_b)
        assert serialize_delta(via_shim) == serialize_delta(via_engine)

    def test_engine_flag_through_shim(self):
        old, new = scenario(5, 45)
        delta = diff(old, new, engine="flat")
        assert apply_delta(delta, old, verify=True).deep_equal(new)


class TestStagePipeline:
    def test_stage_order_is_execution_order(self):
        old, new = scenario(6, 46)
        _, stats = get_engine("buld").diff_with_stats(old, new)
        assert stats.stage_order == [
            "annotate",
            "id-attributes",
            "match-subtrees",
            "propagate",
            "build-delta",
        ]
        # the paper-numbered aliases stay available for the figures
        assert set(stats.phase_seconds) == {
            "phase1",
            "phase2",
            "phase3",
            "phase4",
            "phase5",
        }
        # ... but phase2 (annotate) executes before phase1 (ID attributes)
        assert stats.stage_order.index("annotate") < stats.stage_order.index(
            "id-attributes"
        )

    def test_stats_are_json_serializable(self):
        import json

        old, new = scenario(11, 51)
        _, stats = get_engine("lu").diff_with_stats(old, new)
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["engine"] == "lu"
        assert payload["stage_order"] == ["match", "build-delta"]


class TestCustomMatcher:
    def test_custom_matcher_round_trips(self):
        class RootOnlyMatcher:
            """Worst legal matcher: matches nothing below the roots."""

            def match(self, old, new, context):
                from repro.core.matching import Matching

                matching = Matching()
                matching.add(old, new)
                context.count("root_only_runs")
                return matching

        engine = MatcherEngine("root-only", RootOnlyMatcher())
        old, new = scenario(12, 52, nodes=40)
        delta, stats = diff_with_stats(old, new, engine=engine)
        assert apply_delta(delta, old, verify=True).deep_equal(new)
        assert stats.engine == "root-only"
        assert stats.stage_order == ["match", "build-delta"]
        assert stats.counters.get("root_only_runs") == 1
        # A custom engine joins no table: the names stay the five.
        assert "root-only" not in available_engines()

    def test_matcher_engine_adapter(self):
        class SwapCaseMatcher:
            def match(self, old, new, context):
                from repro.core.matching import Matching

                matching = Matching()
                matching.add(old, new)
                return matching

        engine = MatcherEngine("adhoc", SwapCaseMatcher())
        old = parse("<a><b>x</b></a>")
        new = parse("<a><c>y</c></a>")
        context = DiffContext()
        delta, _ = engine.diff_with_stats(old, new, context=context)
        assert apply_delta(delta, old, verify=True).deep_equal(new)


class TestTopLevelExports:
    """Satellite: diff_with_stats / DiffStats on the public package."""

    def test_public_surface(self):
        import repro

        assert callable(repro.diff_with_stats)
        assert repro.DiffStats is not None
        for name in (
            "DiffContext",
            "DiffEngine",
            "available_engines",
            "get_engine",
        ):
            assert name in repro.__all__

    def test_diff_with_stats_back_compat(self):
        import repro

        old = parse("<a><b>x</b></a>")
        new = parse("<a><b>y</b></a>")
        delta, stats = repro.diff_with_stats(old, new)
        assert stats.engine == "buld"
        assert apply_delta(delta, old, verify=True).deep_equal(new)
