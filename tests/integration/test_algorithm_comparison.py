"""Cross-algorithm coherence: every diff flavour must be *correct*, and
their relative behaviours must match the paper's Section 3 narrative."""

import functools

import pytest

from repro.baselines import diffmk, tree_edit_distance
from repro.core import apply_delta, delta_byte_size, diff
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from tests.baselines.token_oracle import edit_tokens


def scenario(doc_seed, sim_seed, nodes=80, **probabilities):
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=doc_seed))
    result = simulate_changes(
        base, SimulatorConfig(seed=sim_seed, **probabilities)
    )
    old = base.clone(keep_xids=False)
    new = result.new_document.clone(keep_xids=False)
    return old, new


ALGORITHMS = {
    name: functools.partial(diff, engine=name)
    for name in ("buld", "lu", "ladiff")
}


class TestAllAlgorithmsAreCorrect:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delta_transforms_old_to_new(self, name, seed):
        old, new = scenario(seed, seed + 50)
        delta = ALGORITHMS[name](old.clone(), new.clone())
        # note: algorithms label documents; run on private clones then
        # verify against originals using fresh labelled copies
        base = old.clone(keep_xids=False)
        delta = ALGORITHMS[name](base, new)
        assert apply_delta(delta, base, verify=True).deep_equal(new)


class TestRelativeBehaviour:
    def test_buld_move_advantage(self):
        # With heavy moves, BULD's delta should be no larger than Lu's
        # (which pays delete+insert for every relocation).
        old, new = scenario(
            5,
            55,
            nodes=120,
            delete_probability=0.1,
            update_probability=0.0,
            insert_probability=0.0,
            move_probability=0.5,
        )
        buld_delta = diff(old.clone(keep_xids=False), new.clone(keep_xids=False))
        lu_delta = diff(
            old.clone(keep_xids=False), new.clone(keep_xids=False), engine="lu"
        )
        if buld_delta.by_kind("move"):
            assert delta_byte_size(buld_delta) <= delta_byte_size(lu_delta) * 1.2

    def test_zs_distance_lower_bounds_moveless_costs(self):
        # Lu's cost counts whole-subtree deletes/inserts; it can never be
        # below the optimal unit-cost edit distance.
        from repro.baselines import lu_match

        old, new = scenario(8, 88, nodes=40)
        distance = tree_edit_distance(old, new)
        lu_cost = lu_match(
            old.clone(keep_xids=False), new.clone(keep_xids=False)
        ).cost
        assert lu_cost >= distance - 1e-9

    def test_diffmk_blind_to_moves(self):
        old, new = scenario(
            9,
            99,
            nodes=100,
            delete_probability=0.05,
            update_probability=0.0,
            insert_probability=0.0,
            move_probability=0.4,
        )
        tree_delta = diff(old.clone(keep_xids=False), new.clone(keep_xids=False))
        flat = diffmk(old, new)
        moves = len(tree_delta.by_kind("move"))
        if moves >= 3:
            # the flat diff edits at least as many tokens as the tree diff
            # has operations: moves are paid twice in token-land
            assert edit_tokens(flat) > moves

    def test_identical_documents_all_empty(self):
        base = generate_document(GeneratorConfig(target_nodes=60, seed=10))
        for name, algorithm in ALGORITHMS.items():
            old = base.clone(keep_xids=False)
            new = base.clone(keep_xids=False)
            delta = algorithm(old, new)
            assert delta.is_empty(), f"{name} found changes in identity"
        assert edit_tokens(diffmk(base, base.clone())) == 0
        assert tree_edit_distance(base, base.clone()) == 0
