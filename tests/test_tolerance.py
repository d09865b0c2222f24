import random

from systemw import (
    BeliefBase,
    Signature,
    parse_conditional,
    tolerance_partition,
)

from conftest import world_bits
from oracles import (
    oracle_falsifies,
    oracle_tolerance_partition,
    oracle_tolerated,
    oracle_verifies,
    random_base,
    assignment_of_bits,
)


def cond_strs(base, layer):
    return {str(base[i]) for i in layer}


class TestIsTolerated:
    def test_tolerated_with_witness(self, example1):
        # (f|b): the world bf!p!v!d verifies it and falsifies nothing
        assert oracle_tolerated(example1, 0, example1.indices())
        assert 0 in tolerance_partition(example1).layers[0]
        sig = example1.signature
        asg = assignment_of_bits(sig, world_bits(sig, "bf"))
        assert oracle_verifies(example1[0], asg)
        assert not any(oracle_falsifies(c, asg) for c in example1)

    def test_not_tolerated(self, example1):
        assert not oracle_tolerated(example1, 2, example1.indices())  # (b|p)
        assert 2 not in tolerance_partition(example1).layers[0]

    def test_empty_context(self):
        sig = Signature(["a", "b"])
        base = BeliefBase(sig, [parse_conditional("(b|a)", sig)])
        assert oracle_tolerated(base, 0, [])
        assert tolerance_partition(base).layers == (frozenset({0}),)


class TestTolerancePartition:
    def test_example1_layers(self, example1):
        part = tolerance_partition(example1)
        assert part is not None
        assert len(part.layers) == 2
        assert cond_strs(example1, part.layers[0]) == {"(f|b)", "(!v|d)"}
        assert cond_strs(example1, part.layers[1]) == {"(b|p)", "(!f|p)"}

    def test_empty_base(self):
        base = BeliefBase(Signature(["a"]), ())
        part = tolerance_partition(base)
        assert part is not None and part.layers == () and part.k == -1

    def test_contradictory_pair_inconsistent(self):
        sig = Signature(["a"])
        base = BeliefBase(
            sig, [parse_conditional("(a|top)", sig), parse_conditional("(!a|top)", sig)]
        )
        assert tolerance_partition(base) is None

    def test_unsatisfiable_antecedent_inconsistent(self):
        sig = Signature(["a"])
        base = BeliefBase(sig, [parse_conditional("(a|bot)", sig)])
        assert tolerance_partition(base) is None

    def test_layers_partition_indices(self, example1):
        part = tolerance_partition(example1)
        seen = set()
        for layer in part.layers:
            assert layer and not layer & seen
            seen |= layer
        assert seen == set(example1.indices())

    def test_uniqueness_under_reordering(self, example1):
        rng = random.Random(7)
        order = list(example1.indices())
        for _ in range(5):
            rng.shuffle(order)
            shuffled = BeliefBase(
                example1.signature, [example1[i] for i in order]
            )
            part = tolerance_partition(shuffled)
            assert [cond_strs(shuffled, l) for l in part.layers] == [
                cond_strs(example1, l)
                for l in tolerance_partition(example1).layers
            ]

    def test_inclusion_maximality(self, example1):
        # pulling any later-layer conditional into layer 0 breaks the invariant
        part = tolerance_partition(example1)
        for i in part.layers[1]:
            assert not oracle_tolerated(example1, i, example1.indices())

    def test_subset_partition_uses_original_indices(self, example1):
        part = tolerance_partition(example1, [2, 3])  # (b|p), (!f|p)
        assert part is not None
        assert part.layers == (frozenset({2, 3}),)

    def test_consistency_flag(self, example1):
        assert tolerance_partition(example1) is not None
        assert tolerance_partition(BeliefBase(Signature([]), ())) is not None


def test_matches_oracle_on_random_bases():
    for seed in range(40):
        base = random_base(seed, max_atoms=3, max_conds=3)
        got = tolerance_partition(base)
        expected = oracle_tolerance_partition(base)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert list(got.layers) == expected
