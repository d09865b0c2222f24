import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from systemw import (
    BeliefBase,
    Engine,
    InconsistentBeliefBaseError,
    InferenceMode,
    PreferredStructure,
    Signature,
    cli,
    parse_conditional,
    tolerance,
    tolerance_partition,
)
from systemw.cli import load_belief_base

from conftest import EXAMPLE1_TEXT, world_bits
from oracles import (
    oracle_falsifies,
    oracle_tolerance_partition,
    oracle_tolerated,
    oracle_verifies,
    random_base,
    random_consistent_base,
    random_layered_base,
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
        assert part is not None and part.layers == () and len(part.layers) - 1 == -1

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

    def test_sub_base_partition_numbers_its_own_conditionals(self, example1):
        sub = BeliefBase(example1.signature, [example1[2], example1[3]])
        part = tolerance_partition(sub)  # (b|p), (!f|p)
        assert part is not None
        assert part.layers == (frozenset({0, 1}),)
        assert [cond_strs(sub, l) for l in part.layers] == [{"(b|p)", "(!f|p)"}]

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


class TestPartitionMemo:
    """A base computes its partition once, on first use, and every engine,
    mode and command that reads it afterwards gets the stored one."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """The bases whose partition was computed, one entry per computation."""
        bases = []
        compute = tolerance._partition

        def counted(base):
            bases.append(base)
            return compute(base)

        monkeypatch.setattr(tolerance, "_partition", counted)
        return bases

    def test_engines_of_every_mode_compute_it_once(self, computed):
        base = load_belief_base(EXAMPLE1_TEXT)
        assert computed == []  # loading computes nothing
        engines = [Engine(base, mode) for mode in InferenceMode]
        ps = PreferredStructure(base)
        assert computed == [base]
        assert engines[0].preferred_structure.partition is ps.partition
        assert ps.partition is tolerance_partition(base) is base._partition
        assert computed == [base]

    @pytest.mark.parametrize("argv, bases", [
        (["check"], 1),
        (["partition"], 1),
        (["infer", "d,p", "!v", "--mode", "w"], 1),
        (["infer", "d,p", "!v", "--mode", "p"], 1),
        (["order", "--format", "tsv"], 1),
        # The base, each of its two sides, and the empty base of tv.
        (["postulates", "--mode", "z"], 4),
    ], ids=["check", "partition", "infer-w", "infer-p", "order", "postulates"])
    def test_a_command_computes_it_once_per_base(self, computed, capsys,
                                                 example1_file, argv, bases):
        cli.main([argv[0], example1_file, *argv[1:]])
        assert capsys.readouterr().err == ""
        assert len(computed) == len(set(map(id, computed))) == bases

    def test_inconsistent_base_raises_on_every_build(self, computed):
        sig = Signature(["a"])
        base = BeliefBase(
            sig, [parse_conditional("(a|top)", sig), parse_conditional("(!a|top)", sig)]
        )
        for _ in range(2):
            for mode in InferenceMode:
                with pytest.raises(InconsistentBeliefBaseError, match="inconsistent"):
                    Engine(base, mode)
            with pytest.raises(InconsistentBeliefBaseError, match="inconsistent"):
                PreferredStructure(base)
            assert tolerance_partition(base) is None
        assert computed == [base]

    def test_copies_compute_or_carry_it(self, computed):
        base = load_belief_base(EXAMPLE1_TEXT)
        want = tolerance._partition(base)
        fresh = [copy.copy(base), pickle.loads(pickle.dumps(base))]
        assert [tolerance_partition(twin) for twin in fresh] == [want] * 2
        tolerance_partition(base)
        carried = [copy.copy(base), pickle.loads(pickle.dumps(base))]
        assert [tolerance_partition(twin) for twin in carried] == [want] * 2
        assert len(computed) == 4  # `want`, the two fresh twins and `base`


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_stored_partition_matches_oracle(seed, layered):
    # Each generator keeps the first draw whose partition it read as
    # consistent, so the base holds that partition already.
    base = (random_layered_base(seed, 5, 3, 1 + seed % 3) if layered
            else random_consistent_base(seed, max_atoms=4, max_conds=4))
    stored = base._partition
    assert tolerance_partition(base) is stored
    assert list(stored.layers) == oracle_tolerance_partition(base)
