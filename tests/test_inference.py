import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import systemw
from systemw import (
    BeliefBase,
    Conditional,
    Engine,
    InconsistentBeliefBaseError,
    InferenceMode,
    Signature,
    parse_conditional,
    parse_formula,
)

from systemw.cli import load_belief_base
from systemw.inference import _p_consequence
from systemw.splitting import PartScope
from systemw.tolerance import _partition_pairs

from conftest import chain_queries, chain_text
from oracles import (
    ReferenceEngine,
    assignment_of_bits,
    conjoin,
    oracle_falsifies,
    oracle_tolerance_partition,
    oracle_w_entails,
    oracle_w_preferred,
    oracle_z_entails,
    random_consistent_base,
    random_layered_base,
    random_node,
    tree_formula,
)


def fm(base, text):
    return parse_formula(text, base.signature)


class TestExample1:
    def test_system_w_licences_dp_notv(self, example1):
        engine = Engine(example1, InferenceMode.W)
        assert engine.entails(fm(example1, "d,p"), fm(example1, "!v"))

    def test_system_z_rejects_dp_notv(self, example1):
        engine = Engine(example1, InferenceMode.Z)
        assert not engine.entails(fm(example1, "d,p"), fm(example1, "!v"))

    def test_p_entailment_rejects_dp_notv(self, example1):
        engine = Engine(example1, InferenceMode.P)
        assert not engine.entails(fm(example1, "d,p"), fm(example1, "!v"))

    def test_direct_inference_d_notv_all_modes(self, example1):
        for mode in InferenceMode:
            assert Engine(example1, mode).entails(fm(example1, "d"), fm(example1, "!v"))

    def test_z_baseline_b_f(self, example1):
        a, b = fm(example1, "b"), fm(example1, "f")
        assert Engine(example1, InferenceMode.Z).entails(a, b)
        assert oracle_z_entails(example1, a, b)


class TestVacuity:
    def test_unsatisfiable_antecedent_all_modes(self, example1):
        bot = fm(example1, "bot")
        for mode in InferenceMode:
            engine = Engine(example1, mode)
            assert engine.entails(bot, fm(example1, "v"))
            assert engine.entails(fm(example1, "p,!p"), fm(example1, "bot"))


class TestEmptyBase:
    def test_p_is_classical_entailment(self):
        sig = Signature(["a", "b"])
        base = BeliefBase(sig, ())
        engine = Engine(base, InferenceMode.P)
        assert engine.entails(parse_formula("a", sig), parse_formula("a", sig))
        assert engine.entails(parse_formula("a,b", sig), parse_formula("b", sig))
        assert not engine.entails(parse_formula("a", sig), parse_formula("b", sig))

    def test_all_modes_reduce_to_subset(self):
        sig = Signature(["a", "b"])
        base = BeliefBase(sig, ())
        full = sig.full_mask
        for mode in InferenceMode:
            engine = Engine(base, mode)
            for a in range(full + 1):
                for b in range(full + 1):
                    assert engine.entails_masks(a, b) == (a & ~b & full == 0)


class TestSemanticInvariance:
    def test_equivalent_rewrites_do_not_change_answers(self, example1):
        pairs = [
            ("d,p", "!(!d;!p)"),
            ("!v", "!v;bot"),
            ("b", "b,top"),
        ]
        for mode in InferenceMode:
            engine = Engine(example1, mode)
            for orig, rewritten in pairs:
                a1 = fm(example1, orig)
                a2 = fm(example1, rewritten)
                assert a1.mask == a2.mask
                for b_text in ["!v", "f", "b;d"]:
                    b = fm(example1, b_text)
                    assert engine.entails(a1, b) == engine.entails(a2, b)


class TestModeHierarchy:
    def test_z_implies_w_and_p_implies_z_small_random(self):
        for seed in range(15):
            base = random_consistent_base(seed, max_atoms=2, max_conds=3)
            sig = base.signature
            engines = {m: Engine(base, m) for m in InferenceMode}
            full = sig.full_mask
            for a in range(full + 1):
                for b in range(full + 1):
                    p = engines[InferenceMode.P].entails_masks(a, b)
                    z = engines[InferenceMode.Z].entails_masks(a, b)
                    w = engines[InferenceMode.W].entails_masks(a, b)
                    assert not (p and not z)
                    assert not (z and not w)

    def test_direct_inference_all_modes(self, example1):
        for mode in InferenceMode:
            engine = Engine(example1, mode)
            for c in example1:
                assert engine.entails(c.antecedent, c.consequent)


class TestDrowningRegression:
    # Non-normative golden case: properties of exceptional subclasses must not
    # drown unrelated properties. Penguins are exceptional birds w.r.t. flying;
    # system W still grants them wings, system Z does not.
    def test_penguins_keep_wings_under_w_but_not_z(self):
        sig = Signature(["b", "p", "f", "w"])
        base = BeliefBase(
            sig,
            [
                parse_conditional(t, sig)
                for t in ["(f|b)", "(b|p)", "(!f|p)", "(w|b)"]
            ],
        )
        a, c = parse_formula("p", sig), parse_formula("w", sig)
        assert Engine(base, InferenceMode.W).entails(a, c)
        assert not Engine(base, InferenceMode.Z).entails(a, c)


class TestLargeSignatures:
    # Query masks with thousands of models and signatures above 2^14 worlds
    # are answered by the layer descent like any other.
    def test_twelve_atom_tautology_in_w(self):
        base = load_belief_base(chain_text(12))
        engine = Engine(base, InferenceMode.W)
        assert engine.entails(fm(base, "top"), fm(base, "a1;!a1"))

    def test_fifteen_atom_chain_in_w(self):
        base = load_belief_base(chain_text(15))
        a = fm(base, ",".join(f"a{i}" for i in range(8)))
        # The a8-less world that breaks only (a8|a7) is minimal among the
        # a0..a7 worlds, so the inference does not hold.
        assert not Engine(base, InferenceMode.W).entails(a, fm(base, "a8"))
        assert Engine(base, InferenceMode.W).entails(a, fm(base, "a1"))


# Answers chain_queries(n) under an address-space limit, in a fresh process,
# and prints them as JSON.
_CHAIN_CHILD = """
import json, resource, sys
limit, n = int(sys.argv[1]), int(sys.argv[2])
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from conftest import chain_queries, chain_text
from systemw import Engine, InferenceMode, parse_formula
from systemw.cli import load_belief_base
base = load_belief_base(chain_text(n))
engine = Engine(base, InferenceMode.W)
sig = base.signature
print(json.dumps([engine.entails(parse_formula(a, sig), parse_formula(b, sig))
                  for a, b, _ in chain_queries(n)]))
"""


class TestChainFrontier:
    """The W chain from 20 atoms, where a class list needs gigabytes."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_pattern_matches_oracle(self, n):
        base = load_belief_base(chain_text(n))
        engine = Engine(base, InferenceMode.W)
        for a, b, want in chain_queries(n):
            a, b = fm(base, a), fm(base, b)
            assert oracle_w_entails(base, a, b) == want
            assert engine.entails(a, b) == want

    @pytest.mark.parametrize("n", [20, 22, 24])
    def test_answers_within_one_gigabyte(self, n):
        env = dict(os.environ)
        paths = [str(Path(__file__).parent), str(Path(systemw.__file__).parents[1])]
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", _CHAIN_CHILD, str(1 << 30), str(n)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [want for _, _, want in chain_queries(n)]


def test_inconsistent_base_raises(example1):
    sig = Signature(["a"])
    base = BeliefBase(
        sig, [parse_conditional("(a|top)", sig), parse_conditional("(!a|top)", sig)]
    )
    for mode in InferenceMode:
        with pytest.raises(InconsistentBeliefBaseError):
            Engine(base, mode)


def test_z_matches_oracle_on_random_bases():
    for seed in range(10):
        base = random_consistent_base(seed + 100, max_atoms=3, max_conds=3)
        rng = random.Random(seed)
        engine = Engine(base, InferenceMode.Z)
        full = base.signature.full_mask
        scope = PartScope(base.signature, base.signature.atoms)
        for _ in range(15):
            ta, tb = rng.randrange(full + 1), rng.randrange(full + 1)
            a, b = scope.formula(ta), scope.formula(tb)
            assert engine.entails(a, b) == oracle_z_entails(base, a, b)


def random_queries(base, seed):
    """Query pairs on a base: two random formulas, one conditional of the
    base, that conditional with a strengthened antecedent, and three probes
    of whether a world is minimal in a set A of worlds that falsify some
    conditional (A against A without that world)."""
    rng = random.Random(seed)
    sig = base.signature

    def formula():
        return tree_formula(sig, random_node(rng, sig.atoms, 3))

    queries = [(formula(), formula())]
    if len(base):
        c = base[rng.choice(list(base.indices()))]
        queries.append((c.antecedent, c.consequent))
        queries.append((conjoin(c.antecedent, formula()), c.consequent))
    scope = PartScope(sig, sig.atoms)
    fals = 0
    for c in base:
        fals |= c.falsification_mask
    pool = [w for w in range(sig.num_worlds) if (fals >> w) & 1] or [0]
    for _ in range(3):
        worlds = rng.sample(pool, min(len(pool), rng.randint(2, 12)))
        a = sum(1 << w for w in worlds)
        b = a & ~(1 << rng.choice(worlds))
        queries.append((scope.formula(a), scope.formula(b)))
    return queries


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_w_matches_oracle_on_random_bases(base_seed, query_seed):
    base = random_consistent_base(base_seed, max_atoms=8, max_conds=6)
    engine = Engine(base, InferenceMode.W)
    for a, b in random_queries(base, query_seed):
        assert engine.entails(a, b) == oracle_w_entails(base, a, b)


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans(),
       st.sampled_from(InferenceMode), st.data())
@settings(max_examples=90, deadline=None)
def test_consequence_matches_reference(base_seed, query_seed, layered, mode, data):
    """C(A) is the least mask that the per-mode code `consequence` replaced
    entails from A, and every answer matches that code's, with bits above
    `full` in A and B too. A repeated antecedent reads the cache and gets a
    fresh engine's C(A). Z answers without building the profile classes.
    The antecedents include each conditional's falsifying worlds, all of
    one rank or more in Z."""
    if layered:
        base = random_layered_base(base_seed, max_atoms=8, max_conds=4, min_layers=2)
    else:
        base = random_consistent_base(base_seed, max_atoms=8, max_conds=6)
    full = base.signature.full_mask
    reference = ReferenceEngine(base, mode)
    engine = Engine(base, mode)
    masks = st.integers(0, (full << 2) | 3)
    queries = [(a.mask, b.mask) for a, b in random_queries(base, query_seed)]
    antecedents = [0] + [a for a, _ in queries] + [c.falsification_mask for c in base]
    antecedents += data.draw(st.lists(masks, max_size=2))
    antecedents.append(antecedents[-1] ^ (full + 1))  # the same A, other high bits
    consequents = [b for _, b in queries] + data.draw(st.lists(masks, max_size=3))
    for a in antecedents:
        c = engine.consequence(a)
        assert c & ~(a & full) == 0
        assert reference.entails_masks(a, c)
        for w in range(full.bit_length()):
            if (c >> w) & 1:
                assert not reference.entails_masks(a, c & ~(1 << w))
        for b in consequents + [0, full, c | ~full]:
            assert engine.entails_masks(a, b) == reference.entails_masks(a, b)
        assert engine.consequence(a) == Engine(base, mode).consequence(a)
    assert engine.consequence(0) == 0
    assert len(engine._consequences) == len({a & full for a in antecedents})
    if mode is InferenceMode.Z:
        assert "classes" not in vars(engine.preferred_structure)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_z_implies_w_on_random_bases(base_seed, query_seed):
    base = random_consistent_base(base_seed, max_atoms=8, max_conds=6)
    z = Engine(base, InferenceMode.Z)
    w = Engine(base, InferenceMode.W)
    for a, b in random_queries(base, query_seed):
        assert not z.entails(a, b) or w.entails(a, b)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_p_matches_partition_of_extended_base(base_seed, query_seed):
    """P answers `A |~ B` iff the base extended with (!B|A) has no tolerance
    partition, by the brute-force partition of the oracle."""
    base = random_consistent_base(base_seed, max_atoms=6, max_conds=6)
    engine = Engine(base, InferenceMode.P)
    sig = base.signature
    full = sig.full_mask
    scope = PartScope(sig, sig.atoms)
    rng = random.Random(query_seed)
    queries = [(rng.randrange(full + 1), rng.randrange(full + 1)) for _ in range(8)]
    queries += [(c.antecedent.mask, c.consequent.mask) for c in base]
    for a, b in queries:
        negated = Conditional(scope.formula(a), scope.formula(full & ~b))
        extended = BeliefBase(sig, base.conditionals + (negated,))
        want = oracle_tolerance_partition(extended) is None
        assert engine.entails_masks(a, b) == want


def test_p_stops_once_a_misses_the_remaining_falsifications():
    """With A = a,b never safe, stage 0 tolerates (!b|c) by world !a!bc and
    the loop then gets stuck on (b|a), whose verifying worlds all lie in A.
    A meets the falsifying worlds of (!b|c) but not those of (b|a), so P
    stops at stage 1 with C(A) = A."""
    base = load_belief_base("signature: a, b, c\n(b|a)\n(!b|c)\n")
    a = fm(base, "a,b").mask
    pairs = [(c.verification_mask, c.falsification_mask) for c in base]
    full = base.signature.full_mask
    assert _partition_pairs(pairs, full & ~a) == ([[1]], [0])
    assert a & base[1].falsification_mask and not a & base[0].falsification_mask
    reads = []

    class Verification(int):
        def __and__(self, other):
            reads.append(other)
            return int(self) & other

    # Stage 1 would read the verification mask of (b|a) a second time.
    stuck = [(Verification(pairs[0][0]), pairs[0][1]), pairs[1]]
    assert _p_consequence(stuck, full, a) == a and len(reads) == 1
    engine = Engine(base, InferenceMode.P)
    reference = ReferenceEngine(base, InferenceMode.P)
    assert engine.consequence(a) == a
    for b in range(full + 1):
        assert engine.entails_masks(a, b) == reference.entails_masks(a, b)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_w_queries_leave_the_class_list_unbuilt(base_seed, query_seed):
    """A W build and its queries never build the profile classes; the profile
    and relation queries build them on first use and match the definition."""
    base = random_consistent_base(base_seed, max_atoms=8, max_conds=6)
    engine = Engine(base, InferenceMode.W)
    ps = engine.preferred_structure
    for a, b in random_queries(base, query_seed):
        engine.entails(a, b)
    assert "classes" not in vars(ps)
    sig = base.signature
    layers = oracle_tolerance_partition(base)
    worlds = random.Random(query_seed).sample(range(sig.num_worlds),
                                              min(sig.num_worlds, 6))
    for w in worlds:
        asg = assignment_of_bits(sig, w)
        assert ps.profile_bits(w) == tuple(
            sum(1 << i for i in layer if oracle_falsifies(base[i], asg))
            for layer in layers
        )
    assert "classes" in vars(ps)
    below = {w: 0 for w in worlds}
    for w, w2 in oracle_w_preferred(base, range(sig.num_worlds)):
        if w2 in below:
            below[w2] |= 1 << w
    for w in worlds:
        assert ps.below(w) == below[w]
