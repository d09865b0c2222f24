import pytest
from hypothesis import given, settings, strategies as st

from systemw import (
    BeliefBase,
    InconsistentBeliefBaseError,
    PreferredStructure,
    Signature,
    generate_split_base,
    parse_conditional,
)

from systemw.cli import load_belief_base
from systemw.preferred import _hasse

from conftest import chain_text, kept_beyond_init, world_bits
from oracles import (
    above_masks,
    export_edges,
    export_pairs,
    oracle_hasse,
    oracle_w_preferred,
    profile_less,
    random_consistent_base,
    random_layered_base,
    reference_class_id,
    reference_classes,
    reference_relation,
    set_bits,
    transitive_closure,
    trie_covers,
)


@pytest.fixture(scope="module")
def example1_order(example1):
    return PreferredStructure(example1)


def indices(bits):
    return {i for i in range(bits.bit_length()) if (bits >> i) & 1}


def falsified(base, w):
    return {i for i in base.indices() if (base[i].falsification_mask >> w) & 1}


def is_below(ps, w, w2):
    return bool((ps.below(w2) >> w) & 1)


class TestXiProfile:
    def test_example1_heavy_world(self, example1, example1_order):
        w = world_bits(example1.signature, "pbfvd")
        prof = example1_order.profile_bits(w)
        assert {str(example1[i]) for i in indices(prof[0])} == {"(!v|d)"}
        assert {str(example1[i]) for i in indices(prof[1])} == {"(!f|p)"}
        assert indices(prof[0] | prof[1]) == falsified(example1, w)

    def test_example1_clean_world(self, example1, example1_order):
        w = world_bits(example1.signature, "bf")
        prof = example1_order.profile_bits(w)
        assert all(not s for s in prof) and falsified(example1, w) == set()

    def test_empty_base(self):
        sig = Signature(["a"])
        base = BeliefBase(sig, ())
        prof = PreferredStructure(base).profile_bits(0)
        assert prof == () and falsified(base, 0) == set()

    def test_worlds_outside_the_signature_are_rejected(self, example1_order):
        # Example 1 has 32 worlds: -1 would read world 31's class, and 32
        # would index past the class array.
        n = example1_order.signature.num_worlds
        assert n == 32
        for w in (-1, n):
            for query in (example1_order.below, example1_order.profile_bits):
                with pytest.raises(ValueError, match=rf"^world {w} out of range 0\.\.31$"):
                    query(w)
        example1_order.profile_bits(0), example1_order.below(n - 1)  # both ends are worlds


class TestOrderOnWorlds:
    def test_clean_below_heavy(self, example1, example1_order):
        sig = example1.signature
        clean = world_bits(sig, "bf")
        heavy = world_bits(sig, "pbf")  # falsifies (!f|p), layer 1
        assert is_below(example1_order, clean, heavy)
        assert not is_below(example1_order, heavy, clean)

    def test_top_layer_dominates_lower_layer(self, example1, example1_order):
        sig = example1.signature
        # falsifies only (f|b) (layer 0)
        only_fb = world_bits(sig, "b")
        # falsifies only (b|p) (layer 1)
        only_bp = world_bits(sig, "pf")
        assert is_below(example1_order, only_fb, only_bp)
        assert not is_below(example1_order, only_bp, only_fb)


class TestBuildOrder:
    def test_minimal_worlds_are_exactly_xi_free(self, example1, example1_order):
        ps = example1_order
        sig = example1.signature
        free = 0
        for w in range(sig.num_worlds):
            if not falsified(example1, w):
                free |= 1 << w
        assert free != 0
        assert ps.minimal(sig.full_mask) == free

    def test_empty_base_empty_relation(self):
        ps = PreferredStructure(BeliefBase(Signature(["a", "b"]), ()))
        assert list(ps.pairs()) == []

    def test_single_conditional_four_world_brute_force(self):
        sig = Signature(["a", "b"])
        base = BeliefBase(sig, [parse_conditional("(b|a)", sig)])
        ps = PreferredStructure(base)
        fals = base[0].falsification_mask
        expected = {
            (w, w2)
            for w in range(4)
            for w2 in range(4)
            if (fals >> w2) & 1 and not (fals >> w) & 1
        }
        assert set(ps.pairs()) == expected

    def test_inconsistent_base_raises(self):
        sig = Signature(["a"])
        base = BeliefBase(
            sig,
            [parse_conditional("(a|top)", sig), parse_conditional("(!a|top)", sig)],
        )
        with pytest.raises(InconsistentBeliefBaseError):
            PreferredStructure(base)


class TestOrderProperties:
    def test_irreflexive(self, example1_order):
        n = example1_order.signature.num_worlds
        for w in range(n):
            assert not is_below(example1_order, w, w)

    def test_asymmetric_and_transitive(self, example1_order):
        ps = example1_order
        n = ps.signature.num_worlds
        above = above_masks(ps)
        for a in range(n):
            assert above[a] & ps.below(a) == 0
            doms = above[a]
            while doms:
                low = doms & -doms
                b = low.bit_length() - 1
                assert not is_below(ps, b, a)
                # everything above b is above a
                assert above[b] & ~above[a] == 0
                doms ^= low

    def test_equal_profile_congruence(self, example1, example1_order):
        ps = example1_order
        n = ps.signature.num_worlds
        above = above_masks(ps)
        for a in range(n):
            for b in range(n):
                if ps.profile_bits(a) == ps.profile_bits(b):
                    assert ps.below(a) == ps.below(b)
                    assert above[a] == above[b]


    def test_relation_matches_oracle_on_random_bases(self, example1):
        bases = [example1]
        bases += [random_consistent_base(500 + s, max_atoms=5, max_conds=6)
                  for s in range(30)]
        bases += [generate_split_base(3, 3, 600 + s)[0] for s in range(10)]
        for base in bases:
            worlds = range(base.signature.num_worlds)
            assert set(PreferredStructure(base).pairs()) == oracle_w_preferred(
                base, worlds
            )


class TestHasse:
    def test_chain_reduction(self):
        sig = Signature(["a", "b"])
        # (a|top) layer 0, (b|a) builds a chain among a-worlds
        base = BeliefBase(
            sig, [parse_conditional("(a|top)", sig), parse_conditional("(b|a)", sig)]
        )
        ps = PreferredStructure(base)
        closure = transitive_closure(export_edges(ps), sig.num_worlds)
        assert closure == set(ps.pairs()) == set(export_pairs(ps))

    def test_empty_relation_no_edges(self):
        ps = PreferredStructure(BeliefBase(Signature(["a"]), ()))
        assert export_edges(ps) == []

    def test_example1_closure_equals_relation(self, example1_order):
        closure = transitive_closure(
            export_edges(example1_order), example1_order.signature.num_worlds
        )
        assert closure == set(example1_order.pairs())

    def test_dot_output_shape(self, example1, example1_order):
        dot = example1_order.to_dot()
        assert dot.startswith("digraph") and dot.endswith("}")
        # arrows point from the less-preferred to the more-preferred world
        hasse = oracle_hasse(example1, range(example1.signature.num_worlds))
        for lo, hi in hasse:
            assert f"w{hi} -> w{lo};" in dot
        assert dot.count("->") == len(hasse)
        assert 'label="bpf!v!d"' in dot


def first_difference(got, want):
    """Index of the first position where two sequences differ, or None.
    Reports a mismatch between thousands of rows without a full diff."""
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return i
    return None if len(got) == len(want) else min(len(got), len(want))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_exports_sorted_and_match_oracle(seed):
    """`pairs` and the tsv rows are the oracle's pairs, sorted (and rendered);
    dot edges are the oracle's Hasse edges, sorted by the more-preferred
    world."""
    base = random_consistent_base(seed, max_atoms=7, max_conds=6)
    ps = PreferredStructure(base)
    sig = base.signature
    label = sig.render_world
    pairs = sorted(oracle_w_preferred(base, range(sig.num_worlds)))
    assert first_difference(list(ps.pairs()), pairs) is None
    rows = [f"{label(w)}\t{label(w2)}\n" for w, w2 in pairs]
    tsv = "".join(ps.to_tsv()).splitlines(keepends=True)
    assert first_difference(tsv, rows) is None
    hasse = sorted(oracle_hasse(base, range(sig.num_worlds)))
    assert first_difference(export_edges(ps), hasse) is None


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_profiles_same_before_and_after_relation(seed):
    """`profile_bits` reads the class index alone: the order of its profiles
    is the oracle's, before `below` descends a class and after, and `below`
    keeps nothing beside the class index."""
    base = random_consistent_base(seed, max_atoms=6, max_conds=6)
    ps = PreferredStructure(base)
    n = base.signature.num_worlds
    preferred = oracle_w_preferred(base, range(n))
    want = [[(w, w2) in preferred for w2 in range(n)] for w in range(n)]

    def order():
        profiles = [ps.profile_bits(w) for w in range(n)]
        return [[profile_less(p, q) for q in profiles] for p in profiles]

    before = order()
    assert kept_beyond_init(ps) == {"class_index"}
    ps.below(0)
    assert kept_beyond_init(ps) == {"class_index"}  # no list of masks
    assert before == want and order() == want


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dot_edges_match_oracle(seed, vars_per_part):
    """The dot edges are the transitive reduction of the oracle's order, on
    bases of two or more layers and on generated split bases."""
    bases = [random_layered_base(seed, max_atoms=7, max_conds=4, min_layers=2),
             generate_split_base(vars_per_part, 3, seed)[0]]
    for base in bases:
        worlds = range(base.signature.num_worlds)
        edges = export_edges(PreferredStructure(base))
        assert len(edges) == len(set(edges))
        assert set(edges) == oracle_hasse(base, worlds)


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_classes_come_after_the_classes_below(seed, vars_per_part):
    """Every world below a class's worlds lies in a class listed before it,
    on bases of two or more layers and on generated split bases: the class
    index is a linear extension of the order, which the covers rely on."""
    bases = [random_layered_base(seed, max_atoms=7, max_conds=4, min_layers=2),
             generate_split_base(vars_per_part, 3, seed)[0]]
    for base in bases:
        ps = PreferredStructure(base)
        class_of, _, members = ps.class_index
        for c, worlds in enumerate(members):
            assert all(class_of[w2] < c for w2 in set_bits(ps.below(worlds[0])))


def small_bases(seed, vars_per_part):
    """A random, a layered and a generated split base of up to 8 atoms."""
    return [random_consistent_base(seed, max_atoms=8, max_conds=6),
            random_layered_base(seed, max_atoms=8, max_conds=4, min_layers=2),
            generate_split_base(vars_per_part, 3, seed)[0]]


@given(st.integers(0, 10**6), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_descent_halves_are_transposes(seed, vars_per_part):
    """The above masks the descent yields are exactly the transpose of its
    below masks, on random, layered and generated split bases of up to 8
    atoms; the exports keep nothing beside the class index."""
    for base in small_bases(seed, vars_per_part):
        ps = PreferredStructure(base)
        ps.to_dot(), list(ps.to_tsv()), list(ps.pairs())
        assert kept_beyond_init(ps) == {"class_index"}
        down, up = zip(*ps._descent())
        assert list(up) == [sum(1 << c for c, below in enumerate(down) if below >> d & 1)
                            for d in range(len(down))]


@given(st.integers(0, 10**6), st.integers(1, 4), st.lists(st.integers(0, 63), max_size=12))
@settings(max_examples=40, deadline=None)
def test_descent_of_chosen_classes(seed, vars_per_part, picks):
    """The descent of a list of classes, repeats and the empty list
    included, yields exactly the full descent's pairs for those classes, in
    the order of the list, on random, layered and generated split bases of
    up to 8 atoms."""
    for base in small_bases(seed, vars_per_part):
        ps = PreferredStructure(base)
        full = list(ps._descent())
        classes = [p % len(full) for p in picks]
        assert list(ps._descent(classes)) == [full[c] for c in classes]


TRIE_BASES = (
    [pytest.param(chain_text(n), id=f"chain{n}") for n in (13, 14)]
    + [pytest.param(s, id=f"split6x6-{s}") for s in range(6)]
)


@pytest.mark.parametrize("spec", TRIE_BASES)
def test_covers_match_trie(spec):
    """The covers from the descent over classes equal the trie walk's, on
    bases too large for the comparison of every pair of classes; four of the
    split bases have one layer, where the trie compares the most siblings."""
    if isinstance(spec, str):
        base = load_belief_base(spec)
    else:
        base = generate_split_base(6, 6, spec)[0]
    ps = PreferredStructure(base)
    covers = _hasse([above for _, above in ps._descent()])
    assert [sum(1 << w for w in ps._worlds(m)) for m in covers] == trie_covers(ps)


REFERENCE_BASES = (
    [pytest.param(chain_text(n), id=f"chain{n}") for n in range(8, 13)]
    + [pytest.param(("split", s), id=f"split5x5-{s}") for s in range(3)]
    + [pytest.param(("layered", s), id=f"layers3-{s}") for s in range(6)]
    + [pytest.param("signature:\n(top|top)\n", id="zero-atoms")]
)


@pytest.mark.parametrize("spec", REFERENCE_BASES)
def test_relation_matches_pairwise_reference(spec):
    """The one-pass class index equals the class list split by one
    conditional at a time, and `below`, the tsv and the dot export equal the
    comparison of every pair of its classes."""
    if isinstance(spec, str):
        base = load_belief_base(spec)
    elif spec[0] == "split":
        base = generate_split_base(5, 5, 300 + spec[1])[0]
    else:
        base = random_layered_base(400 + spec[1], max_atoms=7, max_conds=5,
                                   min_layers=3)
    ps = PreferredStructure(base)
    class_of, _, members = ps.class_index
    assert [(ps.profile_bits(worlds[0]), sum(1 << w for w in worlds))
            for worlds in members] == reference_classes(ps)
    class_id = reference_class_id(ps)
    assert list(class_of) == class_id
    down_w, up_w, cover_w = reference_relation(ps)
    worlds = range(base.signature.num_worlds)
    assert [ps.below(w) for w in worlds] == [down_w[class_id[w]] for w in worlds]
    assert above_masks(ps) == [up_w[class_id[w]] for w in worlds]
    covers = [set_bits(m) for m in cover_w]
    assert export_edges(ps) == [(w, w2) for w in worlds for w2 in covers[class_id[w]]]
