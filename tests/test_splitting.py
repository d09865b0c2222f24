import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from systemw import (
    BeliefBase,
    Engine,
    InferenceMode,
    Signature,
    SignatureError,
    check_di,
    check_ind,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_rel,
    check_synsplit,
    check_tv,
    detect_splitting,
    generate_split_base,
    parse_conditional,
    parse_formula,
    tolerance_partition,
)
from systemw import splitting
from systemw.preferred import PreferredStructure
from systemw.splitting import (
    MAX_SCOPE_BITS,
    PartScope,
    SyntaxSplitting,
)
from systemw.tolerance import TolerancePartition

from oracles import (
    atoms_of,
    components,
    conjoin,
    node_mask,
    random_base,
    random_consistent_base,
    reference_check_lemma1,
    reference_generate_split_base,
    set_bits,
)


def cond_strs(base, idxs):
    return {str(base[i]) for i in idxs}


def base_of(atoms, *texts):
    sig = Signature(atoms)
    return BeliefBase(sig, [parse_conditional(t, sig) for t in texts])


class TestDetectSplitting:
    def test_example1(self, example1):
        spl = detect_splitting(example1)
        assert spl.parts == (("b", "p", "f"), ("v", "d"))
        assert cond_strs(example1, spl.conditional_parts[0]) == {
            "(f|b)", "(b|p)", "(!f|p)"
        }
        assert cond_strs(example1, spl.conditional_parts[1]) == {"(!v|d)"}

    def test_empty_base_singleton_parts(self):
        base = BeliefBase(Signature(["a", "b"]), ())
        spl = detect_splitting(base)
        assert spl.parts == (("a",), ("b",))
        assert all(not s for s in spl.conditional_parts)

    def test_entangling_conditional_single_part(self):
        sig = Signature(["a", "b", "c"])
        base = BeliefBase(sig, [parse_conditional("(a,b|c)", sig)])
        spl = detect_splitting(base)
        assert spl.parts == (("a", "b", "c"),)

    def test_finest_splitting(self, example1):
        # merging the two parts is a splitting too; the detected one is finer
        spl = detect_splitting(example1)
        merged = SyntaxSplitting(example1, (example1.signature.atoms,))
        assert merged.conditional_parts == (frozenset(example1.indices()),)
        assert len(spl.parts) == 2

    @pytest.mark.parametrize("texts", [(), ("(top|top)",)])
    def test_zero_atoms_one_empty_part(self, texts):
        base = base_of((), *texts)
        spl = detect_splitting(base)
        assert spl.parts == ((),)
        assert spl.conditional_parts == (frozenset(base.indices()),)
        assert spl.views == ()
        assert (spl.parts, spl.conditional_parts) == components(base)

    @pytest.mark.parametrize("atoms, texts", [
        (("a", "b", "c"), ("(top|top)", "(b|a)")),
        (("a",), ("(top|top)", "(bot|!top)")),
        (("a", "x", "b", "y", "c"), ("(b|a)", "(y|x)", "(top|top)")),
        (("a", "b", "c", "d"), ("(d|d)",)),
        (("a", "b", "c", "d"), ("(b|d)", "(a|c)", "(c|b)")),
    ], ids=["atom-free", "only-atom-free", "unused-atom", "unused-atoms", "chained"])
    def test_edge_bases_match_the_union_find(self, atoms, texts):
        base = base_of(atoms, *texts)
        spl = detect_splitting(base)
        assert (spl.parts, spl.conditional_parts) == components(base)

    def test_random_bases_match_the_union_find(self):
        for seed in range(2000):
            base = random_base(seed, 8, 1 + seed % 5)
            spl = detect_splitting(base)
            assert (spl.parts, spl.conditional_parts) == components(base), seed


class TestConstruction:
    @pytest.mark.parametrize("parts, message", [
        ((("b", "p", "f"), ("f", "v", "d")), "splitting parts overlap"),
        ((("b", "p", "f"), ("v",)), "splitting parts do not cover the signature"),
        ((("b", "p", "f"), ("v", "d", "x")), "splitting parts do not cover the signature"),
        ((("b", "p"), ("f", "v", "d")), r"conditional \(f\|b\) uses atoms outside its part"),
    ], ids=["overlap", "missing", "foreign", "spanning"])
    def test_rejects_what_is_not_a_splitting(self, example1, parts, message):
        with pytest.raises(ValueError, match=message):
            SyntaxSplitting(example1, parts)

    def test_conditional_parts_match_detection(self, example1):
        spl = SyntaxSplitting(example1, (("b", "p", "f"), ("v", "d")))
        assert spl.conditional_parts == (frozenset({0, 2, 3}), frozenset({1}))
        assert spl.conditional_parts == detect_splitting(example1).conditional_parts

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_parts_follow_the_draw_order(self, seed):
        # The generator draws each part's conditionals in turn.
        _, spl = generate_split_base(2, 3, seed)
        assert spl.parts == (("a", "b"), ("c", "d"))
        assert spl.conditional_parts == (frozenset(range(3)), frozenset(range(3, 6)))

    def test_atom_free_conditional_goes_to_the_first_part(self):
        base = base_of(("a", "b"), "(b|b)", "(top|top)", "(a|a)")
        spl = SyntaxSplitting(base, (("a",), ("b",)))
        assert spl.conditional_parts == (frozenset({1, 2}), frozenset({0}))
        assert detect_splitting(base).conditional_parts == spl.conditional_parts


class TestPartScope:
    def test_lift_and_formula_agree(self, example1):
        scope = PartScope(example1.signature, ("v", "d"))
        for t in range(scope.full_sub + 1):
            assert scope.formula(t).mask == scope.lift(t)

    def test_formula_text_parses_back(self, example1):
        scope = PartScope(example1.signature, ("b", "f"))
        for t in range(scope.full_sub + 1):
            f = parse_formula(str(scope.formula(t)), example1.signature)
            assert f.mask == scope.lift(t)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_masks_match_per_world_marginals(self, data):
        n = data.draw(st.integers(0, 8))
        sig = Signature([f"x{i}" for i in range(n)])
        atoms = data.draw(st.permutations(sig.atoms))
        atoms = atoms[:data.draw(st.integers(0, n))]
        scope = PartScope(sig, atoms)
        marginal = [
            sum(((w >> sig.index(a)) & 1) << j for j, a in enumerate(atoms))
            for w in range(sig.num_worlds)
        ]
        for s in range(len(scope.group_masks)):
            expected = sum(1 << w for w in range(sig.num_worlds) if marginal[w] == s)
            assert scope.group_masks[s] == expected
        for t in data.draw(st.lists(st.integers(0, scope.full_sub), max_size=8)):
            # Recompute the mask from the tree instead of trusting formula(t).
            f = scope.formula(t)
            assert node_mask(f.ast, sig) == f.mask == scope.lift(t)
            assert f.atoms() == atoms_of(f.ast)

    def test_atom_outside_signature_rejected(self, example1):
        with pytest.raises(SignatureError):
            PartScope(example1.signature, ("v", "x"))

    def test_size_limit(self):
        sig = Signature([f"x{i}" for i in range(20)])
        fits = MAX_SCOPE_BITS - sig.num_atoms
        scope = PartScope(sig, sig.atoms[:fits])
        assert len(scope.group_masks) == 1 << fits
        assert scope.lift(scope.full_sub) == sig.full_mask
        with pytest.raises(ValueError, match=f"limit of {MAX_SCOPE_BITS}"):
            PartScope(sig, sig.atoms[:fits + 1])


@pytest.mark.parametrize("seed", range(3))
def test_rel_and_ind_lift_each_drawn_value_once(seed, monkeypatch):
    # 3-atom parts are sampled at the default bound: a few draws per side
    # keep the runs short. Each draw is lifted once, as it is drawn, and
    # never again in the loops over pairs.
    monkeypatch.setattr(splitting, "SAMPLES", 6)
    lifted = []
    lift = PartScope.lift

    def counted(self, t):
        lifted.append(t)
        return lift(self, t)

    monkeypatch.setattr(PartScope, "lift", counted)
    _, spl = generate_split_base(3, 3, seed)
    for check, sides in ((check_rel, 2), (check_ind, 4)):
        lifted.clear()
        assert check(spl, InferenceMode.W).passed
        rng = random.Random(0)
        assert lifted == [rng.randrange(256) for _ in range(6 * sides)]


class TestPostulatesOnExample1:
    def test_rel_holds_for_w(self, example1):
        spl = detect_splitting(example1)
        assert check_rel(spl, InferenceMode.W).passed

    def test_ind_holds_for_w(self, example1):
        spl = detect_splitting(example1)
        assert check_ind(spl, InferenceMode.W).passed

    def test_synsplit_holds_for_w(self, example1):
        spl = detect_splitting(example1)
        assert check_synsplit(spl, InferenceMode.W).passed

    @pytest.mark.parametrize("mode", [InferenceMode.Z, InferenceMode.P])
    def test_ind_fails_for_baselines_with_replayable_witness(self, example1, mode):
        spl = detect_splitting(example1)
        report = check_ind(spl, mode)
        assert not report.passed and report.witness
        sig = example1.signature
        a = parse_formula(report.witness["A"], sig)
        b = parse_formula(report.witness["B"], sig)
        d = parse_formula(report.witness["D"], sig)
        assert d.satisfiable()
        engine = Engine(example1, mode)
        assert engine.entails(a, b) != engine.entails(conjoin(a, d), b)

    @pytest.mark.parametrize("mode", [InferenceMode.Z, InferenceMode.P])
    def test_synsplit_fails_for_baselines(self, example1, mode):
        spl = detect_splitting(example1)
        report = check_synsplit(spl, mode)
        assert not report.passed
        assert report.witness["failing_postulate"] in ("rel", "ind")

    def test_canonical_witness_is_a_violation(self, example1):
        # the textbook witness: A=d, B=!v, D=p under Z and P
        sig = example1.signature
        a, b, d = (parse_formula(t, sig) for t in ("d", "!v", "p"))
        for mode in (InferenceMode.Z, InferenceMode.P):
            engine = Engine(example1, mode)
            assert engine.entails(a, b) and not engine.entails(conjoin(a, d), b)


class TestLemmas:
    def test_all_lemmas_example1(self, example1):
        spl = detect_splitting(example1)
        for check in (check_lemma1, check_lemma2, check_lemma3, check_lemma4):
            report = check(spl)
            assert report.passed, report.line()

    def test_lemma1_sub_partitions_example1(self, example1):
        spl = detect_splitting(example1)
        ps1, ps2 = (spl.structure(idxs) for idxs in spl.conditional_parts)
        assert [cond_strs(ps1.base, l) for l in ps1.partition.layers] == [
            {"(f|b)"}, {"(b|p)", "(!f|p)"}
        ]
        assert [cond_strs(ps2.base, l) for l in ps2.partition.layers] == [{"(!v|d)"}]

    def test_lemma1_witness_names_base_indices(self, example1, monkeypatch):
        # A side whose layers come back reversed breaks claim 1 at layer 0.
        # The side's sub-base numbers (f|b), (b|p), (!f|p) as 0, 1, 2; the
        # witness names them by their indices in the base.
        structure = SyntaxSplitting.structure

        def reversed_sides(self, indices=None):
            ps = structure(self, indices)
            if indices is None or len(ps.partition.layers) - 1 < 1:
                return ps
            fresh = PreferredStructure(ps.base)
            fresh.partition = TolerancePartition(tuple(reversed(ps.partition.layers)))
            return fresh

        monkeypatch.setattr(SyntaxSplitting, "structure", reversed_sides)
        assert check_lemma1(detect_splitting(example1)).line() == (
            "lemma1: FAIL [partition comparison] witness: "
            "claim=1 layer=0 sub=[2, 3] expected=[0]")

    def test_every_mode_of_a_side_reads_one_sub_base(self, example1):
        # Z and P first: the W engine that lemma 1 reads comes last, and
        # finds the sub-base and the partition they stored.
        spl = detect_splitting(example1)
        sides = (None, *spl.conditional_parts)
        for idxs in sides:
            z, p, w = (spl.engine(InferenceMode(m), idxs) for m in "zpw")
            assert z.base is p.base is w.base is spl.structure(idxs).base
            assert w.preferred_structure.partition is tolerance_partition(p.base)
        assert spl.engine(InferenceMode.P).base is example1
        assert [len(spl.engine(InferenceMode.Z, i).base) for i in sides] == [4, 3, 1]
        assert check_lemma1(spl) == reference_check_lemma1(spl)
        assert check_lemma1(spl).passed

    def test_lemma1_empty_side(self):
        # one side of the splitting carries no conditionals: l2 = -1, k = l1
        sig = Signature(["a", "b"])
        base = BeliefBase(sig, [parse_conditional("(a|top)", sig)])
        spl = SyntaxSplitting(base, (("a",), ("b",)))
        assert spl.conditional_parts == (frozenset({0}), frozenset())
        assert check_lemma1(spl).passed

    def test_lemmas_on_generated_bases(self):
        for seed in range(10):
            _, spl = generate_split_base(2, 2, seed)
            for check in (check_lemma1, check_lemma2, check_lemma3, check_lemma4):
                report = check(spl)
                assert report.passed, f"seed={seed}: {report.line()}"

    @pytest.mark.parametrize("seed", range(12))
    def test_classes_are_pairs_of_side_classes(self, seed):
        # The premises of asking lemmas 2-4 once per class: each class of
        # the base lies within one class of each side; each group of a
        # side's part lies within one class of that side; and so each class
        # of a side meets every group of the other part.
        if seed % 2:
            _, spl = generate_split_base(1 + seed % 3, 1 + seed // 3 % 3, seed)
        else:
            spl = detect_splitting(random_consistent_base(seed, 6, 4))
        members = spl.structure().class_index[2]
        for view in spl.views:
            for (atoms, idxs), (other, _) in (view, view[::-1]):
                side_of, _, side_members = spl.structure(idxs).class_index
                assert all(len({side_of[w] for w in ws}) == 1 for ws in members)
                groups = spl.scope(atoms).group_masks
                assert all(len({side_of[w] for w in set_bits(g)}) == 1 for g in groups)
                classes = [sum(1 << w for w in ws) for ws in side_members]
                assert all(m & g for m in classes for g in spl.scope(other).group_masks)

    def test_lemmas_descend_once_per_structure_and_never_ask_below(self, monkeypatch):
        descents, asked = [], []
        descent, below = PreferredStructure._descent, PreferredStructure.below

        def counted_descent(self, classes=None):
            descents.append(self)  # a descent counts once it is read
            yield from descent(self, classes)

        def counted_below(self, w):
            asked.append(w)
            return below(self, w)

        monkeypatch.setattr(PreferredStructure, "_descent", counted_descent)
        monkeypatch.setattr(PreferredStructure, "below", counted_below)
        sig = Signature(list("abcdef"))
        three = detect_splitting(BeliefBase(sig, [parse_conditional(text, sig)
                                                  for text in ("(b|a)", "(d|c)", "(f|e)")]))
        assert len(three.views) == 3
        for spl in (generate_split_base(3, 2, 5)[1], three):
            base = spl.structure()
            sides = [spl.structure(idxs) for view in spl.views for _, idxs in view]
            # Lemmas 2 and 3 each descend every view's sides and then the
            # base once, for all views; lemma 4 finds no group of a side's
            # part in two of its classes.
            for check, want in ((check_lemma2, sides + [base]), (check_lemma3, sides + [base]),
                                (check_lemma4, [])):
                descents.clear()
                assert check(spl).passed
                assert descents == want, check.__name__
        assert asked == []
        # A base of one part has no view to compare: nothing is built.
        sig = Signature(["a", "b"])
        spl = detect_splitting(BeliefBase(sig, [parse_conditional("(b|a)", sig)]))
        assert spl.views == ()
        descents.clear()
        for check in (check_lemma2, check_lemma3, check_lemma4):
            assert check(spl).passed
        assert descents == [] and "class_index" not in vars(spl.structure())

    @pytest.mark.parametrize("seed", [0, 1])  # 10,712 and 9,476 classes
    def test_lemmas_2_and_3_hold_no_class_relation(self, seed):
        # Lemmas 2 and 3 read the base's below masks as the descent yields
        # them: with the class indexes built, their peak stays under half of
        # what those masks take together.
        _, spl = generate_split_base(8, 8, seed)
        ps = spl.structure()
        for structure in [ps] + [spl.structure(idxs) for _, idxs in spl.views[0]]:
            structure.class_index
        masks = sum(sys.getsizeof(below) for below, _ in ps._descent())
        tracemalloc.start()
        try:
            assert check_lemma2(spl).passed and check_lemma3(spl).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < masks / 2, (peak, masks)


class TestDiTv:
    def test_di_example1_all_modes(self, example1):
        for mode in InferenceMode:
            assert check_di(Engine(example1, mode)).passed

    def test_di_on_every_side_engine(self, example1):
        # A side's engine answers for the side's sub-base alone: its base
        # holds exactly the side's conditionals, each inferable from it.
        splittings = [detect_splitting(example1)]
        splittings += [generate_split_base(1 + seed % 2, 2 + seed % 2, seed)[1]
                       for seed in range(100)]
        for spl in splittings:
            for idxs in spl.conditional_parts:
                side = tuple(spl.base[i] for i in sorted(idxs))
                for mode in InferenceMode:
                    engine = spl.engine(mode, idxs)
                    assert engine.base.conditionals == side
                    report = check_di(engine)
                    assert report.passed, report.line()

    def test_tv_all_modes(self):
        for mode in InferenceMode:
            assert check_tv(mode).passed

    @pytest.mark.parametrize("mode", list(InferenceMode))
    def test_tv_asks_each_formula_once(self, monkeypatch, mode):
        # (TV) is C(A) = A: one consequence per formula over 3 atoms decides
        # all 65,536 pairs, and no pair is asked as a query.
        asked = []
        consequence = Engine.consequence

        def counted(self, a):
            asked.append(a)
            return consequence(self, a)

        def refuse(self, a, b):
            raise AssertionError("entails_masks called")

        monkeypatch.setattr(Engine, "consequence", counted)
        monkeypatch.setattr(Engine, "entails_masks", refuse)
        assert check_tv(mode).line() == f"tv: pass [mode={mode.value} atoms=3 pairs=65536]"
        assert asked == list(range(256))


class TestGenerator:
    def test_deterministic(self):
        b1, s1 = generate_split_base(2, 2, 42)
        b2, s2 = generate_split_base(2, 2, 42)
        assert repr(b1) == repr(b2)
        assert (s1.parts, s1.conditional_parts) == (s2.parts, s2.conditional_parts)

    def test_zero_conditionals(self):
        base, spl = generate_split_base(2, 0, 1)
        assert len(base) == 0
        assert spl.conditional_parts == (frozenset(), frozenset())

    def test_generated_base_is_consistent_and_split(self):
        for seed in range(20):
            base, spl = generate_split_base(2, 2, seed)
            assert tolerance_partition(base) is not None and spl.base is base
            detected = detect_splitting(base)
            # the detected (finest) splitting refines the generated one
            for part in detected.parts:
                assert any(set(part) <= set(p) for p in spl.parts)

    @pytest.mark.parametrize("seed", [1452, 2730, 3673, 4214, 8690, 18388, 18831])
    def test_rare_seeds_find_a_consistent_base(self, seed):
        # One 1-atom, 3-conditional draw in 64 is consistent; these seeds
        # need 511-598 draws, more than a budget of 500 allowed.
        base, spl = generate_split_base(1, 3, seed)
        assert tolerance_partition(base) is not None
        assert spl.conditional_parts == (frozenset(range(3)), frozenset(range(3, 6)))

    def test_antecedents_nontrivial(self):
        base, _ = generate_split_base(2, 3, 5)
        for c in base:
            assert c.antecedent.satisfiable()
            assert c.antecedent.mask != base.signature.full_mask

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            generate_split_base(0, 1, 0)

    def test_kept_scopes_draw_what_fresh_scopes_draw(self):
        # Part sizes interleave, so the one kept pair is dropped and rebuilt.
        for n, vars_per_part in enumerate((2, 3, 1, 3, 2, 4)):
            for conds in range(4):
                for seed in (n, 17 + n, 1000 + 7 * n):
                    base, spl = generate_split_base(vars_per_part, conds, seed)
                    ref, ref_spl = reference_generate_split_base(vars_per_part, conds, seed)
                    assert repr(base) == repr(ref)
                    assert ([(c.falsification_mask, c.verification_mask) for c in base]
                            == [(c.falsification_mask, c.verification_mask) for c in ref])
                    assert (spl.parts, spl.conditional_parts) == (
                        ref_spl.parts, ref_spl.conditional_parts)


class TestViews:
    def test_single_part_no_views(self):
        base = base_of(("a", "b"), "(a|b)")
        assert detect_splitting(base).views == ()

    def test_two_parts_one_view(self, example1):
        spl = detect_splitting(example1)
        assert spl.views == (((("b", "p", "f"), frozenset({0, 2, 3})),
                              (("v", "d"), frozenset({1}))),)

    def test_three_parts_iterate_part_vs_rest(self):
        # Interleaved parts and an atom-free conditional; the rest side's
        # atoms keep the signature order.
        base = base_of(("a", "x", "b", "y", "c"),
                       "(b|a)", "(y|x)", "(c|c)", "(top|top)", "(!x|y)")
        spl = detect_splitting(base)
        assert spl.parts == (("a", "b"), ("x", "y"), ("c",))
        assert spl.views == (
            ((("a", "b"), frozenset({0, 3})), (("x", "y", "c"), frozenset({1, 2, 4}))),
            ((("x", "y"), frozenset({1, 4})), (("a", "b", "c"), frozenset({0, 2, 3}))),
            ((("c",), frozenset({2})), (("a", "x", "b", "y"), frozenset({0, 1, 3, 4}))),
        )

    def test_rel_ind_pass_on_three_part_base(self):
        base = base_of(("a", "b", "c"), "(a|a)", "(b|b)")
        spl = detect_splitting(base)
        assert len(spl.parts) == 3
        assert check_rel(spl, InferenceMode.W).passed
        assert check_ind(spl, InferenceMode.W).passed


def test_report_lines_and_json(example1):
    spl = detect_splitting(example1)
    report = check_ind(spl, InferenceMode.Z)
    assert report.line().startswith("ind: FAIL")
    d = report.to_dict()
    assert d["verdict"] == "fail" and set(d["witness"]) >= {"A", "B", "D"}
    ok = check_rel(spl, InferenceMode.W)
    assert ok.to_dict()["verdict"] == "pass" and ok.to_dict()["witness"] is None
