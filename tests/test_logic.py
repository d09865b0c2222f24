import copy
import dataclasses
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from systemw import logic
from systemw.splitting import PostulateReport, generate_split_base
from systemw.tolerance import TolerancePartition
from systemw.logic import (
    Bot,
    Conditional,
    Conj,
    Disj,
    FormulaSyntaxError,
    Neg,
    Signature,
    SignatureError,
    Top,
    UnknownAtomError,
    Var,
    _node_text,
    atoms_of,
    parse_conditional,
    parse_formula,
)

from conftest import world_bits
from oracles import (
    all_assignments,
    eval_node,
    node_mask,
    oracle_model_bits,
    random_consistent_base,
    random_layered_base,
    random_node,
    reference_parse_formula,
    tree_formula,
)

GOLDEN = Path(__file__).parent / "golden"


def golden_parse_errors():
    """Rows of golden/parse_errors.tsv: the input as a JSON string, the
    exception type, its message and its position, each parsed over the
    signature a, b, c. The file was captured from the two-pass parser that
    the single-pass one replaced, so it pins the error that wins when a
    formula has several faults."""
    with open(GOLDEN / "parse_errors.tsv", encoding="utf-8") as fh:
        for line in fh:
            text, kind, message, position = line.rstrip("\n").split("\t")
            yield json.loads(text), kind, message, int(position)


def sig2():
    return Signature(["v", "d"])


class TestSignature:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(SignatureError):
            Signature(["a", "b", "a"])

    def test_bad_atom_name_rejected(self):
        for bad in ["A", "1x", "", "a-b"]:
            with pytest.raises(SignatureError):
                Signature([bad])

    def test_atom_cap(self):
        Signature([f"x{i}" for i in range(24)])
        with pytest.raises(SignatureError):
            Signature([f"x{i}" for i in range(25)])

    def test_atom_order_fixes_bits(self):
        sig = Signature(["b", "p", "f"])
        w = 0b101
        truth = [(w >> sig.index(a)) & 1 for a in ("b", "p", "f")]
        assert truth == [1, 0, 1]

    @pytest.mark.parametrize("name", ["top", "bot"])
    def test_constants_are_not_atoms(self, name):
        # The parser reads these tokens as the constants, so an atom of that
        # name could never be written in a formula.
        with pytest.raises(SignatureError, match=f"reserved atom name: '{name}'"):
            Signature(["a", name])
        Signature(["a", name + "1", name + "_x"])

    def test_render_world(self):
        sig = Signature(["b", "p", "f", "v", "d"])
        assert sig.render_world(world_bits(sig, "bpf")) == "bpf!v!d"


class TestParser:
    def test_single_negation(self):
        f = parse_formula("!v", sig2())
        assert f.ast == Neg(Var("v"))

    def test_conjunction(self):
        sig = Signature(["b", "p", "f", "v", "d"])
        f = parse_formula("d,p", sig)
        assert f.ast == Conj((Var("d"), Var("p")))

    def test_precedence_or_under_and(self):
        sig = Signature(["a", "b", "c"])
        f = parse_formula("a;b,c", sig)
        assert f.ast == Disj((Var("a"), Conj((Var("b"), Var("c")))))

    def test_ampersand_alias(self):
        sig = Signature(["a", "b"])
        assert parse_formula("a&b", sig).mask == parse_formula("a,b", sig).mask

    def test_parens_and_constants(self):
        sig = Signature(["a", "b"])
        f = parse_formula("!(a;b),top", sig)
        assert f.mask == parse_formula("!a,!b", sig).mask

    def test_syntax_error_has_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a,,b", Signature(["a", "b"]))
        assert exc.value.position == 2

    def test_unknown_atom_named(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_formula("a,q", Signature(["a", "b"]))
        assert exc.value.atom == "q"

    def test_trailing_junk_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a)b", Signature(["a", "b"]))

    def test_bar_not_in_grammar(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a|b", Signature(["a", "b"]))

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", ""), ("!(", ")")])
    def test_nesting_limit(self, opener, closer):
        # 100 levels of '(' and '!' parse; one more is a syntax error at the
        # token that goes over, not a RecursionError.
        sig = Signature(["a"])
        reps = 100 // len(opener)  # an even number of negations
        f = parse_formula(opener * reps + "a" + closer * reps, sig)
        assert f.mask == sig.atom_mask(0)
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("!" + opener * reps + "a" + closer * reps, sig)
        assert exc.value.position == 100
        assert "nested deeper than 100 levels" in str(exc.value)

    @pytest.mark.parametrize("text, kind, message, position", golden_parse_errors())
    def test_golden_error(self, text, kind, message, position):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text, Signature(["a", "b", "c"]))
        assert (type(exc.value).__name__, str(exc.value), exc.value.position) == (
            kind, message, position)


class TestModSet:
    def test_top_all_worlds(self):
        sig = Signature(["a", "b", "c"])
        assert parse_formula("top", sig).mask.bit_count() == 8

    def test_bot_empty(self):
        sig = Signature(["a", "b", "c"])
        assert parse_formula("bot", sig).mask == 0

    def test_unique_model(self):
        sig = Signature(["b", "p"])
        mask = parse_formula("b,!p", sig).mask
        assert [w for w in range(sig.num_worlds) if (mask >> w) & 1] == [0b01]

    def test_set_algebra_exhaustive(self):
        # negation = complement, conjunction = intersection, disjunction = union
        sig = Signature(["a", "b", "c"])
        f = parse_formula("a;!b", sig)
        g = parse_formula("b,c;!a", sig)
        full = sig.full_mask
        assert parse_formula("!(a;!b)", sig).mask == full & ~f.mask
        assert parse_formula("(a;!b),(b,c;!a)", sig).mask == f.mask & g.mask
        assert parse_formula("a;!b;b,c;!a", sig).mask == f.mask | g.mask


@st.composite
def sig_and_node(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    atoms = tuple("abcd"[:n])
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    import random

    node = random_node(random.Random(seed), atoms, 3)
    return Signature(atoms), node


@given(sig_and_node())
@settings(max_examples=150, deadline=None)
def test_mask_matches_pointwise_evaluation(sn):
    sig, node = sn
    models = {bits for bits, asg in all_assignments(sig) if eval_node(node, asg)}
    for mask in (parse_formula(_node_text(node), sig).mask, node_mask(node, sig)):
        assert {w for w in range(sig.num_worlds) if (mask >> w) & 1} == models


@given(sig_and_node())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(sn):
    sig, node = sn
    f = tree_formula(sig, node)
    assert parse_formula(str(f), sig).mask == f.mask


# Atom names that share prefixes with each other and with `top`/`bot`.
DIFF_ATOMS = ("a", "b1", "c_d", "top1", "botx", "ab", "e", "f")


@st.composite
def formula_text(draw):
    """(signature, text): random formula text over up to 8 atoms, with
    random blanks, ',' and '&' and ';', nested '!' and parentheses, and the
    constants."""
    sig = Signature(DIFF_ATOMS[:draw(st.integers(1, 8))])
    blank = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
    leaves = st.sampled_from(sig.atoms + ("top", "bot"))

    def text(depth):
        kind = draw(st.integers(0, 3 if depth < 4 else 0))
        if kind == 0:
            return draw(blank) + draw(leaves) + draw(blank)
        if kind == 1:
            return draw(blank) + "!" * draw(st.integers(1, 3)) + text(depth + 1)
        if kind == 2:
            return draw(blank) + "(" + text(depth + 1) + ")" + draw(blank)
        ops = draw(st.lists(st.sampled_from([",", "&", ";"]), min_size=1, max_size=3))
        return text(depth + 1) + "".join(op + text(depth + 1) for op in ops)

    return sig, text(0)


@given(formula_text())
@settings(max_examples=300, deadline=None)
def test_parsed_mask_matches_tree_walk(sig_text):
    """The mask the parser builds is the tree walk's mask and the pointwise
    truth table; the printed formula parses back to itself."""
    sig, text = sig_text
    f = parse_formula(text, sig)
    assert f.mask == node_mask(f.ast, sig)
    assert f.mask == sum(1 << w for w, asg in all_assignments(sig) if eval_node(f.ast, asg))
    g = parse_formula(str(f), sig)
    assert (str(g), g.mask) == (str(f), f.mask)


@given(formula_text(), formula_text())
@example((Signature(["a", "b1"]), "!!(a;a),top"), (Signature(["a"]), "bot;!(a,(a))"))
@example((Signature(["a"]), "top"), (Signature(["a"]), "!bot"))
@settings(max_examples=300, deadline=None)
def test_conditional_halves_carry_the_atoms_of_their_trees(first, second):
    """`parse_conditional` gives each half the atoms of its tree, read off
    the tokens, so the tree is never walked for them."""
    sig = max(first[0], second[0], key=lambda s: s.num_atoms)  # both are prefixes
    c = parse_conditional(f"({first[1]}|{second[1]})", sig)
    for half in (c.consequent, c.antecedent):
        assert half._atoms is not None
        assert half.atoms() == atoms_of(half.ast)
        assert type(half.atoms()) is frozenset


def parse_outcome(parse, text, sig):
    """What a parse gives: the tree's repr, the mask and the printed text,
    or the error's type, message and position."""
    try:
        f = parse(text, sig)
    except FormulaSyntaxError as e:
        return type(e).__name__, e.args[0], e.position
    return repr(f.ast), f.mask, str(f)


# Pieces of token strings: atoms known to some signatures and not others,
# the constants, the operators, blanks and characters outside the grammar.
PIECES = DIFF_ATOMS + ("q", "top", "bot", "!", "(", ")", ",", ";", "&",
                       " ", "\t", "$", "|", "A")


@st.composite
def token_text(draw):
    """(signature, text): a random string of PIECES, most of it malformed,
    sometimes inside 99, 100 or 101 levels of '(' and '!' and closed by
    some of the ')' that those need."""
    sig = Signature(DIFF_ATOMS[:draw(st.integers(1, 8))])
    text = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=12)))
    levels = draw(st.sampled_from([0, 0, 99, 100, 101]))
    if levels:
        opener = draw(st.sampled_from(["(", "!", "(!", "!("]))
        opener = (opener * levels)[:levels]
        closers = ")" * draw(st.integers(0, opener.count("(")))
        text = opener + text + closers
    return sig, text


@given(st.one_of(formula_text(), token_text()))
# 330 '(' and '!' in all, but never more than 4 open at once.
@example((Signature(["a"]), ";".join(["!!(!a)"] * 110)))
@settings(max_examples=600, deadline=None)
def test_parser_matches_recursive_descent_reference(sig_text):
    """The one-loop parser gives the recursive descent parser's tree, mask
    and text on every input, and its error type, message and position."""
    sig, text = sig_text
    assert parse_outcome(parse_formula, text, sig) == parse_outcome(
        reference_parse_formula, text, sig)


@st.composite
def repeated_texts(draw):
    """(signature, texts): formula and token texts, some of them drawn for
    other signatures, asked in a random order with repeats."""
    pool = draw(st.lists(st.one_of(formula_text(), token_text()), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return pool[0][0], [pool[i][1] for i in picks]


@given(repeated_texts())
@settings(max_examples=300, deadline=None)
def test_memo_matches_reference_on_repeated_texts(sig_texts):
    """A text served from the signature's memo parses as the reference
    parser parses it, on its first call and on every repeat; so does a
    text that fails, with the same error each time."""
    sig, texts = sig_texts
    for text in texts:
        assert parse_outcome(parse_formula, text, sig) == parse_outcome(
            reference_parse_formula, text, sig)


class TestMemo:
    def test_repeated_text_shares_the_tree_not_the_formula(self):
        sig = Signature(["a", "b"])
        f, g = parse_formula("a,!b", sig), parse_formula("a,!b", sig)
        assert f is not g
        assert f.ast is g.ast and f.mask is g.mask and f.signature is sig
        assert parse_formula(" a , !b", sig).ast is not f.ast  # keyed by text

    def test_full_memo_clears_and_parses_again(self, monkeypatch):
        monkeypatch.setattr(logic, "CACHE_BYTES", 3 * logic.MIN_ENTRY_BYTES)
        sig = Signature(["a", "b", "c"])
        assert sig.cache_entries == 3
        texts = ["a", "b", "c", "a,b", "b;c", "!a", "a", "b;c", "top"]
        sizes = []
        for text in texts:
            assert parse_outcome(parse_formula, text, sig) == parse_outcome(
                reference_parse_formula, text, sig)
            sizes.append(len(sig._formulas))
        assert sizes == [1, 2, 3, 1, 2, 3, 1, 2, 3]

    def test_bound_is_the_budget_over_two_masks(self):
        # 10 atoms: two masks are 256 bytes, under the per-entry floor.
        assert Signature([f"a{i}" for i in range(10)]).cache_entries == (
            logic.CACHE_BYTES // logic.MIN_ENTRY_BYTES)
        # 24 atoms: two masks of 2**24 bits are 4 MiB.
        assert Signature([f"a{i}" for i in range(24)]).cache_entries == (
            logic.CACHE_BYTES // (4 << 20))


class TestInternedLiterals:
    def test_same_token_same_node_and_mask(self):
        sig = Signature(["a", "b"])
        f, g = parse_formula("a,!b,top", sig), parse_formula("top;!b;(a)", sig)
        assert [id(n) for n in f.ast.children] == [id(n) for n in reversed(g.ast.children)]
        for text in ("a", "!b", "top", "bot", "!top"):
            first, again = parse_formula(text, sig), parse_formula(text, sig)
            assert first.ast is again.ast and first.mask is again.mask

    def test_literal_masks_follow_the_signature_order(self):
        ab, ba = Signature(["a", "b"]), Signature(["b", "a"])
        assert parse_formula("a", ab).mask == ab.atom_mask(0)
        assert parse_formula("a", ba).mask == ba.atom_mask(1)
        assert parse_formula("a", ab).mask != parse_formula("a", ba).mask
        assert parse_formula("!a", ab).mask != parse_formula("!a", ba).mask

    def test_nodes_are_frozen(self):
        # Interned nodes sit in every formula that uses their token, so a
        # node that could change would change all of them.
        sig = Signature(["a", "b"])
        f = parse_formula("!a,(b;top)", sig)
        neg, disj = f.ast.children
        for node in (f.ast, neg, neg.child, disj, disj.children[0], disj.children[1]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.child = Var("b")
            with pytest.raises(dataclasses.FrozenInstanceError):
                del node.children
        assert str(parse_formula("!a,(b;top)", sig)) == "!a,(b;top)"
        # A partition is shared the same way, by the structure and its engines.
        partition = TolerancePartition((frozenset({0}),))
        with pytest.raises(dataclasses.FrozenInstanceError, match="'layers'"):
            partition.layers = ()
        with pytest.raises(dataclasses.FrozenInstanceError, match="'layers'"):
            del partition.layers
        assert partition.layers == (frozenset({0}),)


class TestValueSemantics:
    """Nodes, partitions and reports are plain `__slots__` classes that
    compare, hash and print by their fields, as dataclasses would."""

    def test_equal_only_within_a_class(self):
        a, b = Var("a"), Var("b")
        assert Conj((a, b)) != Disj((a, b))
        assert Conj((a, b)) == Conj((Var("a"), Var("b")))
        assert Conj((a, b)) != Conj((b, a))
        assert Neg(a) != a and Top() != Bot() and Top() == Top()
        assert Var("a") != "a" and Var("a") != ("a",)
        assert TolerancePartition(()) != ()
        assert PostulateReport("di", True) == PostulateReport("di", True, None, "")
        assert PostulateReport("di", True) != PostulateReport("di", False)

    def test_equal_objects_hash_alike(self):
        # Each signature interns its own literals, so the trees share no node.
        sig1, sig2 = Signature(["a", "b"]), Signature(["a", "b"])
        for text in ("a", "!a", "a,b", "a;!b", "!(a;b),top", "bot"):
            x, y = parse_formula(text, sig1).ast, parse_formula(text, sig2).ast
            assert x == y and hash(x) == hash(y)
        assert len({Conj((Var("a"),)), Conj((Var("a"),)), Disj((Var("a"),))}) == 2
        assert hash(TolerancePartition((frozenset({1}),))) == hash(
            TolerancePartition((frozenset({1}),)))
        with pytest.raises(TypeError, match="unhashable"):
            hash(PostulateReport("di", True))  # a report is mutable

    def test_reprs_are_pinned(self):
        a = Var("a")
        assert [repr(n) for n in (Top(), Bot(), a, Neg(a), Conj((a, Neg(a))),
                                  Disj((a,)))] == [
            "Top()", "Bot()", "Var(name='a')", "Neg(child=Var(name='a'))",
            "Conj(children=(Var(name='a'), Neg(child=Var(name='a'))))",
            "Disj(children=(Var(name='a'),))",
        ]
        assert repr(TolerancePartition((frozenset({0, 2}), frozenset()))) == (
            "TolerancePartition(layers=(frozenset({0, 2}), frozenset()))")
        assert repr(PostulateReport("rel", False, {"A": "a"}, "mode=w")) == (
            "PostulateReport(postulate='rel', passed=False, witness={'A': 'a'}, "
            "search_bounds='mode=w')")
        assert repr(PostulateReport("di", True)) == (
            "PostulateReport(postulate='di', passed=True, witness=None, "
            "search_bounds='')")

    def test_copies_are_equal(self):
        values = [Top(), Conj((Var("a"), Neg(Var("b")))),
                  TolerancePartition((frozenset({0}),)),
                  PostulateReport("di", False, {"index": 0}, "mode=z")]
        for value in values:
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value) and twin == value

    def test_reports_stay_mutable(self):
        report = PostulateReport("di", True)
        report.witness = {"index": 1}
        assert report.line() == "di: pass witness: index=1"


class TestConditional:
    @staticmethod
    def status(c, w):
        """(verified, falsified) bits of world w for conditional c."""
        return (c.verification_mask >> w) & 1, (c.falsification_mask >> w) & 1

    def test_verified(self, example1):
        sig = example1.signature
        c = example1[0]  # (f|b)
        assert self.status(c, world_bits(sig, "bf")) == (1, 0)

    def test_falsified(self, example1):
        sig = example1.signature
        c = example1[3]  # (!f|p)
        assert self.status(c, world_bits(sig, "pbf")) == (0, 1)

    def test_not_applicable(self, example1):
        sig = example1.signature
        c = example1[1]  # (!v|d)
        assert self.status(c, world_bits(sig, "")) == (0, 0)

    def test_verification_and_falsification_disjoint(self, example1):
        # The falsification mask is stored as A ^ (A & B): equal to A & ~B
        # only while A's mask lies within the full mask.
        bases = [example1]
        bases += [random_consistent_base(seed, max_atoms=6, max_conds=5) for seed in range(40)]
        bases += [random_layered_base(seed, max_atoms=7, max_conds=3, min_layers=2)
                  for seed in range(20)]
        bases += [generate_split_base(1 + seed % 3, 1 + seed % 4, seed)[0] for seed in range(20)]
        for base in bases:
            full = base.signature.full_mask
            for c in base:
                a, b = c.antecedent.mask, c.consequent.mask
                assert c.falsification_mask == a & ~b & full
                assert c.verification_mask == a & b
                assert c.verification_mask & c.falsification_mask == 0
                assert c.verification_mask | c.falsification_mask == a

    def test_parse_and_print(self):
        sig = Signature(["a", "b"])
        c = parse_conditional(" ( !b | a ) ", sig)
        assert str(c) == "(!b|a)"

    def test_unknown_atom_position_counts_from_the_parenthesis(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_conditional("  (a , q | b)", Signature(["a", "b"]))
        assert (exc.value.atom, exc.value.position) == ("q", 5)

    def test_mixed_signatures_rejected(self):
        f1 = parse_formula("a", Signature(["a"]))
        f2 = parse_formula("b", Signature(["b"]))
        with pytest.raises(SignatureError):
            Conditional(f1, f2)


def test_oracle_agreement_on_example_formulas(example1):
    sig = example1.signature
    for text in ["d,p", "!v", "b;!p,f", "top", "bot", "!(b;p),f"]:
        f = parse_formula(text, sig)
        assert {
            w for w in range(sig.num_worlds) if (f.mask >> w) & 1
        } == oracle_model_bits(f)
