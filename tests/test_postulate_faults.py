"""The postulate and lemma checks under injected faults.

`check_tv` and the lemma checks are compared with the loops they replaced
(`tests/oracles.py`), on plain and on faulted structures and engines. Each
failure branch of the checks is driven by a fault, and its witness is
replayed against the engines or structures it names.
"""

import re
from array import array
from types import SimpleNamespace

import pytest

from systemw import (
    BeliefBase,
    Engine,
    InferenceMode,
    Signature,
    SyntaxSplitting,
    check_di,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_rel,
    check_tv,
    detect_splitting,
    generate_split_base,
    parse_conditional,
    parse_formula,
)
from systemw.tolerance import TolerancePartition

from oracles import (
    group_of,
    random_layered_base,
    reference_check_lemma1,
    reference_check_lemma2,
    reference_check_lemma3,
    reference_check_lemma4,
    reference_check_tv,
)

STRUCTURE = SyntaxSplitting.structure
ENGINE = SyntaxSplitting.engine
CONSEQUENCE = Engine.consequence


def layered_split_base(seed: int, parts: int = 2) -> SyntaxSplitting:
    """`parts` `random_layered_base` bases over disjoint atoms, split into
    them: sides of one to three layers each, often of different lengths."""
    bases = [random_layered_base(seed * parts + n, 4, 2, 1 + (seed + n) % 3)
             for n in range(parts)]
    shift = lambda n, text: re.sub(r"\b([a-d])\b", lambda m: chr(ord(m[1]) + 4 * n), text)
    atoms = [tuple(shift(n, a) for a in b.signature.atoms) for n, b in enumerate(bases)]
    sig = Signature(sum(atoms, ()))
    conds = [parse_conditional(shift(n, str(c)), sig) for n, b in enumerate(bases) for c in b]
    return SyntaxSplitting(BeliefBase(sig, conds), atoms)


def splittings():
    out = [generate_split_base(1 + seed % 3, 1 + seed // 3 % 3, seed)[1] for seed in range(18)]
    out += [detect_splitting(random_layered_base(seed, 6, 3, 2 + seed % 2))
            for seed in range(12)]
    out += [layered_split_base(seed) for seed in range(18)]
    return out


def perturb_layers(monkeypatch, change):
    """Rebind `SyntaxSplitting.structure` so that each structure it gives
    has the layers `change(splitting, indices, layers)`. The lemma 1 checks
    read a structure's `partition.layers` and nothing else."""
    def perturbed(self, indices=None):
        layers = STRUCTURE(self, indices).partition.layers
        return SimpleNamespace(partition=TolerancePartition(
            tuple(change(self, indices, layers))))

    monkeypatch.setattr(SyntaxSplitting, "structure", perturbed)


def side_layers(spl, indices):
    return STRUCTURE(spl, indices).partition.layers


def reverse_sides(spl, indices, layers):
    return layers if indices is None else layers[::-1]


def drop_last_layer(side):
    """A fault that drops the last layer of the first view's side `side`."""
    def change(spl, indices, layers):
        target = spl.views[0][side][1] if spl.views else None
        return layers[:-1] if indices is not None and indices == target else layers
    return change


def shorter_side_conditional(spl):
    """(side indices, base index) of the highest conditional of the first
    side with fewer layers than the other side of its view, or None."""
    for view in spl.views:
        for (_, mine), (_, other) in (view, view[::-1]):
            if mine and len(side_layers(spl, mine)) < len(side_layers(spl, other)):
                return mine, max(mine)
    return None


def move_to_last_layer(spl, indices, layers):
    """A conditional of a shorter side leaves that side's layers and joins
    the last layer of the full partition: claim 1 still holds on both
    sides, and the full last layer is no longer the union of the sides'."""
    target = shorter_side_conditional(spl)
    if target is None:
        return layers
    side, x = target
    if indices is None:
        return tuple(layer - {x} for layer in layers[:-1]) + (layers[-1] | {x},)
    if indices == side:
        p = sorted(side).index(x)
        return tuple(layer - {p} for layer in layers)
    return layers


LAYER_FAULTS = {
    "none": None,
    "reverse_sides": reverse_sides,
    "drop_first_side_last_layer": drop_last_layer(0),
    "drop_second_side_last_layer": drop_last_layer(1),
    "move_to_last_layer": move_to_last_layer,
}


def test_lemma1_matches_its_reference_under_faults(monkeypatch):
    claims = set()
    spls = splittings()
    for name, change in LAYER_FAULTS.items():
        if change is not None:
            perturb_layers(monkeypatch, change)
        for spl in spls:
            got, want = check_lemma1(spl), reference_check_lemma1(spl)
            assert (got.line(), got.to_dict()) == (want.line(), want.to_dict()), name
            if not got.passed:
                claims.add(got.witness["claim"])
        monkeypatch.undo()
        if change is None:
            assert all(check_lemma1(spl).passed for spl in spls)
    assert claims == {1, 2, 3}


def lose_a_world(fewest):
    """C(A) without its lowest world, for antecedents of at least `fewest`
    worlds."""
    def consequence(self, a):
        c = CONSEQUENCE(self, a)
        return c & (c - 1) if a.bit_count() >= fewest else c
    return consequence


def gain_a_world(self, a):
    """C(A) with the lowest world outside A, for antecedents of 5 worlds."""
    c = CONSEQUENCE(self, a)
    outside = self.full & ~a
    return c | (outside & -outside) if a.bit_count() == 5 else c


TV_FAULTS = {
    "none": None,
    "lose_at_1": lose_a_world(1),
    "lose_at_3": lose_a_world(3),
    "lose_at_8": lose_a_world(8),
    "gain_at_5": gain_a_world,
}


@pytest.mark.parametrize("mode", list(InferenceMode))
@pytest.mark.parametrize("fault", list(TV_FAULTS))
def test_tv_matches_its_reference(monkeypatch, mode, fault):
    if TV_FAULTS[fault] is not None:
        monkeypatch.setattr(Engine, "consequence", TV_FAULTS[fault])
    got, want = check_tv(mode), reference_check_tv(mode)
    assert (got.line(), got.to_dict()) == (want.line(), want.to_dict())
    assert got.passed == (fault == "none")


def perturb_relation(monkeypatch, spl, target, change):
    """Set the class relation of the structure of the conditional indices
    `target(spl)` (None for the base) so that below class c lie the classes
    `change(c, below)`, of the classes truly below it: its descent yields
    the faulted below masks of the classes asked, in the order asked.
    `below(w)` reads the same descent, so the references see the fault too."""
    faulted = STRUCTURE(spl, target(spl))
    descent = faulted._descent

    def faulted_descent(classes=None):
        if classes is None:
            classes = range(len(faulted.class_index[1]))
        for c, (below, above) in zip(classes, descent(classes)):
            yield change(c, below), above

    monkeypatch.setattr(faulted, "_descent", faulted_descent)


def move_a_world(monkeypatch, spl, target):
    """Move the highest world of the first class of two or more worlds to
    the next class, in the class index of the structure of `target(spl)`.
    Its group of the side's part then meets two classes. Returns whether a
    world moved: a structure of one class has no other class to move to."""
    faulted = STRUCTURE(spl, target(spl))
    class_of, keys, members = faulted.class_index
    if len(keys) == 1:
        return False
    c = next(c for c, ws in enumerate(members) if len(ws) > 1)
    d, w = (c + 1) % len(keys), members[c][-1]
    class_of, members = array("I", class_of), list(members)
    class_of[w] = d
    members[c], members[d] = members[c][:-1], sorted(members[d] + [w])
    monkeypatch.setattr(faulted, "class_index", (class_of, keys, members))
    return True


BASE = lambda spl: None
FIRST_SIDE = lambda spl: spl.views[0][0][1]
SECOND_SIDE = lambda spl: spl.views[0][1][1]
LAST_SIDE = lambda spl: spl.views[-1][1][1]
lose_lowest = lambda c, below: below & (below - 1)
gain_own_class = lambda c, below: below | 1 << c


RELATION_FAULTS = {
    "base_loses_lowest": (BASE, lose_lowest),
    "base_gains_own_class": (BASE, gain_own_class),
    "first_side_loses_lowest": (FIRST_SIDE, lose_lowest),
    "first_side_gains_own_class": (FIRST_SIDE, gain_own_class),
    "second_side_loses_lowest": (SECOND_SIDE, lose_lowest),
    "second_side_gains_own_class": (SECOND_SIDE, gain_own_class),
    "last_side_loses_lowest": (LAST_SIDE, lose_lowest),
    "last_side_gains_own_class": (LAST_SIDE, gain_own_class),
}
INDEX_FAULTS = {
    "first_side_moves_a_world": FIRST_SIDE,
    "second_side_moves_a_world": SECOND_SIDE,
    "last_side_moves_a_world": LAST_SIDE,
}


def lemma_splittings():
    """`splittings()` and the detected splittings of random bases with three
    or more parts."""
    more = (detect_splitting(random_layered_base(seed, 6, 3, 2 + seed % 2))
            for seed in range(12, 40))
    return splittings() + [spl for spl in more if len(spl.parts) >= 3]


LEMMAS = (
    (check_lemma2, reference_check_lemma2),
    (check_lemma3, reference_check_lemma3),
    (check_lemma4, reference_check_lemma4),
)


def test_lemmas_2_to_4_match_their_references_under_relation_faults(monkeypatch):
    spls = lemma_splittings()
    assert {2, 3} <= {len(spl.parts) for spl in spls}
    for spl in spls:
        for check, reference in LEMMAS:
            got, want = check(spl), reference(spl)
            assert (got.line(), got.to_dict()) == (want.line(), want.to_dict())
            assert got.passed
    failed = {}  # lemma -> failing reports

    def compare(checks, name):
        for check, reference in checks:
            got, want = check(spl), reference(spl)
            assert (got.line(), got.to_dict()) == (want.line(), want.to_dict()), name
            if not got.passed:
                failed[got.postulate] = failed.get(got.postulate, 0) + 1

    for spl in spls:
        if not spl.views:
            continue
        for name, (target, change) in RELATION_FAULTS.items():
            perturb_relation(monkeypatch, spl, target, change)
            compare(LEMMAS, name)
            monkeypatch.undo()
        # A class relation splits no group that lies within one class, so
        # lemma 4 fails only on a faulted index; lemmas 2 and 3 read a base
        # class's side class at its lowest world, which such a fault
        # misplaces.
        for name, target in INDEX_FAULTS.items():
            if move_a_world(monkeypatch, spl, target):
                compare(LEMMAS[2:], name)
            monkeypatch.undo()
    assert min(failed.get(f"lemma{k}", 0) for k in (2, 3, 4)) >= 10, failed


def at_last_class(structure, change):
    """`change` at the class of `structure` whose lowest world is highest of
    those with a class below them, and no change at any other class."""
    members = structure.class_index[2]
    last = max((c for c, (below, _) in enumerate(structure._descent()) if below),
               key=lambda c: members[c][0], default=None)
    return lambda c, below: change(c, below) if c == last else below


@pytest.mark.parametrize("early, late", [
    ((FIRST_SIDE, lose_lowest), (LAST_SIDE, lose_lowest)),  # lemma 2
    ((FIRST_SIDE, gain_own_class), (LAST_SIDE, gain_own_class)),  # lemma 3, part 1 first
    ((SECOND_SIDE, gain_own_class), (LAST_SIDE, gain_own_class)),  # lemma 3, part 2 only
])
def test_lemmas_2_and_3_report_the_first_view_that_fails(monkeypatch, early, late):
    # A side of the first view is faulted at one late class, a side of the
    # last view at every class: lemmas 2 and 3 descend the base once for all
    # views, and still report the first view's failure, as their references
    # do, where the last view fails at a lower world.
    earlier = 0  # failures of the first view reported over the last view's
    for spl in map(layered_split_base, (3, 4), (3, 3)):  # of 10 atoms each
        target, change = early
        change = at_last_class(STRUCTURE(spl, target(spl)), change)
        perturb_relation(monkeypatch, spl, *late)
        alone = [check(spl) for check, _ in LEMMAS[:2]]
        perturb_relation(monkeypatch, spl, target, change)
        for (check, reference), last in zip(LEMMAS[:2], alone):
            got, want = check(spl), reference(spl)
            assert (got.line(), got.to_dict()) == (want.line(), want.to_dict())
            earlier += not last.passed and got.to_dict() != last.to_dict()
        monkeypatch.undo()
    assert earlier >= 2, earlier


# --- witness replays -------------------------------------------------------------


def world_of(sig):
    return {label: w for w, label in enumerate(sig.render_worlds())}


def below(ps, w, w2):
    return bool(ps.below(w2) >> w & 1)


@pytest.mark.parametrize("mode", list(InferenceMode))
def test_rel_witness_replays_on_a_swapped_side_engine(example1, monkeypatch, mode):
    # The first side's engine is the second side's: it no longer infers f
    # from b.
    spl = detect_splitting(example1)
    (_, idx1), (_, idx2) = spl.views[0]
    swapped = lambda self, m, indices=None: ENGINE(self, m, idx2 if indices == idx1 else indices)
    monkeypatch.setattr(SyntaxSplitting, "engine", swapped)
    report = check_rel(spl, mode)
    assert not report.passed
    w = report.witness
    assert w["part"] == "b,p,f"
    sig = example1.signature
    a, b = parse_formula(w["A"], sig), parse_formula(w["B"], sig)
    full, part = spl.engine(mode), spl.engine(mode, idx1)
    assert (full.entails(a, b), part.entails(a, b)) == (w["full_base"], w["part_base"])
    assert w["full_base"] != w["part_base"]


@pytest.mark.parametrize("mode", list(InferenceMode))
def test_di_witness_replays_on_an_engine_that_infers_nothing(example1, mode):
    # C(A) = A, as if the base were empty: (f|b) is the first conditional
    # that it does not infer.
    faulty = Engine(example1, mode)
    faulty.consequence = lambda a: a
    report = check_di(faulty)
    assert not report.passed
    i = report.witness["index"]
    c = parse_conditional(report.witness["conditional"], example1.signature)
    assert str(c) == str(example1[i]) == "(f|b)"
    assert not faulty.entails(c.antecedent, c.consequent)
    assert Engine(example1, mode).entails(c.antecedent, c.consequent)


@pytest.mark.parametrize("mode", list(InferenceMode))
def test_tv_witness_replays_on_an_engine_that_loses_a_world(monkeypatch, mode):
    monkeypatch.setattr(Engine, "consequence", lose_a_world(3))
    report = check_tv(mode)
    assert report.line().startswith(f"tv: FAIL [mode={mode.value} atoms=3 exhaustive]")
    sig = Signature("abc")
    a, b = (parse_formula(report.witness[k], sig) for k in "AB")
    classical = a.mask & ~b.mask == 0
    assert Engine(BeliefBase(sig, ()), mode).entails(a, b) != classical
    monkeypatch.undo()
    assert Engine(BeliefBase(sig, ()), mode).entails(a, b) == classical


def test_lemma1_claim2_witness_counts_the_faulted_layers(example1, monkeypatch):
    # Both sides lose their last layer: the longer side has one layer fewer
    # than the base.
    perturb_layers(monkeypatch, lambda spl, indices, layers:
                   layers if indices is None else layers[:-1])
    spl = detect_splitting(example1)
    report = check_lemma1(spl)
    assert report.witness == {"claim": 2, "l1": 0, "l2": -1, "k": 1}
    (_, idx1), (_, idx2) = spl.views[0]
    sizes = [len(spl.structure(i).partition.layers) - 1 for i in (idx1, idx2, None)]
    assert sizes == [0, -1, 1]


def test_lemma1_claim3_witness_names_the_moved_conditional(example1, monkeypatch):
    # (!v|d), base index 1, leaves the one-layer side and joins layer 1 of
    # the base, where neither side has it.
    perturb_layers(monkeypatch, move_to_last_layer)
    spl = detect_splitting(example1)
    report = check_lemma1(spl)
    assert report.line() == ("lemma1: FAIL [partition comparison] witness: "
                             "claim=3 layer=1 full=[1, 2, 3] union=[2, 3]")
    (_, idx1), (_, idx2) = spl.views[0]
    assert sorted(spl.structure().partition.layers[1]) == report.witness["full"]
    union = {sorted(idx1)[p] for p in spl.structure(idx1).partition.layers[1]}
    assert len(spl.structure(idx2).partition.layers) == 1  # no layer 1 to add
    assert sorted(union) == report.witness["union"]


def swap_structures(monkeypatch, spl, mapping):
    """Rebind `SyntaxSplitting.structure` so that the structure of each key
    of `mapping` (conditional indices, None for the base) is the one of its
    value."""
    def swapped(self, indices=None):
        return STRUCTURE(self, mapping.get(indices, indices))

    monkeypatch.setattr(SyntaxSplitting, "structure", swapped)


def test_lemma2_witness_is_related_in_the_base_only(example1, monkeypatch):
    # The first side's structure is the second side's: the base's relations
    # through (f|b), (b|p) and (!f|p) are under neither side.
    spl = detect_splitting(example1)
    (_, idx1), (_, idx2) = spl.views[0]
    swap_structures(monkeypatch, spl, {idx1: idx2})
    report = check_lemma2(spl)
    assert not report.passed
    sig = example1.signature
    w, w2 = (world_of(sig)[report.witness[k]] for k in ("world", "world2"))
    assert below(spl.structure(), w, w2)
    assert not below(spl.structure(idx1), w, w2)
    assert not below(spl.structure(idx2), w, w2)


def test_lemma3_witness_is_related_under_a_side_only(example1, monkeypatch):
    # The base relates no worlds at all, while the first side's structure
    # relates worlds that agree on v and d.
    spl = detect_splitting(example1)
    (_, idx1), (atoms2, idx2) = spl.views[0]
    perturb_relation(monkeypatch, spl, BASE, lambda c, below: 0)
    report, want = check_lemma3(spl), reference_check_lemma3(spl)
    assert (report.line(), report.to_dict()) == (want.line(), want.to_dict())
    assert not report.passed and report.witness["side"] == "part1"
    sig = example1.signature
    w, w2 = (world_of(sig)[report.witness[k]] for k in ("world", "world2"))
    assert below(spl.structure(idx1), w, w2)
    assert group_of(spl.scope(atoms2), w2) >> w & 1  # they agree on v and d
    assert not below(spl.structure(), w, w2)


def test_lemma4_witness_splits_a_marginal_class(example1, monkeypatch):
    # The second side's structure is the base's, whose relation between
    # worlds depends on b, p and f as well as on v and d.
    spl = detect_splitting(example1)
    (_, idx1), (atoms2, idx2) = spl.views[0]
    swap_structures(monkeypatch, spl, {idx2: None})
    report = check_lemma4(spl)
    assert not report.passed and report.witness["side"] == "part2"
    sig = example1.signature
    wa, wb, w2 = (world_of(sig)[report.witness[k]] for k in ("world_a", "world_b", "world2"))
    ps = spl.structure(idx2)
    assert below(ps, wa, w2) and not below(ps, wb, w2)
    assert group_of(spl.scope(atoms2), wa) >> wb & 1  # the same marginal on v, d
