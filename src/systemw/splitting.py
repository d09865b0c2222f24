"""Syntax splitting: detection, postulate checkers, order lemmas, fuzzing.

The checkers quantify over semantic formulas, i.e. subsets of the sub-world
space of a signature part, because every implemented inference mode is
invariant under logical equivalence. Enumeration is exhaustive for parts of
at most `bound` atoms and seeded-random beyond that. The rel, ind, synsplit
and lemma checks take a `SyntaxSplitting`, which is built once per base and
holds the views they compare and the scopes and engines they share.
"""

from __future__ import annotations

import functools
import random
import string

from .inference import Engine, InferenceMode
from .logic import (
    MAX_ATOMS,
    BeliefBase,
    Bot,
    Conditional,
    Conj,
    Disj,
    Formula,
    Neg,
    Record,
    Signature,
    Top,
    Var,
)
from .preferred import PreferredStructure, _bits
from .tolerance import tolerance_partition


class GenerationError(RuntimeError, ValueError):
    """No consistent draw; a ValueError, as every fault of the package is."""


# A k-atom part of an n-atom signature keeps 2^(k + n) bits of world masks.
MAX_SCOPE_BITS = 28


class PartScope:
    """Semantic-formula machinery for one group of atoms of a signature.

    A semantic formula over the part is a bitmask over the part's sub-worlds;
    `lift` turns it into a model mask over the full world space.
    """

    def __init__(self, sig: Signature, atoms: tuple | list):
        self.sig = sig
        self.atoms = tuple(atoms)
        positions = [sig.index(a) for a in self.atoms]
        if len(self.atoms) + sig.num_atoms > MAX_SCOPE_BITS:
            raise ValueError(f"the {len(self.atoms)}-atom part {{{','.join(self.atoms)}}} "
                             f"of a {sig.num_atoms}-atom signature is over the limit of "
                             f"{MAX_SCOPE_BITS} part and signature atoms together")
        self.full_sub = (1 << (1 << len(self.atoms))) - 1
        # Group s: the worlds where each atom j is true iff bit j of s is set.
        groups = [sig.full_mask]
        minterms = [()]
        for a, p in zip(self.atoms, positions):
            true = sig.atom_mask(p)
            groups = [g & ~true for g in groups] + [g & true for g in groups]
            pos = Var(a)
            neg = Neg(pos)
            minterms = [m + (neg,) for m in minterms] + [m + (pos,) for m in minterms]
        self.group_masks = groups
        self._minterms = [m[0] if len(m) == 1 else Conj(m) for m in minterms]
        self._atom_set = frozenset(self.atoms)  # every minterm mentions each atom

    def lift(self, t: int) -> int:
        mask = 0
        while t:
            low = t & -t
            mask |= self.group_masks[low.bit_length() - 1]
            t ^= low
        return mask

    def formula(self, t: int) -> Formula:
        """Disjunctive-normal-form formula over the part with sub-model set t."""
        if t == 0:
            return Formula(self.sig, Bot(), 0)
        if t == self.full_sub:
            return Formula(self.sig, Top(), self.sig.full_mask)
        # Terms and mask in one pass: a second one through `lift` slowed fuzz by a tenth.
        mask, terms = 0, []
        while t:
            low = t & -t
            s = low.bit_length() - 1
            mask |= self.group_masks[s]
            terms.append(self._minterms[s])
            t ^= low
        node = terms[0] if len(terms) == 1 else Disj(tuple(terms))
        return Formula(self.sig, node, mask, self._atom_set)


class SyntaxSplitting:
    """A syntax splitting of a belief base: a partition of its signature
    into parts such that each conditional uses the atoms of one part only.
    Each part's conditionals follow from the parts; an atom-free conditional
    goes to the first part. Parts that are not such a partition are refused
    here, when the splitting is built. No parts at all are read as the one
    empty part of a zero-atom signature.

    `parts` is an iterable of atom sequences, and `scopes` one of
    `PartScope`s over the base's signature. `views` are the bipartitions the
    checks compare, each a pair of sides (atoms, conditional indices): the
    splitting itself for two parts, every part against the rest for more,
    none for one. The checks of a splitting share its `PartScope` per side,
    its sub-base per side and its `Engine` per mode and sub-base, each built
    on first use unless `scopes` holds the scope. As a sub-base is built
    once, the W, Z and P engines of a side share its tolerance partition.
    """

    def __init__(self, base: BeliefBase, parts, scopes=()):
        parts = tuple(tuple(part) for part in parts) or ((),)
        home = {a: n for n, part in enumerate(parts) for a in part}  # atom -> part
        if len(home) != sum(map(len, parts)):
            raise ValueError("splitting parts overlap")
        atoms = base.signature.atoms
        if home.keys() != set(atoms):
            raise ValueError("splitting parts do not cover the signature")
        part_sets = [frozenset(part) for part in parts]
        cond_parts = [set() for _ in parts]
        for i, c in enumerate(base):
            used = c.atoms()
            n = home[next(iter(used))] if used else 0
            if not used <= part_sets[n]:
                raise ValueError(f"conditional {c} uses atoms outside its part")
            cond_parts[n].add(i)
        self.base = base
        self.parts = parts
        self.conditional_parts = tuple(frozenset(s) for s in cond_parts)
        sides = tuple(zip(parts, self.conditional_parts))
        if len(sides) < 3:
            self.views = (sides,) if len(sides) == 2 else ()
        else:
            every = frozenset(base.indices())
            self.views = tuple(
                ((part, idxs), (tuple(a for a in atoms if home[a] != n), every - idxs))
                for n, (part, idxs) in enumerate(sides))
        self._scopes = {s.atoms: s for s in scopes}  # atoms -> PartScope
        self._bases = {frozenset(base.indices()): base}  # conditional indices -> sub-base
        self._engines: dict = {}  # (mode, conditional indices) -> Engine

    def scope(self, atoms: tuple) -> PartScope:
        """The scope of one side's atoms."""
        scope = self._scopes.get(atoms)
        if scope is None:
            scope = self._scopes[atoms] = PartScope(self.base.signature, atoms)
        return scope

    def engine(self, mode: InferenceMode, indices: frozenset | None = None) -> Engine:
        """The engine of the sub-base of the conditionals `indices`, by
        default of the whole base. A sub-base is a belief base of its own,
        its conditionals in base order and numbered from 0; every mode's
        engine of it reads the same one."""
        base = self.base
        indices = frozenset(base.indices()) if indices is None else indices
        engine = self._engines.get((mode, indices))
        if engine is None:
            sub = self._bases.get(indices)
            if sub is None:
                sub = self._bases[indices] = BeliefBase(
                    base.signature, [base[i] for i in sorted(indices)])
            engine = self._engines[mode, indices] = Engine(sub, mode)
        return engine

    def structure(self, indices: frozenset | None = None) -> PreferredStructure:
        """The preferred structure of the sub-base of `indices`, read from
        its W engine."""
        return self.engine(InferenceMode.W, indices).preferred_structure


def detect_splitting(base: BeliefBase) -> SyntaxSplitting:
    """Finest syntax splitting: connected components of atom co-occurrence.
    Each conditional merges the parts its atoms meet; the parts come in the
    order of their lowest atom, each part's atoms in signature order."""
    atoms = base.signature.atoms
    part = {a: frozenset((a,)) for a in atoms}  # atom -> its part so far
    for c in base:
        merged = frozenset().union(*map(part.__getitem__, c.atoms()))
        for a in merged:
            part[a] = merged
    parts: dict = {}  # part -> its atoms in signature order
    for a in atoms:
        parts.setdefault(part[a], []).append(a)
    return SyntaxSplitting(base, parts.values())


class PostulateReport(Record):
    __slots__ = ("postulate", "passed", "witness", "search_bounds")

    def __init__(self, postulate: str, passed: bool, witness: dict | None = None,
                 search_bounds: str = ""):
        self.postulate = postulate
        self.passed = passed
        self.witness = witness
        self.search_bounds = search_bounds

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        out = f"{self.postulate}: {verdict}"
        if self.search_bounds:
            out += f" [{self.search_bounds}]"
        if self.witness:
            detail = " ".join(f"{k}={v}" for k, v in self.witness.items())
            out += f" witness: {detail}"
        return out

    def to_dict(self) -> dict:
        return {
            "postulate": self.postulate,
            "verdict": "pass" if self.passed else "fail",
            "witness": self.witness,
            "search_bounds": self.search_bounds,
        }


# Exhaustive search over a k-atom part enumerates all 2^(2^k) semantic
# formulas: 65,536 at k = 4, whose pairs alone are 4.3e9 queries.
MAX_EXHAUSTIVE_ATOMS = 3
# Semantic formulas drawn per part outside the exhaustive bound.
SAMPLES = 200


def _semantic_values(scope: PartScope, bound: int, rng: random.Random) -> list:
    """(t, lift(t)) of the semantic formulas t searched over the scope's part:
    every one within the bound or the sample size, else SAMPLES draws."""
    k = len(scope.atoms)
    if MAX_EXHAUSTIVE_ATOMS < k <= bound:
        raise ValueError(
            f"bound {bound} makes the search over the {k}-atom part "
            f"{{{','.join(scope.atoms)}}} exhaustive (2^{2 ** k} formulas); "
            f"exhaustive search is limited to {MAX_EXHAUSTIVE_ATOMS} atoms"
        )
    space = scope.full_sub + 1
    if k <= bound or space <= SAMPLES:
        values = range(space)
    else:
        values = [rng.randrange(space) for _ in range(SAMPLES)]
    return [(t, scope.lift(t)) for t in values]


def check_rel(
    splitting: SyntaxSplitting,
    mode: InferenceMode,
    bound: int = 2,
    seed: int = 0,
) -> PostulateReport:
    """Inferences over one part must coincide with those from that part's
    conditionals alone (evaluated over the full signature)."""
    full_engine = splitting.engine(mode)
    rng = random.Random(seed)
    checked = 0
    for view in splitting.views:
        for atoms, idxs in view:
            scope = splitting.scope(atoms)
            sub_engine = splitting.engine(mode, idxs)
            values = _semantic_values(scope, bound, rng)
            for ta, a in values:
                for tb, b in values:
                    got_full = full_engine.entails_masks(a, b)
                    got_sub = sub_engine.entails_masks(a, b)
                    checked += 1
                    if got_full != got_sub:
                        return PostulateReport(
                            "rel", False,
                            witness={
                                "A": str(scope.formula(ta)),
                                "B": str(scope.formula(tb)),
                                "part": ",".join(atoms),
                                "full_base": got_full,
                                "part_base": got_sub,
                            },
                            search_bounds=_bounds_text(mode, bound, seed, checked),
                        )
    return PostulateReport("rel", True,
                           search_bounds=_bounds_text(mode, bound, seed, checked))


def check_ind(
    splitting: SyntaxSplitting,
    mode: InferenceMode,
    bound: int = 2,
    seed: int = 0,
) -> PostulateReport:
    """Conjoining consistent information over the other part must not change
    inferences over a part."""
    engine = splitting.engine(mode)
    rng = random.Random(seed)
    checked = 0
    for view in splitting.views:
        for (atoms_i, _), (atoms_j, _) in (view, view[::-1]):
            scope_i = splitting.scope(atoms_i)
            scope_j = splitting.scope(atoms_j)
            values_ab = _semantic_values(scope_i, bound, rng)
            values_d = [(t, d) for t, d in _semantic_values(scope_j, bound, rng) if t != 0]
            for ta, a in values_ab:
                for tb, b in values_ab:
                    plain = engine.entails_masks(a, b)
                    for td, d in values_d:
                        conjoined = engine.entails_masks(a & d, b)
                        checked += 1
                        if plain != conjoined:
                            return PostulateReport(
                                "ind", False,
                                witness={
                                    "A": str(scope_i.formula(ta)),
                                    "B": str(scope_i.formula(tb)),
                                    "D": str(scope_j.formula(td)),
                                    "without_d": plain,
                                    "with_d": conjoined,
                                },
                                search_bounds=_bounds_text(mode, bound, seed, checked),
                            )
    return PostulateReport("ind", True,
                           search_bounds=_bounds_text(mode, bound, seed, checked))


def check_synsplit(
    splitting: SyntaxSplitting,
    mode: InferenceMode,
    bound: int = 2,
    seed: int = 0,
) -> PostulateReport:
    rel = check_rel(splitting, mode, bound, seed)
    ind = check_ind(splitting, mode, bound, seed)
    passed = rel.passed and ind.passed
    witness = None
    if not passed:
        failing = rel if not rel.passed else ind
        witness = dict(failing.witness or {})
        witness["failing_postulate"] = failing.postulate
    return PostulateReport(
        "synsplit", passed, witness=witness,
        search_bounds=f"rel: {rel.search_bounds}; ind: {ind.search_bounds}",
    )


def _bounds_text(mode: InferenceMode, bound: int, seed: int, checked: int) -> str:
    return f"mode={mode.value} exhaustive<= {bound} atoms seed={seed} instances={checked}"


def check_di(engine: Engine) -> PostulateReport:
    """Every conditional of the engine's base must be inferable from it."""
    base, mode = engine.base, engine.mode
    for i in base.indices():
        c = base[i]
        if not engine.entails_masks(c.antecedent.mask, c.consequent.mask):
            return PostulateReport(
                "di", False,
                witness={"conditional": str(c), "index": i},
                search_bounds=f"mode={mode.value} conditionals={len(base)}",
            )
    return PostulateReport(
        "di", True, search_bounds=f"mode={mode.value} conditionals={len(base)}"
    )


TV_ATOMS = 3  # (TV) decides all 65,536 formula pairs over 3 atoms


def check_tv(mode: InferenceMode) -> PostulateReport:
    """On the empty base, inference must coincide with classical entailment
    on all formula pairs over a fresh signature, which `pairs=` counts. As
    A |~ B iff C(A) ⊆ B, one C(A) = A per formula A decides all its pairs."""
    sig = Signature(tuple(string.ascii_lowercase[:TV_ATOMS]))
    engine = Engine(BeliefBase(sig, ()), mode)
    space = sig.full_mask + 1
    bounds = f"mode={mode.value} atoms={TV_ATOMS}"
    for a in range(space):
        c = engine.consequence(a)
        if c != a:  # B = A or B = C(A) tells them apart
            b = next(b for b in range(space) if (c & ~b == 0) != (a & ~b == 0))
            scope = PartScope(sig, sig.atoms)
            witness = {"A": str(scope.formula(a)), "B": str(scope.formula(b))}
            return PostulateReport("tv", False, witness, f"{bounds} exhaustive")
    return PostulateReport("tv", True, search_bounds=f"{bounds} pairs={space * space}")


# --- order lemmas for split bases --------------------------------------------


def check_lemma1(splitting: SyntaxSplitting) -> PostulateReport:
    """The tolerance partition of a split base restricts to the sub-bases'
    partitions layer by layer, and the layer counts and tails line up."""
    full = splitting.structure().partition.layers
    bounds = "partition comparison"
    for view in splitting.views:
        sides = []  # each side's layers of sub-base positions, as base indices
        for _, idxs in view:
            order = sorted(idxs)
            sides.append([frozenset(order[p] for p in layer)
                          for layer in splitting.structure(idxs).partition.layers])
        for (_, idxs), layers in zip(view, sides):
            for j, layer in enumerate(layers):
                expected = full[j] & idxs if j < len(full) else frozenset()
                if layer != expected:
                    return PostulateReport("lemma1", False, {
                        "claim": 1, "layer": j, "sub": sorted(layer),
                        "expected": sorted(expected)}, bounds)
        l1, l2 = (len(layers) - 1 for layers in sides)
        if max(l1, l2) != len(full) - 1:
            return PostulateReport("lemma1", False, {
                "claim": 2, "l1": l1, "l2": l2, "k": len(full) - 1}, bounds)
        for j, layer in enumerate(full):  # a side with fewer layers adds nothing
            union = frozenset().union(*(layers[j] for layers in sides if j < len(layers)))
            if layer != union:
                return PostulateReport("lemma1", False, {
                    "claim": 3, "layer": j, "full": sorted(layer),
                    "union": sorted(union)}, bounds)
    return PostulateReport("lemma1", True, search_bounds=bounds)


def _by_lowest(ps: PreferredStructure) -> list:
    """The classes of a structure, in ascending order of their lowest world."""
    members = ps.class_index[2]
    return sorted(range(len(members)), key=lambda c: members[c][0])


def _side(splitting: SyntaxSplitting, idxs: frozenset) -> tuple:
    """One side of a view, seen from the base's classes: per base class, its
    side class, read at its lowest world; per side class, the base classes
    within it, and those whose side class is below it under the side."""
    side = splitting.structure(idxs)
    class_of, keys, _ = side.class_index
    of = [class_of[m[0]] for m in splitting.structure().class_index[2]]
    within = [0] * len(keys)  # disjoint, so a sum of them is their union
    for c, s in enumerate(of):
        within[s] |= 1 << c
    return of, within, [sum(map(within.__getitem__, _bits(below)))
                        for below, _ in side._descent()]


def _lemma_report(name: str, sig: Signature, witness: dict | None = None,
                  bounds: str = "exhaustive") -> PostulateReport:
    return PostulateReport(name, witness is None, witness, f"worlds={sig.num_worlds} {bounds}")


# Lemmas 2-4 ask once per class, in ascending order of its lowest world, so
# the first that fails holds the lowest failing world: a side's class depends
# on its own part's atoms alone, so the classes of a split base are pairs of
# side classes, and each lemma holds for all worlds of a class or for none.
# Lemmas 2 and 3 ask every view in one descent of the base, keep each check's
# first failure and report the first check's, as one view at a time would.


def check_lemma2(splitting: SyntaxSplitting) -> PostulateReport:
    """Every relation of the split base is already present under one sub-base."""
    sig, ps, views = splitting.base.signature, splitting.structure(), splitting.views
    if not views:  # one part: no class is built
        return _lemma_report("lemma2", sig, bounds="related_pairs=0")
    members, order, pairs, first = ps.class_index[2], _by_lowest(ps), 0, {}
    sides = [_side(splitting, idx1) + _side(splitting, idx2) for (_, idx1), (_, idx2) in views]
    # Bit b of each class's size, as a mask over classes, weighs the classes
    # below one class in one AND per bit.
    sizes = [len(m) for m in members]
    planes = [int("".join(str(n >> b & 1) for n in reversed(sizes)), 2)
              for b in range(max(sizes).bit_length())]
    for c, (below, _) in zip(order, ps._descent(order)):
        pairs += sizes[c] * sum((below & p).bit_count() << b for b, p in enumerate(planes))
        for v, (of1, _, lift1, of2, _, lift2) in enumerate(sides):
            viol = below & ~(lift1[of1[c]] | lift2[of2[c]])
            if viol and v not in first:
                first[v] = c, viol
        if 0 in first:
            break
    if first:
        c, viol = first[min(first)]
        w = min(members[d][0] for d in _bits(viol))
        return _lemma_report("lemma2", sig, {
            "world": sig.render_world(w), "world2": sig.render_world(members[c][0])})
    return _lemma_report("lemma2", sig, bounds=f"related_pairs={pairs * len(views)}")


def check_lemma3(splitting: SyntaxSplitting) -> PostulateReport:
    """A sub-base relation between worlds agreeing on the other part carries
    over to the full base. Two classes hold such worlds iff they share their
    class under the other side, since each class of a side meets every group
    of the other part's atoms."""
    sig, ps, checks, first = splitting.base.signature, splitting.structure(), [], {}
    for (atoms1, idx1), (atoms2, idx2) in splitting.views:
        side1, side2 = _side(splitting, idx1), _side(splitting, idx2)
        checks += [(atoms2, "part1") + side1 + side2, (atoms1, "part2") + side2 + side1]
    order = _by_lowest(ps) if checks else []  # one part: no class is built
    for c, (below, _) in zip(order, ps._descent(order)):
        for n, (_, _, of, _, lift, other_of, same, _) in enumerate(checks):
            viol = lift[of[c]] & same[other_of[c]] & ~below
            if viol and n not in first:
                first[n] = (c, viol) + checks[n][:2]
        if 0 in first:
            break
    if first:
        (c, viol, other, tag), members = first[min(first)], ps.class_index[2]
        w2, part = members[c][0], sum(1 << sig.index(a) for a in other)
        w = min(next(w for w in members[d] if not (w ^ w2) & part) for d in _bits(viol))
        return _lemma_report("lemma3", sig, {
            "world": sig.render_world(w), "world2": sig.render_world(w2), "side": tag})
    return _lemma_report("lemma3", sig)


def check_lemma4(splitting: SyntaxSplitting) -> PostulateReport:
    """Whether a world sits below another under a sub-base depends only on its
    marginal over that sub-base's part: each marginal class lies either wholly
    inside or wholly outside the set of worlds below any world. A relation
    between classes splits no group of worlds that lies within one class, so
    only the groups that meet two classes of the side's index can fail."""
    sig = splitting.base.signature
    for view in splitting.views:
        for (atoms, idxs), tag in zip(view, ("part1", "part2")):
            side = splitting.structure(idxs)
            class_of, _, members = side.class_index
            positions = [sig.index(a) for a in atoms]
            part = sum(1 << p for p in positions)
            # A group's lowest world is its part assignment g: a world of
            # another class than g's puts its group in two classes.
            split = {w & part for w, c in enumerate(class_of) if c != class_of[w & part]}
            groups = sorted(([w for w in range(sig.num_worlds) if w & part == g] for g in split),
                            key=lambda group: [group[0] >> p & 1 for p in reversed(positions)])
            order = _by_lowest(side) if groups else []  # no group: no descent
            for c, (below, _) in zip(order, side._descent(order)):
                for group in groups:
                    inside = [w for w in group if below >> class_of[w] & 1]
                    outside = [w for w in group if not below >> class_of[w] & 1]
                    if inside and outside:
                        return _lemma_report("lemma4", sig, {
                            "world_a": sig.render_world(inside[0]),
                            "world_b": sig.render_world(outside[0]),
                            "world2": sig.render_world(members[c][0]), "side": tag})
    return _lemma_report("lemma4", sig)


LEMMA_CHECKS = {
    "lemma1": check_lemma1,
    "lemma2": check_lemma2,
    "lemma3": check_lemma3,
    "lemma4": check_lemma4,
}


# --- seeded generation of split belief bases ---------------------------------

# Both parts are redrawn together: two 1-atom parts of 3 conditionals are
# consistent in 1 draw of 64, so 10,000 draws all fail with odds of 4e-69.
MAX_GENERATION_ATTEMPTS = 10_000


@functools.lru_cache(maxsize=1)
def _split_scopes(vars_per_part: int) -> tuple:
    """(signature, atoms1, atoms2, scopes) of the generator's two parts.

    The pair depends on the part size alone and nothing a case does changes
    it, so every case of a run shares it. One pair is held: at 9 atoms per
    part, the largest that builds, its group masks take 2 x 16 MiB.
    """
    atoms1 = tuple(string.ascii_lowercase[:vars_per_part])
    atoms2 = tuple(string.ascii_lowercase[vars_per_part:2 * vars_per_part])
    sig = Signature(atoms1 + atoms2)
    return sig, atoms1, atoms2, (PartScope(sig, atoms1), PartScope(sig, atoms2))


def generate_split_base(vars_per_part: int, conds_per_part: int, seed: int) -> tuple:
    """Deterministic consistent belief base with a built-in two-part splitting.

    Antecedents and consequents are drawn as non-trivial semantic formulas
    (neither tautology nor contradiction) over their part; inconsistent draws
    are retried up to MAX_GENERATION_ATTEMPTS times. Every case of one part
    size is drawn over the same signature and the same two scopes, kept
    between calls; one pair is held at a time, 32 MiB at 9 atoms per part.
    """
    if vars_per_part < 1 or 2 * vars_per_part > MAX_ATOMS:
        raise ValueError("vars_per_part out of range")
    rng = random.Random(seed)
    sig, atoms1, atoms2, scopes = _split_scopes(vars_per_part)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        conds = []
        for scope in scopes:
            for _ in range(conds_per_part):
                ta = rng.randrange(1, scope.full_sub)
                tb = rng.randrange(1, scope.full_sub)
                conds.append(Conditional(scope.formula(ta), scope.formula(tb)))
        base = BeliefBase(sig, conds)
        if tolerance_partition(base) is not None:
            return base, SyntaxSplitting(base, (atoms1, atoms2), scopes)
    raise GenerationError(
        f"no consistent base found in {MAX_GENERATION_ATTEMPTS} attempts (seed={seed})"
    )
