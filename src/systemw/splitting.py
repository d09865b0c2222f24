"""Syntax splitting: detection, postulate checkers, order lemmas, fuzzing.

The checkers quantify over semantic formulas, i.e. subsets of the sub-world
space of a signature part, because every implemented inference mode is
invariant under logical equivalence. Enumeration is exhaustive for parts of
at most `bound` atoms and seeded-random beyond that.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Optional, Sequence

from .inference import Engine, InferenceMode
from .logic import (
    BeliefBase,
    Bot,
    Conditional,
    Conj,
    Disj,
    Formula,
    Neg,
    Signature,
    Top,
    Var,
)
from .preferred import PreferredStructure
from .tolerance import tolerance_partition


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SyntaxSplitting:
    """Partition of the signature with the induced partition of conditionals."""

    parts: tuple  # tuple of tuples of atom names, each in signature order
    conditional_parts: tuple  # tuple of frozensets of conditional indices

    def validate(self, base: BeliefBase) -> None:
        sig_atoms = set(base.signature.atoms)
        seen: set = set()
        for part in self.parts:
            pset = set(part)
            if pset & seen:
                raise ValueError("splitting parts overlap")
            seen |= pset
        if seen != sig_atoms:
            raise ValueError("splitting parts do not cover the signature")
        all_idx: set = set()
        for part, idxs in zip(self.parts, self.conditional_parts):
            pset = set(part)
            for i in idxs:
                if not base[i].atoms() <= pset:
                    raise ValueError(
                        f"conditional {base[i]} uses atoms outside its part"
                    )
            all_idx |= set(idxs)
        if all_idx != set(base.indices()):
            raise ValueError("conditional parts do not partition the belief base")


def detect_splitting(base: BeliefBase) -> SyntaxSplitting:
    """Finest syntax splitting: connected components of atom co-occurrence."""
    sig = base.signature
    parent = list(range(sig.num_atoms))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for c in base:
        positions = sorted(sig.index(a) for a in c.atoms())
        for p in positions[1:]:
            union(positions[0], p)

    roots: dict = {}
    for i in range(sig.num_atoms):
        roots.setdefault(find(i), []).append(i)
    components = sorted(roots.values(), key=lambda ps: ps[0])
    parts = tuple(tuple(sig.atoms[i] for i in ps) for ps in components)
    root_to_part = {find(ps[0]): n for n, ps in enumerate(components)}

    cond_parts = [set() for _ in parts] or [set()]
    for i in base.indices():
        atoms = base[i].atoms()
        if atoms:
            cond_parts[root_to_part[find(sig.index(next(iter(atoms))))]].add(i)
        else:
            # Atom-free conditional; it fits any part's language.
            cond_parts[0].add(i)
    if not parts and len(base):
        return SyntaxSplitting(((),), (frozenset(cond_parts[0]),))
    return SyntaxSplitting(parts, tuple(frozenset(s) for s in cond_parts))


# A k-atom part of an n-atom signature keeps 2^(k + n) bits of world masks.
MAX_SCOPE_BITS = 28


class PartScope:
    """Semantic-formula machinery for one group of atoms of a signature.

    A semantic formula over the part is a bitmask over the part's sub-worlds;
    `lift` turns it into a model mask over the full world space.
    """

    def __init__(self, sig: Signature, atoms: Sequence[str]):
        self.sig = sig
        self.atoms = tuple(atoms)
        self.positions = [sig.index(a) for a in self.atoms]
        if len(self.atoms) + sig.num_atoms > MAX_SCOPE_BITS:
            raise ValueError(f"the {len(self.atoms)}-atom part {{{','.join(self.atoms)}}} "
                             f"of a {sig.num_atoms}-atom signature is over the limit of "
                             f"{MAX_SCOPE_BITS} part and signature atoms together")
        self.full_sub = (1 << (1 << len(self.atoms))) - 1
        # Group s: the worlds where each atom j is true iff bit j of s is set.
        groups = [sig.full_mask]
        minterms = [()]
        for a, p in zip(self.atoms, self.positions):
            true = sig.atom_mask(p)
            groups = [g & ~true for g in groups] + [g & true for g in groups]
            pos, neg = Var(a), Neg(Var(a))
            minterms = [m + (neg,) for m in minterms] + [m + (pos,) for m in minterms]
        self.group_masks = groups
        self._minterms = [m[0] if len(m) == 1 else Conj(m) for m in minterms]

    def lift(self, t: int) -> int:
        mask = 0
        while t:
            low = t & -t
            mask |= self.group_masks[low.bit_length() - 1]
            t ^= low
        return mask

    def group_of(self, w: int) -> int:
        """Mask of the worlds that agree with world w on the part's atoms."""
        s = 0
        for j, p in enumerate(self.positions):
            s |= ((w >> p) & 1) << j
        return self.group_masks[s]

    def formula(self, t: int) -> Formula:
        """Disjunctive-normal-form formula over the part with sub-model set t."""
        if t == 0:
            return Formula(self.sig, Bot(), 0)
        if t == self.full_sub:
            return Formula(self.sig, Top(), self.sig.full_mask)
        mask, terms = 0, []
        while t:
            low = t & -t
            s = low.bit_length() - 1
            mask |= self.group_masks[s]
            terms.append(self._minterms[s])
            t ^= low
        node = terms[0] if len(terms) == 1 else Disj(tuple(terms))
        return Formula(self.sig, node, mask)


@dataclass
class PostulateReport:
    postulate: str
    passed: bool
    witness: Optional[dict] = None
    search_bounds: str = ""

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


def two_part_views(base: BeliefBase, splitting: SyntaxSplitting) -> list:
    """Bipartitions to check: the splitting itself for two parts, otherwise
    every part-versus-rest view."""
    splitting.validate(base)
    parts = splitting.parts
    if len(parts) < 2:
        return []
    sides = [
        (parts[i], frozenset(splitting.conditional_parts[i]))
        for i in range(len(parts))
    ]
    if len(parts) == 2:
        return [(sides[0], sides[1])]
    views = []
    order = {a: i for i, a in enumerate(base.signature.atoms)}
    for i in range(len(parts)):
        rest_atoms = tuple(
            sorted((a for j, p in enumerate(parts) if j != i for a in p),
                   key=order.__getitem__)
        )
        rest_idx = frozenset().union(
            *(splitting.conditional_parts[j] for j in range(len(parts)) if j != i)
        )
        views.append((sides[i], (rest_atoms, rest_idx)))
    return views


# Exhaustive search over a k-atom part enumerates all 2^(2^k) semantic
# formulas: 65,536 at k = 4, whose pairs alone are 4.3e9 queries.
MAX_EXHAUSTIVE_ATOMS = 3
# Semantic formulas drawn per part outside the exhaustive bound.
SAMPLES = 200


def _semantic_values(scope: PartScope, bound: int, rng: random.Random) -> list:
    k = len(scope.atoms)
    if k <= bound:
        if k > MAX_EXHAUSTIVE_ATOMS:
            raise ValueError(
                f"bound {bound} makes the search over the {k}-atom part "
                f"{{{','.join(scope.atoms)}}} exhaustive (2^{2 ** k} formulas); "
                f"exhaustive search is limited to {MAX_EXHAUSTIVE_ATOMS} atoms"
            )
        return list(range(scope.full_sub + 1))
    space = scope.full_sub + 1
    if space <= SAMPLES:
        return list(range(space))
    return [rng.randrange(space) for _ in range(SAMPLES)]


def check_rel(
    base: BeliefBase,
    splitting: SyntaxSplitting,
    mode: InferenceMode,
    bound: int = 2,
    seed: int = 0,
) -> PostulateReport:
    """Inferences over one part must coincide with those from that part's
    conditionals alone (evaluated over the full signature)."""
    full_engine = Engine(base, mode)
    rng = random.Random(seed)
    checked = 0
    for view in two_part_views(base, splitting):
        for atoms, idxs in view:
            scope = PartScope(base.signature, atoms)
            sub_engine = Engine(base, mode, indices=sorted(idxs))
            values = _semantic_values(scope, bound, rng)
            for ta in values:
                a = scope.lift(ta)
                for tb in values:
                    b = scope.lift(tb)
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
    base: BeliefBase,
    splitting: SyntaxSplitting,
    mode: InferenceMode,
    bound: int = 2,
    seed: int = 0,
) -> PostulateReport:
    """Conjoining consistent information over the other part must not change
    inferences over a part."""
    engine = Engine(base, mode)
    rng = random.Random(seed)
    checked = 0
    for view in two_part_views(base, splitting):
        for (atoms_i, _), (atoms_j, _) in (view, view[::-1]):
            scope_i = PartScope(base.signature, atoms_i)
            scope_j = PartScope(base.signature, atoms_j)
            values_ab = _semantic_values(scope_i, bound, rng)
            values_d = [(t, scope_j.lift(t))
                        for t in _semantic_values(scope_j, bound, rng) if t != 0]
            for ta in values_ab:
                a = scope_i.lift(ta)
                for tb in values_ab:
                    b = scope_i.lift(tb)
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
    base: BeliefBase,
    splitting: SyntaxSplitting,
    mode: InferenceMode,
    bound: int = 2,
    seed: int = 0,
) -> PostulateReport:
    rel = check_rel(base, splitting, mode, bound, seed)
    ind = check_ind(base, splitting, mode, bound, seed)
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


def check_di(base: BeliefBase, mode: InferenceMode) -> PostulateReport:
    """Every conditional of the base must be inferable from the base."""
    engine = Engine(base, mode)
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


def check_tv(mode: InferenceMode, num_atoms: int = 3) -> PostulateReport:
    """On the empty base, inference must coincide with classical entailment;
    exhaustive over all semantic formula pairs of a fresh signature."""
    sig = Signature(string.ascii_lowercase[:num_atoms])
    base = BeliefBase(sig, ())
    engine = Engine(base, mode)
    full = sig.full_mask
    space = full + 1
    for a in range(space):
        for b in range(space):
            expected = a & ~b & full == 0
            if engine.entails_masks(a, b) != expected:
                scope = PartScope(sig, sig.atoms)
                return PostulateReport(
                    "tv", False,
                    witness={"A": str(scope.formula(a)), "B": str(scope.formula(b))},
                    search_bounds=f"mode={mode.value} atoms={num_atoms} exhaustive",
                )
    return PostulateReport(
        "tv", True,
        search_bounds=f"mode={mode.value} atoms={num_atoms} pairs={space * space}",
    )


# --- order lemmas for split bases --------------------------------------------


def check_lemma1(base: BeliefBase, splitting: SyntaxSplitting) -> PostulateReport:
    """The tolerance partition of a split base restricts to the sub-bases'
    partitions layer by layer, and the layer counts and tails line up."""
    op = tolerance_partition(base)
    if op is None:
        raise ValueError("belief base is inconsistent")
    k = op.k
    for view in two_part_views(base, splitting):
        subs = []
        for _, idxs in view:
            sub = tolerance_partition(base, sorted(idxs))
            if sub is None:
                return PostulateReport(
                    "lemma1", False,
                    witness={"reason": "sub-base inconsistent"},
                    search_bounds="partition comparison",
                )
            subs.append(sub)
        for (_, idxs), sub in zip(view, subs):
            for j in range(sub.k + 1):
                expected = op.layers[j] & idxs if j <= k else frozenset()
                if sub.layers[j] != expected:
                    return PostulateReport(
                        "lemma1", False,
                        witness={"claim": 1, "layer": j,
                                 "sub": sorted(sub.layers[j]),
                                 "expected": sorted(expected)},
                        search_bounds="partition comparison",
                    )
        l1, l2 = subs[0].k, subs[1].k
        if max(l1, l2) != k:
            return PostulateReport(
                "lemma1", False,
                witness={"claim": 2, "l1": l1, "l2": l2, "k": k},
                search_bounds="partition comparison",
            )
        lo, hi = (subs[0], subs[1]) if l1 <= l2 else (subs[1], subs[0])
        for j in range(k + 1):
            low_layer = lo.layers[j] if j <= lo.k else frozenset()
            if op.layers[j] != low_layer | hi.layers[j]:
                return PostulateReport(
                    "lemma1", False,
                    witness={"claim": 3, "layer": j,
                             "full": sorted(op.layers[j]),
                             "union": sorted(low_layer | hi.layers[j])},
                    search_bounds="partition comparison",
                )
    return PostulateReport("lemma1", True, search_bounds="partition comparison")


def _split_structures(base: BeliefBase, view) -> tuple:
    (atoms1, idx1), (atoms2, idx2) = view
    ps = PreferredStructure(base)
    ps1 = PreferredStructure(base, indices=sorted(idx1))
    ps2 = PreferredStructure(base, indices=sorted(idx2))
    scope1 = PartScope(base.signature, atoms1)
    scope2 = PartScope(base.signature, atoms2)
    return ps, ps1, ps2, scope1, scope2


def _world_pair_witness(sig: Signature, viol: int, w2: int) -> dict:
    w = (viol & -viol).bit_length() - 1
    return {"world": sig.render_world(w), "world2": sig.render_world(w2)}


def check_lemma2(base: BeliefBase, splitting: SyntaxSplitting) -> PostulateReport:
    """Every relation of the split base is already present under one sub-base."""
    sig = base.signature
    pairs = 0
    for view in two_part_views(base, splitting):
        ps, ps1, ps2, _, _ = _split_structures(base, view)
        for w2 in range(sig.num_worlds):
            below = ps.below(w2)
            viol = below & ~(ps1.below(w2) | ps2.below(w2))
            pairs += below.bit_count()
            if viol:
                return PostulateReport(
                    "lemma2", False,
                    witness=_world_pair_witness(sig, viol, w2),
                    search_bounds=f"worlds={sig.num_worlds} exhaustive",
                )
    return PostulateReport(
        "lemma2", True,
        search_bounds=f"worlds={sig.num_worlds} related_pairs={pairs}",
    )


def check_lemma3(base: BeliefBase, splitting: SyntaxSplitting) -> PostulateReport:
    """A sub-base relation between worlds agreeing on the other part carries
    over to the full base."""
    sig = base.signature
    for view in two_part_views(base, splitting):
        ps, ps1, ps2, scope1, scope2 = _split_structures(base, view)
        for sub_ps, other_scope, tag in ((ps1, scope2, "part1"), (ps2, scope1, "part2")):
            for w2 in range(sig.num_worlds):
                same = other_scope.group_of(w2)
                viol = sub_ps.below(w2) & same & ~ps.below(w2)
                if viol:
                    witness = _world_pair_witness(sig, viol, w2)
                    witness["side"] = tag
                    return PostulateReport(
                        "lemma3", False, witness=witness,
                        search_bounds=f"worlds={sig.num_worlds} exhaustive",
                    )
    return PostulateReport(
        "lemma3", True, search_bounds=f"worlds={sig.num_worlds} exhaustive"
    )


def check_lemma4(base: BeliefBase, splitting: SyntaxSplitting) -> PostulateReport:
    """Whether a world sits below another under a sub-base depends only on its
    marginal over that sub-base's part: each marginal class lies either wholly
    inside or wholly outside the set of worlds below any world."""
    sig = base.signature
    for view in two_part_views(base, splitting):
        _, ps1, ps2, scope1, scope2 = _split_structures(base, view)
        for sub_ps, scope, tag in ((ps1, scope1, "part1"), (ps2, scope2, "part2")):
            for w2 in range(sig.num_worlds):
                doms = sub_ps.below(w2)
                for gm in scope.group_masks:
                    inside = doms & gm
                    if inside and inside != gm:
                        outside = gm & ~doms
                        wa = (inside & -inside).bit_length() - 1
                        wb = (outside & -outside).bit_length() - 1
                        return PostulateReport(
                            "lemma4", False,
                            witness={
                                "world_a": sig.render_world(wa),
                                "world_b": sig.render_world(wb),
                                "world2": sig.render_world(w2),
                                "side": tag,
                            },
                            search_bounds=f"worlds={sig.num_worlds} exhaustive",
                        )
    return PostulateReport(
        "lemma4", True, search_bounds=f"worlds={sig.num_worlds} exhaustive"
    )


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


def generate_split_base(vars_per_part: int, conds_per_part: int, seed: int) -> tuple:
    """Deterministic consistent belief base with a built-in two-part splitting.

    Antecedents and consequents are drawn as non-trivial semantic formulas
    (neither tautology nor contradiction) over their part; inconsistent draws
    are retried up to MAX_GENERATION_ATTEMPTS times.
    """
    if vars_per_part < 1 or 2 * vars_per_part > len(string.ascii_lowercase):
        raise ValueError("vars_per_part out of range")
    rng = random.Random(seed)
    atoms1 = tuple(string.ascii_lowercase[:vars_per_part])
    atoms2 = tuple(string.ascii_lowercase[vars_per_part:2 * vars_per_part])
    sig = Signature(atoms1 + atoms2)
    scopes = (PartScope(sig, atoms1), PartScope(sig, atoms2))
    for _ in range(MAX_GENERATION_ATTEMPTS):
        conds = []
        cond_parts = []
        for scope in scopes:
            part_idx = frozenset(
                range(len(conds), len(conds) + conds_per_part)
            )
            for _ in range(conds_per_part):
                ta = rng.randrange(1, scope.full_sub)
                tb = rng.randrange(1, scope.full_sub)
                conds.append(Conditional(scope.formula(ta), scope.formula(tb)))
            cond_parts.append(part_idx)
        base = BeliefBase(sig, conds)
        if tolerance_partition(base) is not None:
            return base, SyntaxSplitting((atoms1, atoms2), tuple(cond_parts))
    raise GenerationError(
        f"no consistent base found in {MAX_GENERATION_ATTEMPTS} attempts (seed={seed})"
    )
