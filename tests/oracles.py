"""Independent brute-force reference implementations for the test suite.

The oracles evaluate formulas by recursive AST walks over explicit truth
assignments. Nothing in them touches the package's model-mask machinery, so
they serve as oracles for it. The rest are references of another kind: code
that a faster version in the package replaced, kept as it was (the tree walk
of formula masks, the pairwise class relation, the trie walk of the Hasse
covers, the per-mode query code, the (TV) loop over formula pairs, lemma 1's
partition rebuild, the per-world loops of lemmas 2-4, the recursive descent
parser, the split-base generator that built its signature and scopes per
call), and readers of the order exports.
"""

from __future__ import annotations

import random
import re
import string
from functools import reduce

from systemw.logic import (
    _ATOM_RE,
    _TOKEN_RE,
    MAX_NESTING,
    BeliefBase,
    Bot,
    Conditional,
    Conj,
    Disj,
    Formula,
    FormulaSyntaxError,
    Neg,
    Signature,
    Top,
    UnknownAtomError,
    Var,
    atoms_of,
)


def eval_node(node, assignment: dict) -> bool:
    if isinstance(node, Var):
        return assignment[node.name]
    if isinstance(node, Neg):
        return not eval_node(node.child, assignment)
    if isinstance(node, Conj):
        return all(eval_node(c, assignment) for c in node.children)
    if isinstance(node, Disj):
        return any(eval_node(c, assignment) for c in node.children)
    if isinstance(node, Top):
        return True
    if isinstance(node, Bot):
        return False
    raise TypeError(node)


def node_mask(node, sig: Signature) -> int:
    """The model mask of a syntax tree, by a walk of the tree over the atom
    masks: the reference for the masks the parser folds in as it reads, and
    the mask of every formula the tests build from a tree."""
    if isinstance(node, Var):
        return sig.atom_mask(sig.index(node.name))
    if isinstance(node, Neg):
        return sig.full_mask & ~node_mask(node.child, sig)
    if isinstance(node, Conj):
        return reduce(lambda x, y: x & y, (node_mask(c, sig) for c in node.children))
    if isinstance(node, Disj):
        return reduce(lambda x, y: x | y, (node_mask(c, sig) for c in node.children))
    if isinstance(node, Top):
        return sig.full_mask
    if isinstance(node, Bot):
        return 0
    raise TypeError(f"not a formula node: {node!r}")


def tree_formula(sig: Signature, node) -> Formula:
    """A formula built from a syntax tree, with the tree walk's mask."""
    return Formula(sig, node, node_mask(node, sig))


def assignment_of_bits(sig: Signature, bits: int) -> dict:
    return {a: bool((bits >> i) & 1) for i, a in enumerate(sig.atoms)}


def all_assignments(sig: Signature):
    for bits in range(sig.num_worlds):
        yield bits, assignment_of_bits(sig, bits)


def oracle_model_bits(formula: Formula) -> set:
    return {
        bits
        for bits, asg in all_assignments(formula.signature)
        if eval_node(formula.ast, asg)
    }


def oracle_verifies(c: Conditional, asg: dict) -> bool:
    return eval_node(c.antecedent.ast, asg) and eval_node(c.consequent.ast, asg)


def oracle_falsifies(c: Conditional, asg: dict) -> bool:
    return eval_node(c.antecedent.ast, asg) and not eval_node(c.consequent.ast, asg)


def oracle_tolerated(base: BeliefBase, i: int, indices) -> bool:
    for _, asg in all_assignments(base.signature):
        if oracle_verifies(base[i], asg) and not any(
            oracle_falsifies(base[j], asg) for j in indices
        ):
            return True
    return False


def oracle_tolerance_partition(base: BeliefBase, indices=None):
    """Layers as a list of frozensets of indices, or None when inconsistent."""
    remaining = list(base.indices()) if indices is None else list(indices)
    layers = []
    while remaining:
        tolerated = frozenset(
            i for i in remaining if oracle_tolerated(base, i, remaining)
        )
        if not tolerated:
            return None
        layers.append(tolerated)
        remaining = [i for i in remaining if i not in tolerated]
    return layers


def oracle_z_entails(base: BeliefBase, a: Formula, b: Formula) -> bool:
    """System Z decision from the oracle partition and per-world ranks."""
    layers = oracle_tolerance_partition(base)
    assert layers is not None
    a_bits = oracle_model_bits(a)
    if not a_bits:
        return True
    b_bits = oracle_model_bits(b)

    def kappa(bits):
        asg = assignment_of_bits(base.signature, bits)
        ranks = [
            j + 1
            for j, layer in enumerate(layers)
            for i in layer
            if oracle_falsifies(base[i], asg)
        ]
        return max(ranks) if ranks else 0

    def min_kappa(worlds):
        return min((kappa(w) for w in worlds), default=float("inf"))

    return min_kappa(a_bits & b_bits) < min_kappa(a_bits - b_bits)


def oracle_w_preferred(base: BeliefBase, worlds) -> set:
    """Pairs (w, w2) of the given world numbers where w is strictly preferred
    to w2: at the highest tolerance layer where their falsified sets differ,
    the falsified set of w is a proper subset of that of w2."""
    layers = oracle_tolerance_partition(base)
    assert layers is not None

    def falsified(bits):
        asg = assignment_of_bits(base.signature, bits)
        return [
            frozenset(i for i in layer if oracle_falsifies(base[i], asg))
            for layer in layers
        ]

    xi = {w: falsified(w) for w in worlds}

    def preferred(w, w2):
        for mine, theirs in zip(reversed(xi[w]), reversed(xi[w2])):
            if mine != theirs:
                return mine < theirs
        return False

    return {(w, w2) for w in worlds for w2 in worlds if preferred(w, w2)}


def oracle_w_entails(base: BeliefBase, a: Formula, b: Formula) -> bool:
    """System W decision from the paper's definition: A |~ B iff every
    A-and-not-B world has a strictly preferred A-and-B world."""
    a_bits = oracle_model_bits(a)
    b_bits = oracle_model_bits(b)
    preferred = oracle_w_preferred(base, a_bits)
    return all(
        any((w, w2) in preferred for w in a_bits & b_bits) for w2 in a_bits - b_bits
    )


class ReferenceEngine:
    """The per-mode query code that `Engine.consequence` replaced, kept as it
    was, without a cache: W asks the preferred structure for the minimal
    worlds of A, Z compares the lowest ranks of the A-and-B and the
    A-and-not-B worlds, and P runs the tolerance partition of the base
    extended with (!B|A) until it tolerates (!B|A) or gets stuck."""

    def __init__(self, base: BeliefBase, mode):
        from systemw.preferred import PreferredStructure
        from systemw.tolerance import tolerance_partition

        self.mode = mode.value
        self.full = base.signature.full_mask
        partition = tolerance_partition(base)
        assert partition is not None
        if self.mode == "w":
            self._ps = PreferredStructure(base)
        elif self.mode == "z":
            # The mask of worlds per rank, where a world's rank is 1 + the
            # highest layer in which it falsifies a conditional (0 if none).
            self._ranks = []
            above = 0
            for layer in reversed(partition.layers):
                fals = 0
                for i in layer:
                    fals |= base[i].falsification_mask
                self._ranks.append(fals & ~above)
                above |= fals
            self._ranks.append(self.full & ~above)
            self._ranks.reverse()
        else:
            self._pairs = [(c.verification_mask, c.falsification_mask) for c in base]

    def _min_rank(self, mask: int) -> int:
        for r, worlds in enumerate(self._ranks):
            if worlds & mask:
                return r
        return len(self._ranks)

    def entails_masks(self, a: int, b: int) -> bool:
        full = self.full
        a &= full
        b &= full
        if a == 0:
            return True
        if self.mode == "w":
            return self._ps.minimal(a) & ~b == 0
        ab = a & b
        anb = a & ~b
        if self.mode == "z":
            return self._min_rank(ab) < self._min_rank(anb)
        remaining = self._pairs
        while True:
            fals = ab
            for _, f in remaining:
                fals |= f
            safe = full & ~fals
            if anb & safe:
                return False
            rest = [p for p in remaining if not p[0] & safe]
            if len(rest) == len(remaining):
                return True
            remaining = rest


def conjoin(f: Formula, g: Formula) -> Formula:
    """The conjunction of two formulas over one signature; its mask is
    computed from the tree."""
    return tree_formula(f.signature, Conj((f.ast, g.ast)))


# --- the order exports, read back ---------------------------------------------


def _world_numbers(ps) -> dict:
    return {label: w for w, label in enumerate(ps.signature.render_worlds())}


def export_pairs(ps) -> list:
    """The (w, w2) pairs of the tsv export, w strictly preferred to w2, as
    world numbers in the order of the rows."""
    number = _world_numbers(ps)
    pairs = []
    for line in "".join(ps.to_tsv()).splitlines():
        lo, hi = line.split("\t")
        pairs.append((number[lo], number[hi]))
    return pairs


def export_edges(ps) -> list:
    """The (w, w2) edges of the dot export, w strictly preferred to w2 with
    nothing between, in the order of the edge lines."""
    return [(int(lo), int(hi))
            for hi, lo in re.findall(r"^  w(\d+) -> w(\d+);$", ps.to_dot(), re.M)]


def above_masks(ps) -> list:
    """Per world, the mask of the worlds strictly above it, from the tsv
    export. The rows of one world are one chunk of it. Worlds of one class
    have the same upper labels, so each distinct list of them is read once."""
    number = _world_numbers(ps)
    up = [0] * ps.signature.num_worlds
    read = {}
    for chunk in ps.to_tsv():
        lo = chunk[:chunk.index("\t")]
        uppers = chunk.replace(lo + "\t", "")
        assert "\t" not in uppers  # every row of the chunk starts with lo
        if uppers not in read:
            read[uppers] = sum(1 << number[hi] for hi in uppers.splitlines())
        up[number[lo]] = read[uppers]
    return up


# --- random formula / belief base generation ---------------------------------


def random_node(rng: random.Random, atoms, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.9:
            return Var(rng.choice(atoms))
        return Top() if r < 0.95 else Bot()
    kind = rng.choice(("neg", "conj", "disj"))
    if kind == "neg":
        return Neg(random_node(rng, atoms, depth - 1))
    children = tuple(
        random_node(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return Conj(children) if kind == "conj" else Disj(children)


def random_base(seed: int, max_atoms: int, max_conds: int) -> BeliefBase:
    """Seed-deterministic belief base with random formula syntax trees."""
    rng = random.Random(seed)
    n_atoms = rng.randint(1, max_atoms)
    atoms = tuple("abcdefgh"[:n_atoms])
    sig = Signature(atoms)
    conds = []
    for _ in range(rng.randint(0, max_conds)):
        ante = tree_formula(sig, random_node(rng, atoms, 2))
        cons = tree_formula(sig, random_node(rng, atoms, 2))
        conds.append(Conditional(ante, cons))
    return BeliefBase(sig, conds)


def random_consistent_base(seed: int, max_atoms: int, max_conds: int) -> BeliefBase:
    from systemw.tolerance import tolerance_partition

    for attempt in range(1000):
        base = random_base(seed * 100_003 + attempt, max_atoms, max_conds)
        if tolerance_partition(base) is not None:
            return base
    raise RuntimeError("no consistent base found")


def random_layered_base(seed: int, max_atoms: int, max_conds: int,
                        min_layers: int) -> BeliefBase:
    """Seed-deterministic consistent base with at least `min_layers`
    tolerance layers: random conditionals next to a chain of nested
    exceptions (y|x0), (!y|x0,x1), (y|x0,x1,x2), ... on random atoms."""
    from systemw.tolerance import tolerance_partition

    rng = random.Random(seed)
    for _ in range(1000):
        atoms = tuple("abcdefgh"[:rng.randint(min_layers + 1, max_atoms)])
        sig = Signature(atoms)
        y, *xs = rng.sample(atoms, min_layers + 1)
        conds = [
            Conditional(tree_formula(sig, Conj(tuple(Var(x) for x in xs[:k + 1]))),
                        tree_formula(sig, Var(y) if k % 2 == 0 else Neg(Var(y))))
            for k in range(min_layers)
        ]
        for _ in range(rng.randint(0, max_conds)):
            ante = tree_formula(sig, random_node(rng, atoms, 2))
            cons = tree_formula(sig, random_node(rng, atoms, 2))
            conds.append(Conditional(ante, cons))
        rng.shuffle(conds)
        base = BeliefBase(sig, conds)
        partition = tolerance_partition(base)
        if partition is not None and len(partition.layers) >= min_layers:
            return base
    raise RuntimeError("no layered base found")


def transitive_closure(edges: set, num_worlds: int) -> set:
    """Closure of a set of (lower, upper) pairs by repeated composition."""
    below: dict = {w: set() for w in range(num_worlds)}
    for lo, hi in edges:
        below[hi].add(lo)
    changed = True
    while changed:
        changed = False
        for hi in below:
            extra = set()
            for mid in below[hi]:
                extra |= below[mid]
            if not extra <= below[hi]:
                below[hi] |= extra
                changed = True
    return {(lo, hi) for hi, los in below.items() for lo in los}


def profile_less(p: tuple, q: tuple) -> bool:
    """Per-layer profile p strictly below q: at the highest layer where they
    differ, p's falsified set is a strict subset of q's."""
    for mine, theirs in zip(reversed(p), reversed(q)):
        if mine != theirs:
            return mine & ~theirs == 0
    return False


def set_bits(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def reference_relation(ps) -> tuple:
    """The class relation of a `PreferredStructure`, by comparing every pair
    of its classes: per class, the worlds strictly below it, strictly above
    it and covering it (above it with no class strictly between)."""
    classes = ps.classes
    n = len(classes)
    down, up = [0] * n, [0] * n  # bitsets of class indices
    down_w, up_w, cover_w = [0] * n, [0] * n, [0] * n
    for c, (prof, m) in enumerate(classes):
        for d, (prof2, m2) in enumerate(classes):
            if profile_less(prof2, prof):
                down[c] |= 1 << d
                up[d] |= 1 << c
                down_w[c] |= m2
                up_w[d] |= m
    for d in range(n):
        for c in set_bits(up[d]):
            if up[d] & down[c] == 0:
                cover_w[d] |= classes[c][1]
    return down_w, up_w, cover_w


def _lower_covers(keys: list) -> list:
    """Per set of `keys` (distinct bitmasks, sorted by size), the indices of
    the sets it covers: its strict subsets with no set of `keys` strictly
    between. A strict subset is smaller, and among the subsets of one set,
    the larger ones are tried first, so each is a cover unless it lies within
    a cover already found."""
    covers = []
    start = 0  # the first set of the current size
    for p, x in enumerate(keys):
        if keys[start].bit_count() < x.bit_count():
            start = p
        out = ~x
        mine = []
        for q in reversed([q for q in range(start) if not keys[q] & out]):
            y = keys[q]
            for r in mine:
                if not y & ~keys[r]:
                    break
            else:
                mine.append(q)
        covers.append(mine)
    return covers


def trie_covers(ps) -> list:
    """The Hasse covers of a `PreferredStructure`'s classes, per class the
    worlds above it with none strictly between, read off the trie of the
    profiles, top layer first; the package computed them this way before
    the descent over classes. Two classes are related only at the highest
    layer where their profiles differ, so only the children of one trie node
    are compared. A class maximal in its subtree is covered by the classes
    minimal in each sibling subtree whose set covers its own among the
    siblings: a class between them would sit in one of the two or in a
    sibling between. It scales to bases where `reference_relation`'s
    comparison of every pair of classes does not."""
    cover_w = [0] * len(ps.classes)
    # A trie node, built from the lowest layer up: (a profile of its classes,
    # the worlds of its classes minimal in it, its classes maximal in it).
    nodes = [(prof, m, [c]) for c, (prof, m) in enumerate(ps.classes)]
    for j in range(len(ps.partition.layers)):
        groups = {}  # the children of each node of the next layer up
        for node in nodes:
            groups.setdefault(node[0][j + 1:], []).append(node)
        nodes = []
        for kids in groups.values():
            if len(kids) == 1:
                nodes.append(kids[0])
                continue
            kids.sort(key=lambda kid: kid[0][j].bit_count())
            profs, least, most = zip(*kids)
            covered = _lower_covers([prof[j] for prof in profs])
            cover = [0] * len(kids)  # minimal worlds of the covering siblings
            for p, lower in enumerate(covered):
                for q in lower:
                    cover[q] |= least[p]
            node_least, node_most = 0, []
            for p, lower in enumerate(covered):
                if not lower:  # no sibling below it
                    node_least |= least[p]
                if cover[p]:
                    for c in most[p]:
                        cover_w[c] |= cover[p]
                else:
                    node_most += most[p]
            nodes.append((profs[0], node_least, node_most))
    return cover_w


def reference_class_id(ps) -> list:
    """The index in `ps.classes` of every world's class, class by class."""
    class_id = [None] * ps.signature.num_worlds
    for c, (_, m) in enumerate(ps.classes):
        for w in set_bits(m):
            class_id[w] = c
    return class_id


def oracle_hasse(base: BeliefBase, worlds) -> set:
    """Transitive reduction of `oracle_w_preferred`: the pairs (w, w2) with
    no world of `worlds` strictly between them."""
    preferred = oracle_w_preferred(base, worlds)
    above = {w: set() for w in worlds}
    below = {w: set() for w in worlds}
    for w, w2 in preferred:
        above[w].add(w2)
        below[w2].add(w)
    return {(w, w2) for w, w2 in preferred if not above[w] & below[w2]}


# --- reference syntax splitting ------------------------------------------------

def components(base: BeliefBase) -> tuple:
    """(parts, conditional parts) of the finest syntax splitting, from a
    union-find over atom positions that reads each conditional's atoms off
    its trees. The parts come in the order of their lowest atom, each in
    signature order; an atom-free conditional goes to the first part, and a
    zero-atom signature has one empty part. This is the union-find that
    `detect_splitting` used before it merged atom sets."""
    sig = base.signature
    parent = list(range(sig.num_atoms))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    used = [atoms_of(c.antecedent.ast) | atoms_of(c.consequent.ast) for c in base]
    for atoms in used:
        positions = sorted(sig.index(a) for a in atoms)
        for p in positions[1:]:
            parent[find(p)] = find(positions[0])
    roots: dict = {}
    for i in range(sig.num_atoms):
        roots.setdefault(find(i), []).append(sig.atoms[i])
    home = {root: n for n, root in enumerate(roots)}
    cond_parts = [set() for _ in roots] or [set()]
    for i, atoms in enumerate(used):
        cond_parts[home[find(sig.index(min(atoms)))] if atoms else 0].add(i)
    parts = tuple(map(tuple, roots.values())) or ((),)
    return parts, tuple(map(frozenset, cond_parts))


# --- reference postulate checks -------------------------------------------------

def reference_check_tv(mode):
    """(TV) by asking every formula pair over 3 atoms, A |~ B against
    A ⊆ B: the double loop that `check_tv` replaced, kept as it was."""
    from systemw.inference import Engine
    from systemw.splitting import TV_ATOMS, PartScope, PostulateReport

    sig = Signature(string.ascii_lowercase[:TV_ATOMS])
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
                    search_bounds=f"mode={mode.value} atoms={TV_ATOMS} exhaustive",
                )
    return PostulateReport(
        "tv", True,
        search_bounds=f"mode={mode.value} atoms={TV_ATOMS} pairs={space * space}",
    )


def reference_check_lemma1(splitting):
    """Lemma 1's three claims as `check_lemma1` checked them before it read
    plain layer lists: each side's layers rebuilt as a `TolerancePartition`
    of base indices, and claim 3 read from the sides sorted by length."""
    from systemw.splitting import PostulateReport
    from systemw.tolerance import TolerancePartition

    op = splitting.structure().partition
    k = len(op.layers) - 1
    for view in splitting.views:
        subs = []
        for _, idxs in view:  # layers of sub-base positions, as base indices
            order = sorted(idxs)
            subs.append(TolerancePartition(tuple(
                frozenset(order[p] for p in layer)
                for layer in splitting.structure(idxs).partition.layers)))
        for (_, idxs), sub in zip(view, subs):
            for j in range(len(sub.layers)):
                expected = op.layers[j] & idxs if j <= k else frozenset()
                if sub.layers[j] != expected:
                    return PostulateReport(
                        "lemma1", False,
                        witness={"claim": 1, "layer": j,
                                 "sub": sorted(sub.layers[j]),
                                 "expected": sorted(expected)},
                        search_bounds="partition comparison",
                    )
        l1, l2 = len(subs[0].layers) - 1, len(subs[1].layers) - 1
        if max(l1, l2) != k:
            return PostulateReport(
                "lemma1", False,
                witness={"claim": 2, "l1": l1, "l2": l2, "k": k},
                search_bounds="partition comparison",
            )
        lo, hi = (subs[0], subs[1]) if l1 <= l2 else (subs[1], subs[0])
        for j in range(k + 1):
            low_layer = lo.layers[j] if j <= len(lo.layers) - 1 else frozenset()
            if op.layers[j] != low_layer | hi.layers[j]:
                return PostulateReport(
                    "lemma1", False,
                    witness={"claim": 3, "layer": j,
                             "full": sorted(op.layers[j]),
                             "union": sorted(low_layer | hi.layers[j])},
                    search_bounds="partition comparison",
                )
    return PostulateReport("lemma1", True, search_bounds="partition comparison")


def reference_generate_split_base(vars_per_part: int, conds_per_part: int,
                                  seed: int) -> tuple:
    """`generate_split_base` as it was before it kept one signature and
    scope pair per part size: both built afresh on every call."""
    from systemw.splitting import (
        MAX_GENERATION_ATTEMPTS,
        GenerationError,
        PartScope,
        SyntaxSplitting,
    )
    from systemw.tolerance import tolerance_partition

    if vars_per_part < 1 or 2 * vars_per_part > len(string.ascii_lowercase):
        raise ValueError("vars_per_part out of range")
    rng = random.Random(seed)
    atoms1 = tuple(string.ascii_lowercase[:vars_per_part])
    atoms2 = tuple(string.ascii_lowercase[vars_per_part:2 * vars_per_part])
    sig = Signature(atoms1 + atoms2)
    scopes = (PartScope(sig, atoms1), PartScope(sig, atoms2))
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


def group_of(scope, w: int) -> int:
    """Mask of the worlds that agree with world w on the scope's atoms: the
    `PartScope.group_of` that the per-world lemma 3 loop read."""
    s = sum(((w >> scope.sig.index(a)) & 1) << j for j, a in enumerate(scope.atoms))
    return scope.group_masks[s]


def _world_pair_witness(sig: Signature, viol: int, w2: int) -> dict:
    w = (viol & -viol).bit_length() - 1
    return {"world": sig.render_world(w), "world2": sig.render_world(w2)}


def reference_check_lemma2(splitting):
    """Lemma 2 asked once per world, as `check_lemma2` did before it asked
    once per class."""
    from systemw.splitting import PostulateReport

    sig = splitting.base.signature
    pairs = 0
    for (_, idx1), (_, idx2) in splitting.views:
        ps, ps1, ps2 = (splitting.structure(), splitting.structure(idx1),
                        splitting.structure(idx2))
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


def reference_check_lemma3(splitting):
    """Lemma 3 asked once per world, as `check_lemma3` did before it asked
    once per cell."""
    from systemw.splitting import PostulateReport

    sig = splitting.base.signature
    for (atoms1, idx1), (atoms2, idx2) in splitting.views:
        ps = splitting.structure()
        for idxs, other, tag in ((idx1, atoms2, "part1"), (idx2, atoms1, "part2")):
            sub_ps, other_scope = splitting.structure(idxs), splitting.scope(other)
            for w2 in range(sig.num_worlds):
                same = group_of(other_scope, w2)
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


def reference_check_lemma4(splitting):
    """Lemma 4 asked once per world, as `check_lemma4` did before it asked
    once per class."""
    from systemw.splitting import PostulateReport

    sig = splitting.base.signature
    for view in splitting.views:
        for (atoms, idxs), tag in zip(view, ("part1", "part2")):
            sub_ps, scope = splitting.structure(idxs), splitting.scope(atoms)
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


# --- reference parser -----------------------------------------------------------

# The recursive descent parser that the one-loop `parse_formula` replaced,
# kept as it was: its trees, masks, messages and positions are the reference.
class _Parser:
    """Recursive descent over one token scan. Each step returns its subtree
    and that subtree's model mask, so a parsed formula is walked once."""

    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.full = sig.full_mask
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append(None)  # end of input
        self.i = 0
        self.depth = 0

    def _at(self, i: int) -> int:
        """Text position of token i, for an error there. A character outside
        the grammar among tokens i .. self.i is reported first: such a
        character ends the parse as soon as it is the next token, which for
        an atom is before the atom is looked up."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        starts.append(len(self.text))
        for k in range(i, self.i + 1):
            tok = self.toks[k]
            if tok is not None and not (_ATOM_RE.match(tok) or tok in "!(),;&"):
                raise FormulaSyntaxError(f"unexpected character {tok!r}", starts[k])
        return starts[i]

    def parse(self) -> tuple:
        node, mask = self._disj()
        tok = self.toks[self.i]
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok!r}", self._at(self.i))
        return node, mask

    def _disj(self) -> tuple:
        node, mask = self._conj()
        if self.toks[self.i] != ";":
            return node, mask
        children = [node]
        while self.toks[self.i] == ";":
            self.i += 1
            node, m = self._conj()
            children.append(node)
            mask |= m
        return Disj(tuple(children)), mask

    def _conj(self) -> tuple:
        node, mask = self._lit()
        tok = self.toks[self.i]
        if tok != "," and tok != "&":
            return node, mask
        children = [node]
        while tok == "," or tok == "&":
            self.i += 1
            node, m = self._lit()
            children.append(node)
            mask &= m
            tok = self.toks[self.i]
        return Conj(tuple(children)), mask

    def _lit(self) -> tuple:
        i = self.i
        tok = self.toks[i]
        if tok == "!" or tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise FormulaSyntaxError(
                    f"formula nested deeper than {MAX_NESTING} levels of '(' and '!'",
                    self._at(i))
            self.i = i + 1
            if tok == "!":
                node, mask = self._lit()
                node, mask = Neg(node), mask ^ self.full  # mask lies within full
            else:
                node, mask = self._disj()
                if self.toks[self.i] != ")":
                    raise FormulaSyntaxError("expected ')'", self._at(self.i))
                self.i += 1
            self.depth -= 1
            return node, mask
        if tok == "top":
            self.i = i + 1
            return Top(), self.full
        if tok == "bot":
            self.i = i + 1
            return Bot(), 0
        index = self.sig._index.get(tok)
        if index is not None:
            self.i = i + 1
            return Var(tok), self.sig.atom_mask(index)
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self._at(i))
        if tok in (")", ",", ";", "&"):
            raise FormulaSyntaxError(f"unexpected token {tok!r}", self._at(i))
        self.i = i + 1
        raise UnknownAtomError(tok, self._at(i))


def reference_parse_formula(text: str, sig: Signature) -> Formula:
    node, mask = _Parser(text, sig).parse()
    return Formula(sig, node, mask)
