"""Independent brute-force reference implementations for the test suite.

The oracles evaluate formulas by recursive AST walks over explicit truth
assignments. Nothing in them touches the package's model-mask machinery, so
they serve as oracles for it. The rest are references of another kind: code
that a faster version in the package replaced, kept as it was (the tree walk
of formula masks, the pairwise class relation, the per-mode query code, the
recursive descent parser), and readers of the order exports.
"""

from __future__ import annotations

import random
import re
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
