"""Propositional core: signatures, worlds, formulas, and conditionals.

Worlds over a signature with n atoms are the integers 0 .. 2^n - 1, where
bit i holds the truth value of atom i (in signature declaration order).
Model sets are integers over the world space: bit w of a formula's mask is
set iff world w satisfies the formula. All set algebra on models is plain
integer bit arithmetic.

`parse_formula` reads a formula in one loop over its tokens and folds the
mask in as it goes. Each signature interns its literals: a token's node and
mask are built once and shared by every formula parsed over it, which is why
the syntax tree nodes are frozen. They are `Frozen` records: plain
`__slots__` classes with value semantics, as `TolerancePartition` is, since
importing `dataclasses` would add 7-12 ms (Python 3.11) to the start-up of
every CLI command. Each signature also memoizes the (node, mask) of every
formula text parsed over it, so a repeated text costs one lookup. The memo
holds no `Formula`, which points back at its signature: the signature would
then sit in a reference cycle that only the cyclic garbage collector frees.

The memo, and the C(A) cache of every `Engine`, hold at most
`Signature.cache_entries` entries: CACHE_BYTES over the bytes of two masks
(a C(A) entry's key and value), with a floor for the objects around them.
A full cache clears itself and fills again; `dict.clear` is atomic, so
concurrent queries stay safe.

A base that splits is written as a DNF over each part, so its disjuncts
repeat from line to line. `parse_conditional` reads a DNF half disjunct by
disjunct through the same memo, while the memo has room for all of the
half's disjuncts; any other half is parsed whole. `cli.load_belief_base`
clears the memo after a file's last line, so a load's disjuncts go with it.
A conditional's atoms are collected from its trees on first use.
"""

from __future__ import annotations

import re

MAX_ATOMS = 24

# Bytes each per-signature and per-engine cache may hold (see the module
# docstring), and the least an entry is counted as: a dict slot, the key and
# value objects, and a memoized formula's tree.
CACHE_BYTES = 128 << 20
MIN_ENTRY_BYTES = 512

_ATOM_RE = re.compile(r"\A[a-z][a-z0-9_]*\Z")


class SignatureError(ValueError):
    pass


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} (at position {self.position})"


class UnknownAtomError(FormulaSyntaxError):
    def __init__(self, atom: str, position: int):
        super().__init__(f"unknown atom '{atom}'", position)
        self.atom = atom


class Signature:
    """Ordered set of distinct atom names; the order fixes world bit layout."""

    __slots__ = ("atoms", "_index", "num_atoms", "num_worlds", "full_mask", "_literals",
                 "_negated", "_formulas", "_mask_bytes", "cache_entries", "__weakref__")

    def __init__(self, atoms: tuple | list):
        atoms = tuple(atoms)
        for a in atoms:
            if not _ATOM_RE.match(a):
                raise SignatureError(f"invalid atom name: {a!r}")
            if a in ("top", "bot"):  # formulas read these as the constants
                raise SignatureError(f"reserved atom name: {a!r} is a constant")
        if len(set(atoms)) != len(atoms):
            raise SignatureError("atoms must be pairwise distinct")
        if len(atoms) > MAX_ATOMS:
            raise SignatureError(f"signature exceeds {MAX_ATOMS}-atom cap")
        self.atoms = atoms
        self._index = {a: i for i, a in enumerate(atoms)}
        self.num_atoms = len(atoms)
        self.num_worlds = 1 << len(atoms)
        self.full_mask = (1 << self.num_worlds) - 1
        # Literal token -> (node, mask), and the same for '!' before it;
        # atoms are added by `_literal` on first use.
        self._literals = {"top": (_TOP, self.full_mask), "bot": (_BOT, 0)}
        self._negated = {"top": (Neg(_TOP), 0), "bot": (Neg(_BOT), self.full_mask)}
        # Formula text -> (node, mask), by `parse_formula` and the DNF halves
        # of `parse_conditional`.
        self._formulas: dict = {}
        # A mask's bytes as CPython stores an int: 4 per 30-bit digit.
        self._mask_bytes = (self.num_worlds + 29) // 30 * 4
        self.cache_entries = CACHE_BYTES // max(2 * self._mask_bytes, MIN_ENTRY_BYTES)

    def index(self, atom: str) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise SignatureError(f"atom {atom!r} not in signature") from None

    def __contains__(self, atom: str) -> bool:
        return atom in self._index

    def atom_mask(self, i: int) -> int:
        """Model mask of atom i: bit w set iff world w makes atom i true."""
        atom = self.atoms[i]
        return (self._literals.get(atom) or self._literal(atom))[1]

    def _literal(self, atom: str, negated: bool = False) -> tuple:
        """(node, mask) of an atom of the signature, or of its negation,
        built once and kept in the parser's literal tables."""
        if negated:
            node, mask = self._literals.get(atom) or self._literal(atom)
            lit = self._negated[atom] = (Neg(node), mask ^ self.full_mask)
        else:
            half = 1 << self._index[atom]
            mask = ((1 << half) - 1) << half  # one period: low half 0s, high half 1s
            width = half << 1
            while width < self.num_worlds:
                mask |= mask << width
                width <<= 1
            lit = self._literals[atom] = (Var(atom), mask)
        return lit

    def render_world(self, bits: int) -> str:
        """Literal string, signature order, '!' prefixing negated atoms."""
        if not self.atoms:
            return "-"
        return "".join(
            a if (bits >> i) & 1 else "!" + a for i, a in enumerate(self.atoms)
        )

    def render_worlds(self) -> list:
        """`render_world` of every world, in world order, built by doubling:
        the worlds without atom i come first, then the worlds with it."""
        if not self.atoms:
            return ["-"]
        labels = [""]
        for a in self.atoms:
            labels = [label + "!" + a for label in labels] + [label + a for label in labels]
        return labels

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Signature({', '.join(self.atoms)})"


# --- value classes and formula syntax trees ---------------------------------

class Record:
    """A plain `__slots__` class with value semantics: equal only to an
    object of its own class with equal fields, and shown as
    `Class(field=value, ...)`. Its fields are its `__slots__`, in the order
    its `__init__` takes them."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through `__init__`
        return type(self), self._fields()


class Frozen(Record):
    """A `Record` whose fields are set once, by its `__init__`, and which is
    hashed by them. Assigning or deleting a field raises
    `dataclasses.FrozenInstanceError`, as for a frozen dataclass."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")


def _frozen(message: str):
    # Imported on this error path only (see the module docstring).
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(message)


# How a node's `__init__` sets its field, bound once: a frozen dataclass's
# `__init__` looks `object.__setattr__` up on every call.
_set = object.__setattr__


class Node(Frozen):
    __slots__ = ()


class Top(Node):
    __slots__ = ()


class Bot(Node):
    __slots__ = ()


_TOP, _BOT = Top(), Bot()  # shared by every signature's literal tables


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Neg(Node):
    __slots__ = ("child",)

    def __init__(self, child: Node):
        _set(self, "child", child)


class Conj(Node):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _set(self, "children", children)


class Disj(Node):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _set(self, "children", children)


def atoms_of(node: Node) -> frozenset:
    """The atoms a tree mentions, walked without recursion. A node that the
    tree shares (an interned literal, a memoized disjunct) is walked once."""
    names = set()
    seen = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.child)
        elif isinstance(node, (Conj, Disj)):
            stack.extend(node.children)
    return frozenset(names)


def _node_text(node: Node) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Top):
        return "top"
    if isinstance(node, Bot):
        return "bot"
    if isinstance(node, Neg):
        inner = _node_text(node.child)
        if isinstance(node.child, (Conj, Disj)):
            return f"!({inner})"
        return "!" + inner
    if isinstance(node, Conj):
        parts = [
            f"({_node_text(c)})" if isinstance(c, Disj) else _node_text(c)
            for c in node.children
        ]
        return ",".join(parts)
    if isinstance(node, Disj):
        return ";".join(_node_text(c) for c in node.children)
    raise TypeError(f"not a formula node: {node!r}")


class Formula:
    """Syntax tree plus its model mask over the signature's worlds. The
    mask comes from whoever built the tree (the parser folds it in as it
    reads), and is trusted: the tree is never walked for it. So are the
    atoms the tree mentions, when the builder knows them, as
    `PartScope.formula` does; otherwise they are collected from the tree on
    first use."""

    __slots__ = ("signature", "ast", "_mask", "_atoms")

    def __init__(self, signature: Signature, ast: Node, mask: int,
                 atoms: frozenset | None = None):
        self.signature = signature
        self.ast = ast
        self._mask = mask
        self._atoms = atoms

    @property
    def mask(self) -> int:  # a property, so that perfbench/tracing.py can wrap it
        return self._mask

    def atoms(self) -> frozenset:
        if self._atoms is None:
            self._atoms = atoms_of(self.ast)
        return self._atoms

    def satisfiable(self) -> bool:
        return self.mask != 0

    def __str__(self) -> str:
        return _node_text(self.ast)

    def __repr__(self) -> str:
        return f"Formula({self})"


# --- parser -----------------------------------------------------------------

# Every non-blank character is a token. One that is neither an atom nor an
# operator is reported when the parser reaches it.
_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*|[!(),;&]|\S")

# Deepest nesting of '(' and '!' a formula may have. The parser keeps its
# open groups on a list, but `_node_text` recurses once per level, and far
# deeper input would exhaust Python's recursion limit there.
MAX_NESTING = 100


def _at(text: str, toks: list, i: int, last: int) -> int:
    """Text position of token i, for an error there. A character outside the
    grammar among tokens i .. last is reported first: such a character ends
    the parse as soon as it is the next token, which for an atom is before
    the atom is looked up."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    starts.append(len(text))
    for k in range(i, last + 1):
        tok = toks[k]
        if tok is not None and not (_ATOM_RE.match(tok) or tok in "!(),;&"):
            raise FormulaSyntaxError(f"unexpected character {tok!r}", starts[k])
    return starts[i]


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse text per the grammar: ';' disjunction, ','/'&' conjunction, '!'
    negation. A text parsed over `sig` before is served from the signature's
    memo; a text that fails is parsed again each time, so its error is
    always the parser's own."""
    memo = sig._formulas
    parsed = memo.get(text)
    if parsed is None:
        parsed = _parse(text, sig, _TOKEN_RE.findall(text))
        if len(memo) >= sig.cache_entries:
            memo.clear()
        memo[text] = parsed
    return Formula(sig, parsed[0], parsed[1])


def _parse(text: str, sig: Signature, toks: list) -> tuple:
    """(node, mask) of a formula text, not memoized. `toks` is the text's
    `_TOKEN_RE.findall`, to which the parse appends None.

    One loop over the tokens. The open disjunction and conjunction of the
    innermost group and its pending '!'s are locals; '(' pushes them and
    ')' pops them. Each subformula's mask is folded in as it closes, so a
    parsed formula is walked once. Literals, and '!' before a literal, come
    from the signature's tables, so their nodes are shared."""
    toks.append(None)  # end of input
    literals, negated, index = sig._literals, sig._negated, sig._index
    full = sig.full_mask
    stack = []  # the enclosing groups' (disj, dmask, conj, cmask, negs)
    disj = conj = None  # children of the open disjunction / conjunction
    dmask = cmask = 0
    negs = depth = i = 0
    while True:
        # An operand: a literal, or the '!' or '(' that opens one.
        tok = toks[i]
        lit = literals.get(tok)
        if lit is None:
            if tok == "!" and depth < MAX_NESTING:
                nxt = toks[i + 1]
                lit = negated.get(nxt)
                if lit is None and nxt in index:
                    lit = sig._literal(nxt, negated=True)
                if lit is not None:
                    i += 1
            if lit is None:
                if tok == "!" or tok == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise FormulaSyntaxError(
                            f"formula nested deeper than {MAX_NESTING} levels of '(' and '!'",
                            _at(text, toks, i, i))
                    i += 1
                    if tok == "!":
                        negs += 1
                    else:
                        stack.append((disj, dmask, conj, cmask, negs))
                        disj = conj = None
                        negs = 0
                    continue
                if tok in index:
                    lit = sig._literal(tok)
                elif tok is None:
                    raise FormulaSyntaxError("unexpected end of input", _at(text, toks, i, i))
                elif tok in (")", ",", ";", "&"):
                    raise FormulaSyntaxError(f"unexpected token {tok!r}", _at(text, toks, i, i))
                else:
                    raise UnknownAtomError(tok, _at(text, toks, i, i + 1))
        node, mask = lit
        i += 1
        # After an operand: apply its '!'s, then close what the next token ends.
        while True:
            if negs:
                depth -= negs
                for _ in range(negs):
                    node = Neg(node)
                if negs & 1:
                    mask ^= full  # mask lies within full
                negs = 0
            tok = toks[i]
            if tok == "," or tok == "&":
                if conj is None:
                    conj, cmask = [node], mask
                else:
                    conj.append(node)
                    cmask &= mask
                break
            if conj is not None:
                conj.append(node)
                node, mask, conj = Conj(tuple(conj)), mask & cmask, None
            if tok == ";":
                if disj is None:
                    disj, dmask = [node], mask
                else:
                    disj.append(node)
                    dmask |= mask
                break
            if disj is not None:
                disj.append(node)
                node, mask, disj = Disj(tuple(disj)), mask | dmask, None
            if not stack:
                if tok is None:
                    return node, mask
                raise FormulaSyntaxError(f"unexpected token {tok!r}", _at(text, toks, i, i))
            if tok != ")":
                raise FormulaSyntaxError("expected ')'", _at(text, toks, i, i))
            disj, dmask, conj, cmask, negs = stack.pop()
            depth -= 1
            i += 1
        i += 1


# --- conditionals and belief bases -------------------------------------------

class Conditional:
    """Defeasible rule (B|A): 'if A then usually B'."""

    __slots__ = ("antecedent", "consequent", "falsification_mask")

    def __init__(self, antecedent: Formula, consequent: Formula):
        if antecedent.signature != consequent.signature:
            raise SignatureError("antecedent and consequent over different signatures")
        self.antecedent = antecedent
        self.consequent = consequent
        # Computed once: the tolerance partition, the preferred structure and
        # p-entailment all read it. A & ~B, as A's mask lies within full.
        a = antecedent.mask
        self.falsification_mask = a ^ (a & consequent.mask)

    @property
    def signature(self) -> Signature:
        return self.antecedent.signature

    @property
    def verification_mask(self) -> int:
        return self.antecedent.mask & self.consequent.mask

    def atoms(self) -> frozenset:
        return self.antecedent.atoms() | self.consequent.atoms()

    def __str__(self) -> str:
        return f"({self.consequent}|{self.antecedent})"

    def __repr__(self) -> str:
        return f"Conditional{self}"


def parse_conditional(text: str, sig: Signature) -> Conditional:
    """Parse '(B|A)' with the consequent before the bar. Fault positions
    count from the opening parenthesis, leading blanks removed.

    A half without '(' or ')' that has a ';' is read disjunct by disjunct
    through the signature's memo, while the memo has room for all of its
    disjuncts: a base that splits is written as a DNF over each part, so
    the same disjuncts come back line after line. It gets the tree and mask
    the parser gives the whole half. Any other half, and a half with a
    fault in any disjunct, is parsed whole and not memoized, so every fault
    is the parser's own."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise FormulaSyntaxError("conditional must be enclosed in parentheses", 0)
    bar = s.find("|")
    bars = s.count("|")
    if bars != 1:
        # Point at the second bar, or at the closing parenthesis if none.
        at = s.find("|", bar + 1) if bars else len(s) - 1
        raise FormulaSyntaxError("conditional needs exactly one '|'", at)
    memo = sig._formulas
    halves = []
    # The antecedent is parsed first: when both halves have a fault, its
    # fault is the one reported.
    for start, end in ((bar + 1, len(s) - 1), (1, bar)):
        half = s[start:end]
        parsed = None
        semicolons = half.count(";")
        if (semicolons and "(" not in half and ")" not in half
                and len(memo) + semicolons < sig.cache_entries):
            nodes = []
            mask = 0
            for d in half.split(";"):
                hit = memo.get(d)
                if hit is None:
                    try:
                        hit = _parse(d, sig, _TOKEN_RE.findall(d))
                    except FormulaSyntaxError:
                        break
                    memo[d] = hit
                nodes.append(hit[0])
                mask |= hit[1]
            else:
                parsed = Disj(tuple(nodes)), mask
        if parsed is None:
            try:
                parsed = _parse(half, sig, _TOKEN_RE.findall(half))
            except FormulaSyntaxError as e:
                e.position += start  # count from the opening parenthesis
                raise
        halves.append(Formula(sig, *parsed))
    return Conditional(*halves)


class BeliefBase:
    """Ordered finite set of conditionals; positions are stable 0-based indices.

    `tolerance.tolerance_partition` keeps the base's partition in the
    private `_partition` slot, which it sets on its first call: the engines
    of every mode, and the consistency check before them, read that one
    computation. The slot stays unset until then, so loading a base never
    computes it, and a copy or pickle of an unread base carries none."""

    __slots__ = ("signature", "conditionals", "_partition", "__weakref__")

    def __init__(self, signature: Signature, conditionals: tuple | list):
        conditionals = tuple(conditionals)
        for c in conditionals:
            if c.signature != signature:
                raise SignatureError("conditional over a different signature")
        self.signature = signature
        self.conditionals = conditionals

    def __len__(self) -> int:
        return len(self.conditionals)

    def __iter__(self):
        return iter(self.conditionals)

    def __getitem__(self, i: int) -> Conditional:
        return self.conditionals[i]

    def indices(self) -> range:
        return range(len(self.conditionals))

    def __repr__(self) -> str:
        return f"BeliefBase({', '.join(str(c) for c in self.conditionals)})"
