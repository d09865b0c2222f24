"""Brute-force references that share no code with the package.

Formulas are compiled from their text to Python predicates over a truth
assignment, and every decision is made by enumerating worlds. System W
follows the paper's definition directly: a world's falsified conditionals
are collected per tolerance layer, two worlds are compared from the top layer
down, and A |~ B holds iff every A-and-not-B world has an A-and-B world
strictly below it. There is no grouping into classes and no dominator mask.
"""

from __future__ import annotations

import re
from itertools import product

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|([!(),;&]))")
_OPS = {"!": " not ", ",": " and ", "&": " and ", ";": " or ", "(": "(", ")": ")"}


def compile_formula(text: str, atoms: list):
    """Predicate over a tuple of truth values in `atoms` order. Python's
    `not` > `and` > `or` is the grammar's `!` > `,` > `;`."""
    index = {a: i for i, a in enumerate(atoms)}
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad formula text: {text!r}")
            break
        word, op = m.groups()
        if word == "top":
            out.append(" True ")
        elif word == "bot":
            out.append(" False ")
        elif word is not None:
            out.append(f" v[{index[word]}] ")
        else:
            out.append(_OPS[op])
        pos = m.end()
    return eval("lambda v: " + "".join(out))  # built only from the tokens above


class Reference:
    """Enumerates every world of one base once; answers W, Z and P queries
    and gives the tolerance partition."""

    def __init__(self, atoms: list, conds: list):
        self.atoms = list(atoms)
        self.worlds = list(product((False, True), repeat=len(atoms)))
        self.world_index = {v: w for w, v in enumerate(self.worlds)}
        self.conds = [(compile_formula(a, atoms), compile_formula(b, atoms))
                      for a, b in conds]
        # Per conditional: the set of world numbers verifying / falsifying it.
        self.verif, self.fals = [], []
        for ante, cons in self.conds:
            ver, fal = set(), set()
            for w, v in enumerate(self.worlds):
                if ante(v):
                    (ver if cons(v) else fal).add(w)
            self.verif.append(ver)
            self.fals.append(fal)
        self.layers = self.partition(range(len(conds)), self.verif, self.fals)
        if self.layers is not None:
            self.profiles = [self._profile(w) for w in range(len(self.worlds))]
            self.kappa = [max((j + 1 for j, falsified in enumerate(p) if falsified),
                              default=0) for p in self.profiles]

    @staticmethod
    def partition(indices, verif: list, fals: list):
        """Inclusion-maximal tolerance partition as a list of sets of
        positions, or None when some stage tolerates nothing."""
        remaining, layers = set(indices), []
        while remaining:
            layer = {i for i in remaining
                     if any(not any(w in fals[j] for j in remaining)
                            for w in verif[i])}
            if not layer:
                return None
            layers.append(layer)
            remaining -= layer
        return layers

    def _models(self, text: str) -> set:
        f = compile_formula(text, self.atoms)
        return {w for w, v in enumerate(self.worlds) if f(v)}

    def _profile(self, w: int) -> list:
        return [frozenset(i for i in layer if w in self.fals[i])
                for layer in self.layers]

    def label(self, w: int) -> str:
        """The world as the package renders it: atoms in declaration order,
        '!' before the false ones."""
        return "".join(a if t else "!" + a for a, t in zip(self.atoms, self.worlds[w]))

    def less(self, w: int, w2: int) -> bool:
        """w is strictly preferred to w2 under system W."""
        return self._w_less(self.profiles[w], self.profiles[w2])

    def _w_less(self, p: list, q: list) -> bool:
        for j in range(len(p) - 1, -1, -1):
            if p[j] != q[j]:
                return p[j] < q[j]
        return False

    def entails(self, mode: str, ante: str, cons: str) -> bool:
        a = self._models(ante)
        if not a:
            return True
        b = self._models(cons)
        ab, anb = a & b, a - b
        if mode == "w":
            ab_profiles = [self.profiles[w] for w in ab]
            return all(any(self._w_less(p, self.profiles[w]) for p in ab_profiles)
                       for w in anb)
        if mode == "z":
            inf = float("inf")
            return (min((self.kappa[w] for w in ab), default=inf)
                    < min((self.kappa[w] for w in anb), default=inf))
        # p-entailment: adding (!B|A) makes the base inconsistent.
        n = len(self.conds)
        return self.partition(range(n + 1), self.verif + [anb],
                              self.fals + [ab]) is None
