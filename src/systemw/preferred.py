"""The preferred structure on worlds: falsification profiles and the strict
partial order they induce.

A world's profile is one bitmask per tolerance layer (bit i set iff the world
falsifies conditional i of that layer). One world precedes another iff, at the
highest layer where their profiles differ, its falsified set is a strict
subset of the other's.

The minimal worlds of a set are found by a descent from the top layer that
needs only each layer's falsification masks; so are its worlds of the lowest
system Z rank, which needs only each layer's union. The relation itself is
kept per profile class, a (profile, world mask) pair; the class list and the
index of every world's class are built on first use, by the profile and
relation queries only. The classes are listed so that each comes after every
class below it. One descent per class over the layers gives the worlds below
and above it; the same descent run over classes instead of worlds gives the
classes above it, and so its Hasse covers: the lowest class above it, then
the lowest one not above that, and so on.
"""

from __future__ import annotations

import re
from array import array
from functools import cached_property

from .logic import BeliefBase
from .tolerance import InconsistentBeliefBaseError, tolerance_partition


_ONE = re.compile("1")


def _bits(mask: int) -> list:
    """Positions of the set bits of `mask`, ascending. One scan of the binary
    string: stripping the lowest bit repeatedly would copy a 2^n-bit mask
    once per set bit."""
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


def _descent(profiles: list, layers: list, full: int) -> tuple:
    """Per profile, the members strictly below it and strictly above it.
    `layers` lists, top layer first, (conditional index, members that falsify
    it) pairs, and `full` is every member. From the top layer down, `same`
    keeps the members whose falsified sets equal the profile's so far; of
    these, those falsifying a subset of the profile's set at the next layer
    are `sub`, a superset `sup`. A strict subset is below, a strict superset
    above, any other set unrelated."""
    down, up = [], []
    for prof in profiles:
        same, below, above = full, 0, 0
        for x, layer in zip(reversed(prof), layers):
            outside, sup = 0, same
            for i, f in layer:
                if x >> i & 1:
                    sup &= f
                else:
                    outside |= f
            sub = same & ~outside
            same = sub & sup
            below |= sub ^ same
            above |= sup ^ same
        down.append(below)
        up.append(above)
    return down, up


class PreferredStructure:
    """Queryable strict partial order on the worlds of a belief base.

    `minimal` and `lowest_rank` descend the tolerance layers. `classes`
    lists the profile classes as (per-layer profile, world mask) pairs, in
    lexicographic order of their falsified sets, top layer first: a class
    comes after every class below it. It, the world-to-class index, the
    relation between classes and the covers (one descent over the layers per
    class, over worlds and over classes) are computed on first use. Every
    query reads only the layer table that `__init__` builds from the base's
    tolerance partition, computed once per base and shared by all its engines.
    """

    def __init__(self, base: BeliefBase):
        partition = tolerance_partition(base)
        if partition is None:
            raise InconsistentBeliefBaseError("belief base is inconsistent")
        self.base = base
        self.signature = base.signature
        self.partition = partition
        # Per layer, top first: its conditional indices (ascending), their
        # falsification masks and the masks' union.
        self._layers = []
        for layer in reversed(partition.layers):
            idx = sorted(layer)
            fals = [base[i].falsification_mask for i in idx]
            union = 0
            for f in fals:
                union |= f
            self._layers.append((idx, fals, union))

    @cached_property
    def classes(self) -> list:
        """Split the worlds by each conditional in turn, top layer first,
        those that avoid it before those that falsify it. A class below
        another avoids a conditional the other falsifies at the first one
        where they differ, so it comes first."""
        classes = [((), self.signature.full_mask)]
        for idx, masks, _ in self._layers:
            split = [(prof, 0, m) for prof, m in classes]
            for i, fals in zip(idx, masks):
                bit = 1 << i
                nxt = []
                for prof, xi, m in split:
                    hit = m & fals
                    if hit != m:
                        nxt.append((prof, xi, m ^ hit))
                    if hit:
                        nxt.append((prof, xi | bit, hit))
                split = nxt
            classes = [((xi,) + prof, m) for prof, xi, m in split]
        return classes

    @cached_property
    def _class_id(self) -> array:
        """The index in `classes` of every world's class, in one pass over
        the worlds. A class is fixed by the set of conditionals its worlds
        falsify: each conditional's mask, written as a string, gives one
        character of that set per world."""
        num_worlds = self.signature.num_worlds
        columns = [format(f, f"0{num_worlds}b")[::-1]
                   for _, fals, _ in self._layers for f in fals]
        if not columns:
            return array("I", bytes(4 * num_worlds))
        index = {}
        for c, (_, m) in enumerate(self.classes):
            w = (m & -m).bit_length() - 1  # any world of the class
            index[tuple([column[w] for column in columns])] = c
        return array("I", map(index.__getitem__, zip(*columns)))

    @cached_property
    def _relation(self) -> tuple:
        """Per class, the worlds strictly below it and strictly above it."""
        layers = [list(zip(idx, fals)) for idx, fals, _ in self._layers]
        return _descent([prof for prof, _ in self.classes], layers,
                        self.signature.full_mask)

    @cached_property
    def _covers(self) -> list:
        """Per class, the worlds above it with none strictly between. The
        descent over classes gives the classes above each one. The lowest of
        them is a cover, since a class between would come before it; so is
        the lowest of those left once it and the classes above it are
        dropped, and so on, one step per cover."""
        classes = self.classes
        members = [0] * len(self.base)  # per conditional, its classes
        for c, (prof, _) in enumerate(classes):
            bit = 1 << c
            for x in prof:
                while x:
                    low = x & -x
                    members[low.bit_length() - 1] |= bit
                    x ^= low
        layers = [[(i, members[i]) for i in idx] for idx, _, _ in self._layers]
        _, up = _descent([prof for prof, _ in classes], layers,
                         (1 << len(classes)) - 1)
        cover_w = []
        for above in up:
            cover = 0
            while above:
                low = above & -above
                d = low.bit_length() - 1
                cover |= classes[d][1]
                above &= ~(low | up[d])
            cover_w.append(cover)
        return cover_w

    # --- queries -------------------------------------------------------------

    def profile_bits(self, w: int) -> tuple:
        return self.classes[self._class_id[w]][0]

    def below(self, w: int) -> int:
        """Bitmask of worlds strictly below w."""
        return self._relation[0][self._class_id[w]]

    def minimal(self, mask: int) -> int:
        """Worlds of `mask` with no world of `mask` strictly below them."""
        # Among worlds that agree above layer j, a world is minimal iff its
        # falsified set at layer j is inclusion-minimal among theirs and it is
        # minimal among the worlds sharing that set. So each step takes the
        # worlds of one inclusion-minimal set down to the next layer.
        low = 0
        depth = len(self._layers)
        stack = [(0, mask & self.signature.full_mask)]
        while stack:
            j, m = stack.pop()
            if j == depth:
                low |= m
                continue
            _, fals, union = self._layers[j]
            clean = m & ~union
            if clean:
                stack.append((j + 1, clean))
                continue
            todo = m
            while todo:
                # Shrink the falsified set of the lowest world of `todo` to
                # an inclusion-minimal realised set S. `rest` holds the worlds
                # of m whose set lies within the current one, so one pass
                # drops each conditional that some of them avoid. S is new:
                # the worlds falsifying all of an earlier set left `todo`.
                bit = todo & -todo
                hit, outside = [], 0
                for f in fals:
                    if f & bit:
                        hit.append(f)
                    else:
                        outside |= f
                rest = m & ~outside
                every = m  # the worlds of m falsifying all of S
                for f in hit:
                    without = rest & ~f
                    if without:
                        rest = without
                    else:
                        every &= f
                stack.append((j + 1, rest))
                todo &= ~every
        return low

    def lowest_rank(self, mask: int) -> int:
        """Worlds of `mask` of the lowest system Z rank, where a world's rank
        is 1 + the highest layer in which it falsifies a conditional (0 if
        none). Keeps, from the top layer down, the worlds that avoid each
        layer's union, and stops at the first layer that none of them avoid."""
        m = mask & self.signature.full_mask
        for _, _, union in self._layers:
            clean = m & ~union
            if not clean:
                break
            m = clean
        return m

    def pairs(self):
        """Yields all related pairs (w, w2) with w strictly below w2, sorted."""
        up = [_bits(m) for m in self._relation[1]]
        for w, c in enumerate(self._class_id):
            for w2 in up[c]:
                yield (w, w2)

    def to_dot(self) -> str:
        """Hasse diagram; arrows point from a world to the more-preferred one.
        Edges come sorted by the more-preferred world, then the other."""
        lines = ["digraph preferred_structure {"]
        lines += [f'  w{w} [label="{label}"];'
                  for w, label in enumerate(self.signature.render_worlds())]
        heads = [[f"  w{hi} -> w" for hi in _bits(m)] for m in self._covers]
        for lo, c in enumerate(self._class_id):
            if heads[c]:
                tail = f"{lo};"
                lines.append((tail + "\n").join(heads[c]) + tail)
        lines.append("}")
        return "\n".join(lines)

    def to_tsv(self):
        """The full relation, one "w<TAB>w2" row per pair with w strictly
        preferred to w2, as world labels, sorted by w then w2; every row ends
        in a newline, so an empty relation yields nothing. Yields the rows of
        one world w at a time, so the whole text is never held at once."""
        labels = self.signature.render_worlds()
        uppers = [[labels[w2] for w2 in _bits(m)] for m in self._relation[1]]
        for w, c in enumerate(self._class_id):
            if uppers[c]:
                label = labels[w]
                yield label + "\t" + ("\n" + label + "\t").join(uppers[c]) + "\n"
