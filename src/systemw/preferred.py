"""The preferred structure on worlds: falsification profiles and the strict
partial order they induce.

A world's profile is one bitmask per tolerance layer (bit i set iff the world
falsifies conditional i of that layer). One world precedes another iff, at the
highest layer where their profiles differ, its falsified set is a strict
subset of the other's.

The minimal worlds of a set are found by a descent from the top layer that
needs only each layer's falsification masks; so are its worlds of the lowest
system Z rank, which needs only each layer's union. The relation depends on
profiles alone, so it is read per profile class, over the class index that
the profile and relation queries build on first use: one descent over the
layers per class yields the classes below and above it. Nothing holds the
relation; each reader takes the masks of the classes it asks as they come.
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
    string: stripping the lowest bit repeatedly would copy a long mask once
    per set bit."""
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


def _hasse(up: list) -> list:
    """Per class, the classes above it with none strictly between, from the
    classes above each class of a list where each comes after every class
    below it. The lowest class above a class is a cover, since a class
    between would come before it; so is the lowest of those left once it and
    the classes above it are dropped, and so on, one step per cover."""
    covers = []
    for above in up:
        cover = 0
        while above:
            low = above & -above
            cover |= low
            above &= ~(low | up[low.bit_length() - 1])
        covers.append(cover)
    return covers


class PreferredStructure:
    """Queryable strict partial order on the worlds of a belief base.

    `minimal` and `lowest_rank` descend the tolerance layers; `_descent`
    yields the order over the classes of `class_index`. Every query reads
    only the layer table that `__init__` builds from the base's tolerance
    partition, computed once per base and shared by all its engines.
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
    def class_index(self) -> tuple:
        """(the class of each world, each class's key, each class's worlds
        in ascending order), in one pass over the worlds. A class is fixed
        by the set of conditionals its worlds falsify: each conditional's
        mask, written as a string, gives one character of that set per
        world, and a world's key is its characters, top layer first. Of two
        keys, the one below avoids a conditional the other falsifies at the
        first one where they differ, so sorting the keys lists each class
        after every class below it."""
        num_worlds = self.signature.num_worlds
        # Without conditionals, a column of zeros keeps the one class.
        columns = [format(f, f"0{num_worlds}b")[::-1]
                   for _, fals, _ in self._layers for f in fals] or ["0" * num_worlds]
        keys = sorted(set(zip(*columns)))
        number = {key: c for c, key in enumerate(keys)}
        class_of = array("I", map(number.__getitem__, zip(*columns)))
        members = [[] for _ in keys]
        for w, c in enumerate(class_of):
            members[c].append(w)
        return class_of, keys, members

    def _descent(self, classes=None):
        """Per class of `classes` in turn (by default every class in index
        order), the classes strictly below and above it as masks over class
        indices, each conditional's falsifying classes read off the keys. From
        the top layer down, `same` keeps the classes whose falsified sets equal
        the key's so far; of these, those falsifying a subset of the key's set
        at the next layer are `sub`, a superset `sup`. A strict subset is
        below, a strict superset above."""
        keys = self.class_index[1]
        columns = enumerate(int("".join(col)[::-1], 2) for col in zip(*keys))
        layers = [[next(columns) for _ in idx] for idx, _, _ in self._layers]
        full = (1 << len(keys)) - 1
        for key in keys if classes is None else map(keys.__getitem__, classes):
            same, below, above = full, 0, 0
            for layer in layers:
                outside, sup = 0, same
                for p, f in layer:
                    if key[p] == "1":
                        sup &= f
                    else:
                        outside |= f
                sub = same & ~outside
                same = sub & sup
                below |= sub ^ same
                above |= sup ^ same
            yield below, above

    def _worlds(self, classes: int) -> list:
        """The worlds of the classes of a mask, ascending."""
        members = self.class_index[2]
        worlds = []
        for c in _bits(classes):
            worlds += members[c]
        worlds.sort()
        return worlds

    def _class(self, w: int) -> int:
        """The class of world w; a ValueError if w is not a world."""
        if not 0 <= w < self.signature.num_worlds:
            raise ValueError(f"world {w} out of range 0..{self.signature.num_worlds - 1}")
        return self.class_index[0][w]

    # --- queries -------------------------------------------------------------

    def profile_bits(self, w: int) -> tuple:
        """Per layer, bottom first, the conditionals that w falsifies."""
        key = iter(self.class_index[1][self._class(w)])
        return tuple(sum(1 << i for i in idx if next(key) == "1")
                     for idx, _, _ in self._layers)[::-1]

    def below(self, w: int) -> int:
        """Bitmask of worlds strictly below w, from w's class's descent: one
        character per class says whether it is below, one per world picks it."""
        class_of, keys, _ = self.class_index
        flags = format(next(self._descent([self._class(w)]))[0], f"0{len(keys)}b")[::-1]
        return int("".join(map(flags.__getitem__, class_of))[::-1], 2)

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
        up = [self._worlds(above) for _, above in self._descent()]
        for w, c in enumerate(self.class_index[0]):
            for w2 in up[c]:
                yield (w, w2)

    def to_dot(self) -> str:
        """Hasse diagram; arrows point from a world to the more-preferred one.
        Edges come sorted by the more-preferred world, then the other."""
        lines = ["digraph preferred_structure {"]
        lines += [f'  w{w} [label="{label}"];'
                  for w, label in enumerate(self.signature.render_worlds())]
        heads = [[f"  w{hi} -> w" for hi in self._worlds(m)]
                 for m in _hasse([above for _, above in self._descent()])]
        for lo, c in enumerate(self.class_index[0]):
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
        uppers = [[labels[w2] for w2 in self._worlds(above)] for _, above in self._descent()]
        for w, c in enumerate(self.class_index[0]):
            if uppers[c]:
                label = labels[w]
                yield label + "\t" + ("\n" + label + "\t").join(uppers[c]) + "\n"
