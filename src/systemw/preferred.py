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
relation queries only. The relation between the classes is built over the
trie of their profiles, top layer first: two classes are related only at
the layer where their profiles first differ, so only the children of one
trie node are ever compared, and covers are read off the trie as well.
"""

from __future__ import annotations

import re
from array import array
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .logic import BeliefBase
from .tolerance import InconsistentBeliefBaseError, TolerancePartition, tolerance_partition


_ONE = re.compile("1")


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


def _bits(mask: int) -> list:
    """Positions of the set bits of `mask`, ascending. One scan of the binary
    string: stripping the lowest bit repeatedly would copy a 2^n-bit mask
    once per set bit."""
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


class PreferredStructure:
    """Queryable strict partial order on the worlds of a belief base.

    `minimal` and `lowest_rank` descend the tolerance layers. `classes`
    lists the profile classes as (per-layer profile, world mask) pairs. It,
    the world-to-class index and the relation between classes (built over
    the profile trie) are computed on first use.
    """

    def __init__(
        self,
        base: BeliefBase,
        indices: Optional[Sequence[int]] = None,
        partition: Optional[TolerancePartition] = None,
    ):
        if partition is None:
            partition = tolerance_partition(base, indices)
            if partition is None:
                raise InconsistentBeliefBaseError("belief base is inconsistent")
        self.base = base
        self.signature = base.signature
        self.partition = partition
        # Per layer, top first: its falsification masks and their union.
        self._layers = []
        for layer in reversed(partition.layers):
            fals = [base[i].falsification_mask for i in sorted(layer)]
            union = 0
            for f in fals:
                union |= f
            self._layers.append((fals, union))
        self._down_w = self._up_w = self._cover_w = None

    @cached_property
    def classes(self) -> list:
        base = self.base
        classes = [((), self.signature.full_mask)]
        for layer in self.partition.layers:
            split = [(prof, 0, m) for prof, m in classes]
            for i in sorted(layer):
                fals, bit = base[i].falsification_mask, 1 << i
                nxt = []
                for prof, xi, m in split:
                    hit = m & fals
                    if hit:
                        nxt.append((prof, xi | bit, hit))
                    if hit != m:
                        nxt.append((prof, xi, m ^ hit))
                split = nxt
            classes = [(prof + (xi,), m) for prof, xi, m in split]
        return classes

    @cached_property
    def _class_id(self) -> array:
        """The index in `classes` of every world's class, in one pass over
        the worlds. A class is fixed by the set of conditionals its worlds
        falsify: each conditional's mask, written as a string, gives one
        character of that set per world."""
        conds = [i for layer in self.partition.layers for i in layer]
        num_worlds = self.signature.num_worlds
        if not conds:
            return array("I", bytes(4 * num_worlds))
        columns = [format(self.base[i].falsification_mask, f"0{num_worlds}b")[::-1]
                   for i in conds]
        index = {}
        for c, (_, m) in enumerate(self.classes):
            w = (m & -m).bit_length() - 1  # any world of the class
            index[tuple([column[w] for column in columns])] = c
        return array("I", map(index.__getitem__, zip(*columns)))

    def _relate(self) -> None:
        """Fill in the class relation: per class, the worlds strictly below
        it, strictly above it and covering it (above it with nothing strictly
        between).

        Two classes are related only at the highest layer where their
        profiles differ. So the classes form a trie keyed by their falsified
        sets, top layer first, and only siblings in it are compared. A class
        lies below every class of a sibling subtree whose set contains its
        own, and it is covered by the classes minimal in such a subtree when
        that set covers its own among the siblings and it is maximal in its
        own subtree: a class strictly between the two would have to sit in
        one of the two subtrees or in a sibling strictly between them."""
        if self._cover_w is not None:
            return
        classes = self.classes
        n = len(classes)
        down_w, up_w, cover_w = [0] * n, [0] * n, [0] * n
        # A trie node, built from the lowest layer up: (a profile of its
        # classes, its worlds, the worlds of its classes minimal within it,
        # its classes, its classes maximal within it).
        nodes = [(prof, m, m, [c], [c]) for c, (prof, m) in enumerate(classes)]
        for j in range(len(self.partition.layers)):
            groups = {}  # the children of each node of the next layer up
            for node in nodes:
                groups.setdefault(node[0][j + 1:], []).append(node)
            nodes = []
            for kids in groups.values():
                if len(kids) == 1:
                    nodes.append(kids[0])
                    continue
                kids.sort(key=lambda kid: kid[0][j].bit_count())
                profs, worlds, least, members, most = zip(*kids)
                covered = _lower_covers([prof[j] for prof in profs])
                # Per child, the worlds of the siblings below it and above
                # it, and those of the minimal classes of the siblings
                # covering it.
                below, above, cover = [0] * len(kids), [0] * len(kids), [0] * len(kids)
                for p, lower in enumerate(covered):
                    for q in lower:
                        below[p] |= worlds[q] | below[q]
                for p in range(len(kids) - 1, -1, -1):
                    for q in covered[p]:
                        above[q] |= worlds[p] | above[p]
                        cover[q] |= least[p]
                node_worlds = node_least = 0
                node_members, node_most = [], []
                for p in range(len(kids)):
                    node_worlds |= worlds[p]
                    node_members += members[p]
                    if below[p]:
                        for c in members[p]:
                            down_w[c] |= below[p]
                    else:
                        node_least |= least[p]
                    if above[p]:
                        for c in members[p]:
                            up_w[c] |= above[p]
                        for c in most[p]:
                            cover_w[c] |= cover[p]
                    else:
                        node_most += most[p]
                nodes.append((profs[0], node_worlds, node_least, node_members, node_most))
        self._down_w, self._up_w = down_w, up_w
        self._cover_w = cover_w  # set last: it marks the relation as filled in

    # --- queries -------------------------------------------------------------

    def profile_bits(self, w: int) -> tuple:
        return self.classes[self._class_id[w]][0]

    def below(self, w: int) -> int:
        """Bitmask of worlds strictly below w."""
        self._relate()
        return self._down_w[self._class_id[w]]

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
            fals, union = self._layers[j]
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
        for _, union in self._layers:
            clean = m & ~union
            if not clean:
                break
            m = clean
        return m

    def pairs(self) -> Iterator[tuple]:
        """All related pairs (w, w2) with w strictly below w2, sorted."""
        self._relate()
        up = [_bits(m) for m in self._up_w]
        for w, c in enumerate(self._class_id):
            for w2 in up[c]:
                yield (w, w2)

    def to_dot(self) -> str:
        """Hasse diagram; arrows point from a world to the more-preferred one.
        Edges come sorted by the more-preferred world, then the other."""
        self._relate()
        lines = ["digraph preferred_structure {"]
        lines += [f'  w{w} [label="{label}"];'
                  for w, label in enumerate(self.signature.render_worlds())]
        heads = [[f"  w{hi} -> w" for hi in _bits(m)] for m in self._cover_w]
        for lo, c in enumerate(self._class_id):
            if heads[c]:
                tail = f"{lo};"
                lines.append((tail + "\n").join(heads[c]) + tail)
        lines.append("}")
        return "\n".join(lines)

    def to_tsv(self) -> Iterator[str]:
        """The full relation, one "w<TAB>w2" row per pair with w strictly
        preferred to w2, as world labels, sorted by w then w2; every row ends
        in a newline, so an empty relation yields nothing. Yields the rows of
        one world w at a time, so the whole text is never held at once."""
        self._relate()
        labels = self.signature.render_worlds()
        uppers = [[labels[w2] for w2 in _bits(m)] for m in self._up_w]
        for w, c in enumerate(self._class_id):
            if uppers[c]:
                label = labels[w]
                yield label + "\t" + ("\n" + label + "\t").join(uppers[c]) + "\n"
