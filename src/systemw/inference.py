"""Inference relations over a belief base: system W, system Z, p-entailment.

Every relation is invariant under logical equivalence, so the engines work on
model masks; `Formula` arguments are reduced to their masks at the boundary.
Each relation also satisfies right weakening and AND for a fixed antecedent,
so A |~ B holds iff C(A) ⊆ B for one consequence mask C(A) per antecedent.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Optional, Sequence

from .logic import BeliefBase, Formula
from .preferred import PreferredStructure
from .tolerance import InconsistentBeliefBaseError, tolerance_partition


def _p_consequence(pairs: list, full: int, a: int) -> int:
    """C(A) under p-entailment, for the conditionals' (verification,
    falsification) mask pairs. A |~ B is p-entailed iff the base extended
    with (!B|A) is inconsistent. With A's worlds never safe, the tolerance
    loop gets stuck on a set S of conditionals; the extension is
    inconsistent iff the A-and-not-B worlds all falsify some conditional
    of S. S is a subset of the conditionals left at every stage, so once A
    misses their falsification masks, C(A) is A."""
    outside = full & ~a
    while True:
        fals = 0
        for _, f in pairs:
            fals |= f
        if not a & fals:
            return a
        safe = outside & ~fals
        rest = [p for p in pairs if not p[0] & safe]
        if len(rest) == len(pairs):
            return a & ~fals
        pairs = rest


class InferenceMode(Enum):
    W = "w"
    Z = "z"
    P = "p"


class Engine:
    """Answers entailment queries for one belief base under one mode.

    W and Z read the same preferred structure: C(A) is the minimal worlds of
    A in W and A's worlds of the lowest rank in Z. P keeps the conditionals'
    mask pairs. Every mode caches C(A) per antecedent mask on first use; a
    cached value depends only on its key.
    """

    def __init__(
        self,
        base: BeliefBase,
        mode: InferenceMode,
        indices: Optional[Sequence[int]] = None,
    ):
        self.base = base
        self.mode = mode
        self.full = base.signature.full_mask
        self._indices = list(base.indices()) if indices is None else list(indices)
        partition = tolerance_partition(base, self._indices)
        if partition is None:
            raise InconsistentBeliefBaseError("belief base is inconsistent")
        self.partition = partition
        self._consequences: dict = {}  # antecedent mask -> C(A)
        if mode is InferenceMode.P:
            pairs = [
                (base[i].verification_mask, base[i].falsification_mask)
                for i in self._indices
            ]
            # Not a bound method: the engine would then be in a reference
            # cycle, and its cache freed only by the garbage collector.
            self._compute = partial(_p_consequence, pairs, self.full)
        else:
            self._ps = PreferredStructure(base, partition=partition)
            self._compute = (self._ps.minimal if mode is InferenceMode.W
                             else self._ps.lowest_rank)

    @property
    def preferred_structure(self) -> PreferredStructure:
        if self.mode is InferenceMode.P:
            raise ValueError("preferred structure is built for modes W and Z only")
        return self._ps

    def consequence(self, a: int) -> int:
        """C(A): the worlds of antecedent mask `a` that decide its
        inferences, so that A |~ B iff C(A) ⊆ B. C(0) is 0 in every mode."""
        a &= self.full
        c = self._consequences.get(a)
        if c is None:
            c = self._consequences[a] = self._compute(a)
        return c

    def entails_masks(self, a: int, b: int) -> bool:
        return self.consequence(a) & ~b == 0

    def entails(self, antecedent: Formula, consequent: Formula) -> bool:
        return self.entails_masks(antecedent.mask, consequent.mask)
