"""Inference relations over a belief base: system W, system Z, p-entailment.

Every relation is invariant under logical equivalence, so the engines work on
model masks; `Formula` arguments are reduced to their masks at the boundary.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .logic import BeliefBase, Formula
from .preferred import PreferredStructure
from .tolerance import InconsistentBeliefBaseError, tolerance_partition


class InferenceMode(Enum):
    W = "w"
    Z = "z"
    P = "p"


class Engine:
    """Answers entailment queries for one belief base under one mode.

    Mode-specific state (preferred structure, Z ranks, tolerance mask pairs)
    is computed once. W caches the minimal worlds of each antecedent mask on
    first use; a cached value depends only on its key.
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
        if mode is InferenceMode.W:
            self._ps = PreferredStructure(base, partition=partition)
            self._minimal: dict = {}  # antecedent mask -> its minimal worlds
        elif mode is InferenceMode.Z:
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
            self._pairs = [
                (base[i].verification_mask, base[i].falsification_mask)
                for i in self._indices
            ]

    @property
    def preferred_structure(self) -> PreferredStructure:
        if self.mode is not InferenceMode.W:
            raise ValueError("preferred structure is built for mode W only")
        return self._ps

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
        if self.mode is InferenceMode.W:
            low = self._minimal.get(a)
            if low is None:
                low = self._minimal[a] = self._ps.minimal(a)
            return low & ~b == 0
        ab = a & b
        anb = a & ~b
        if self.mode is InferenceMode.Z:
            return self._min_rank(ab) < self._min_rank(anb)
        # p-entailment: the base extended with (!B|A) must be inconsistent.
        # Every subset of the base is consistent, so the extension is
        # consistent iff some stage of its tolerance partition tolerates
        # (!B|A) before the stages get stuck.
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

    def entails(self, antecedent: Formula, consequent: Formula) -> bool:
        return self.entails_masks(antecedent.mask, consequent.mask)
