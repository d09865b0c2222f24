"""The inclusion-maximal tolerance partition; None marks an inconsistent base."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .logic import BeliefBase


class InconsistentBeliefBaseError(ValueError):
    pass


@dataclass(frozen=True)
class TolerancePartition:
    """Ordered layers (0-based) of conditional indices; unique per belief base."""

    layers: tuple

    @property
    def k(self) -> int:
        """Highest layer index; -1 for the empty partition."""
        return len(self.layers) - 1

    def all_indices(self) -> frozenset:
        return frozenset().union(*self.layers) if self.layers else frozenset()


def _partition_pairs(pairs: Sequence[tuple], full_mask: int) -> Optional[tuple]:
    """Layer the conditionals given as (verification, falsification) mask pairs.

    Returns a tuple of frozensets of positions, or None if at some stage no
    remaining conditional is tolerated by the remaining set.
    """
    remaining = list(range(len(pairs)))
    layers = []
    while remaining:
        fals_union = 0
        for i in remaining:
            fals_union |= pairs[i][1]
        safe = full_mask & ~fals_union
        tolerated = frozenset(i for i in remaining if pairs[i][0] & safe)
        if not tolerated:
            return None
        layers.append(tolerated)
        remaining = [i for i in remaining if i not in tolerated]
    return tuple(layers)


def tolerance_partition(
    base: BeliefBase, indices: Optional[Sequence[int]] = None
) -> Optional[TolerancePartition]:
    """Inclusion-maximal tolerance partition, or None for an inconsistent base.

    With `indices`, partitions only the selected conditionals of the base;
    layer sets still use the base's original indices.
    """
    if indices is None:
        indices = list(base.indices())
    else:
        indices = list(indices)
    pairs = [
        (base[i].verification_mask, base[i].falsification_mask) for i in indices
    ]
    raw = _partition_pairs(pairs, base.signature.full_mask)
    if raw is None:
        return None
    return TolerancePartition(
        tuple(frozenset(indices[p] for p in layer) for layer in raw)
    )
