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


def _partition_pairs(pairs: Sequence[tuple], worlds: int) -> tuple:
    """Layer the conditionals given as (verification, falsification) mask
    pairs, where a conditional is tolerated at a stage by a world of `worlds`
    that verifies it and falsifies none of the remaining ones.

    Returns (layers, stuck): the layers as lists of positions, and the
    positions left when some stage tolerates none of them (empty when every
    conditional is layered).
    """
    remaining = list(range(len(pairs)))
    layers = []
    while remaining:
        fals_union = 0
        for i in remaining:
            fals_union |= pairs[i][1]
        safe = worlds & ~fals_union
        tolerated, rest = [], []
        for i in remaining:
            if pairs[i][0] & safe:
                tolerated.append(i)
            else:
                rest.append(i)
        if not tolerated:
            break
        layers.append(tolerated)
        remaining = rest
    return layers, remaining


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
    layers, stuck = _partition_pairs(pairs, base.signature.full_mask)
    if stuck:
        return None
    return TolerancePartition(
        tuple(frozenset(indices[p] for p in layer) for layer in layers)
    )
