"""The inclusion-maximal tolerance partition; None marks an inconsistent base."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .logic import BeliefBase


class InconsistentBeliefBaseError(ValueError):
    pass


@dataclass(frozen=True)
class TolerancePartition:
    """Ordered layers (0-based) of conditional indices; unique per belief base.
    Its highest layer index, k in the paper's lemma 1, is `len(layers) - 1`:
    -1 for the empty partition."""

    layers: tuple


def tolerance_partition(base: BeliefBase) -> Optional[TolerancePartition]:
    """Inclusion-maximal tolerance partition of the base's conditional
    indices, or None for an inconsistent base. A conditional is tolerated at
    a stage by a world that verifies it and falsifies none of the remaining
    ones; the base is inconsistent when some stage tolerates none of them."""
    pairs = [(c.verification_mask, c.falsification_mask) for c in base]
    remaining = list(base.indices())
    layers = []
    while remaining:
        fals_union = 0
        for i in remaining:
            fals_union |= pairs[i][1]
        safe = base.signature.full_mask & ~fals_union
        tolerated, rest = [], []
        for i in remaining:
            if pairs[i][0] & safe:
                tolerated.append(i)
            else:
                rest.append(i)
        if not tolerated:
            return None
        layers.append(frozenset(tolerated))
        remaining = rest
    return TolerancePartition(tuple(layers))
