"""The inclusion-maximal tolerance partition; None marks an inconsistent base.

The partition depends on the base alone, so `tolerance_partition` computes it
once per `BeliefBase`, on first use, and keeps it on the base: the W, Z and P
engines of one base, and the consistency check before them, share it.

A `TolerancePartition` is a `logic.Frozen` record, so that loading this
module does not load `dataclasses`.
"""

from __future__ import annotations

from .logic import BeliefBase, Frozen


class InconsistentBeliefBaseError(ValueError):
    pass


class TolerancePartition(Frozen):
    """Ordered layers (0-based) of conditional indices; unique per belief base.
    Its highest layer index, k in the paper's lemma 1, is `len(layers) - 1`:
    -1 for the empty partition."""

    __slots__ = ("layers",)

    def __init__(self, layers: tuple):
        object.__setattr__(self, "layers", layers)


def tolerance_partition(base: BeliefBase) -> TolerancePartition | None:
    """Inclusion-maximal tolerance partition of the base's conditional
    indices, or None for an inconsistent base. The first call on a base
    computes it and stores it in the base's `_partition` slot, which is
    unset until then; every later call returns the stored value. The value
    holds only sets of indices, so the base is in no reference cycle."""
    try:
        return base._partition
    except AttributeError:
        partition = base._partition = _partition(base)
        return partition


def _partition(base: BeliefBase) -> TolerancePartition | None:
    """The partition, computed. A conditional is tolerated at a stage by a
    world that verifies it and falsifies none of the remaining ones; the
    base is inconsistent when some stage tolerates none of them."""
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
