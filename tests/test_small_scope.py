"""The syntax-splitting postulates on every small split base, exhaustively.

`fuzz` samples seeded bases, but the paper's claim is about all of them. At
these scopes all of them can be listed. Conditionals are drawn as
`generate_split_base` draws them: a non-trivial antecedent and consequent
over one part, which gives 4 conditionals over one atom and 196 over two. A
base takes a set of distinct conditionals for each part, so the bases are
ordered pairs of such sets. Each consistent base is checked at the default
bound, which is exhaustive over the formulas of parts this small.

The counts pinned here are what the package answers: W satisfies (Rel),
(Ind), (DI) and lemmas 1-4 on every base, and p-entailment fails (Ind) on
exactly 192 bases of the 1 + 2 scope, and (Rel) on none.
"""

import itertools
from collections import Counter

import pytest

from systemw import (
    BeliefBase,
    Conditional,
    InferenceMode,
    Signature,
    SyntaxSplitting,
    check_di,
    check_ind,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_rel,
    tolerance_partition,
)
from systemw.splitting import PartScope

LEMMAS = (check_lemma1, check_lemma2, check_lemma3, check_lemma4)


def splittings(atoms1, atoms2, sizes):
    """The splitting of every base with `sizes` distinct conditionals per
    part, and the number of bases, consistent or not."""
    sig = Signature(atoms1 + atoms2)
    scopes = (PartScope(sig, atoms1), PartScope(sig, atoms2))
    choices = []
    for scope in scopes:
        ts = range(1, scope.full_sub)  # neither contradiction nor tautology
        conds = [Conditional(scope.formula(a), scope.formula(b)) for a in ts for b in ts]
        choices.append([c for k in sizes for c in itertools.combinations(conds, k)])
    bases = [BeliefBase(sig, c1 + c2) for c1, c2 in itertools.product(*choices)]
    consistent = [SyntaxSplitting(base, (atoms1, atoms2), scopes)
                  for base in bases if tolerance_partition(base) is not None]
    return consistent, len(bases)


SCOPES = {
    "1+1, 1-3 conditionals per part": (("a",), ("b",), (1, 2, 3), 196, 9, {}),
    "1+2, 1 conditional per part": (("a",), ("b", "c"), (1,), 784, 292,
                                    {("p", "ind"): 192}),
}


@pytest.mark.parametrize("scope", list(SCOPES))
def test_every_small_split_base(scope):
    atoms1, atoms2, sizes, num_bases, num_consistent, want = SCOPES[scope]
    spls, total = splittings(atoms1, atoms2, sizes)
    assert (total, len(spls)) == (num_bases, num_consistent)
    failures = Counter()  # (mode, postulate) -> failing bases
    for spl in spls:
        lemmas = [check(spl) for check in LEMMAS]  # they read the W structures
        failures.update(("w", r.postulate) for r in lemmas if not r.passed)
        for mode in InferenceMode:
            reports = (check_rel(spl, mode), check_ind(spl, mode), check_di(spl.engine(mode)))
            failures.update((mode.value, r.postulate) for r in reports if not r.passed)
    assert dict(failures) == want
