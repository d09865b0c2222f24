"""Seeded benchmark inputs, produced as belief-base text and formula strings.

Nothing here imports the package under test: the program only ever receives
the text these functions return. Every generator takes a `random.Random`.
The shape of a base (its conditionals up to renaming) comes from a fixed
shape seed; the workload seed picks the atom names, the line order and the
queries. The cost of a run then depends on the program and not on the luck
of a draw, which matters because the figures of runs with different seeds
are compared.

A base is a dict with
  text   the belief-base file contents,
  atoms  the signature in declaration order,
  conds  the conditionals as (antecedent, consequent) formula strings, in
         construction order (the file lists them shuffled),
  kind   a short label ("chain", "split", "syntax"),
and `len(base["atoms"])` is its size in atoms.
"""

from __future__ import annotations

import random

# Atom names: a consonant and a digit. They match the package's atom syntax
# and can never collide with a keyword of the formula grammar or of Python
# (the reference evaluator compiles formulas to Python expressions).
_NAME_POOL = [c + d for c in "bcdfghjkmnpqrstvwxz" for d in "0123456789"]


def atom_names(n: int, rng: random.Random) -> list:
    return rng.sample(_NAME_POOL, n)


def make_base(kind: str, atoms: list, conds: list, rng: random.Random) -> dict:
    """Render the file with the lines shuffled. Line order leaves every answer
    and every cost unchanged. Declaration order is kept: it fixes the world
    bit layout, on which the W memo's recursion depth and the early exit of
    the Z scan depend."""
    lines = list(conds)
    rng.shuffle(lines)
    text = "\n".join(["# generated by perfbench", "signature: " + ", ".join(atoms)]
                     + [f"({b}|{a})" for a, b in lines]) + "\n"
    return {"kind": kind, "atoms": list(atoms), "conds": list(conds), "text": text}


def chain_conds(x: list) -> list:
    """Chain with one exception: (x1|x0), ..., (x{n-1}|x{n-2}) and (!x{n-1}|x0).
    Two tolerance layers; the profile classes grow with n like Fibonacci
    numbers."""
    n = len(x)
    return [(x[i], x[i + 1]) for i in range(n - 1)] + [(x[0], "!" + x[n - 1])]


def _minterm_text(atoms: list, t: int) -> str:
    """DNF over `atoms` whose minterms are the set bits of `t`."""
    full = (1 << (1 << len(atoms))) - 1
    if t == full:
        return "top"
    terms = []
    for s in range(1 << len(atoms)):
        if (t >> s) & 1:
            lits = [a if (s >> j) & 1 else "!" + a for j, a in enumerate(atoms)]
            terms.append(",".join(lits))
    return ";".join(terms) if terms else "bot"


def _part_consistent(num_atoms: int, pairs: list) -> bool:
    """Tolerance test on a part's own sub-worlds. A split base is consistent
    iff each of its parts is, so this is exact for the whole base."""
    full = (1 << (1 << num_atoms)) - 1
    remaining = list(pairs)
    while remaining:
        fals = 0
        for a, b in remaining:
            fals |= a & ~b & full
        kept = [(a, b) for a, b in remaining if not (a & b & ~fals)]
        if len(kept) == len(remaining):
            return False
        remaining = kept
    return True


def split_conds(sizes: tuple, conds_per_part: int, rng: random.Random,
                names: list) -> list:
    """Conditionals with a built-in syntax splitting of `names` into parts
    of the given sizes.

    Follows the construction of `generate_split_base` in the package: each
    conditional's antecedent and consequent are drawn uniformly among the
    non-trivial semantic formulas over its part and written as DNF; the draw
    repeats until every part is consistent.
    """
    parts, start = [], 0
    for size in sizes:
        parts.append(names[start:start + size])
        start += size
    conds = []
    for atoms in parts:
        top = (1 << (1 << len(atoms))) - 1
        while True:
            pairs = [(rng.randrange(1, top), rng.randrange(1, top))
                     for _ in range(conds_per_part)]
            if _part_consistent(len(atoms), pairs):
                break
        conds += [(_minterm_text(atoms, a), _minterm_text(atoms, b))
                  for a, b in pairs]
    return conds


def _random_formula(rng: random.Random, atoms: list, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(atoms) if rng.random() < 0.85 else "!" + rng.choice(atoms)
    kind = rng.choice(("neg", "conj", "disj"))
    if kind == "neg":
        return "!(" + _random_formula(rng, atoms, depth - 1) + ")"
    children = [_random_formula(rng, atoms, depth - 1)
                for _ in range(rng.randint(2, 3))]
    return "(" + (";" if kind == "disj" else ",").join(children) + ")"


def syntax_conds(names: list, num_conds: int, rng: random.Random,
                 consistent) -> list:
    """Random formula syntax trees of depth 2 over `names`, redrawn until
    `consistent(names, conds)` holds."""
    while True:
        conds = [(_random_formula(rng, names, 2), _random_formula(rng, names, 2))
                 for _ in range(num_conds)]
        if consistent(names, conds):
            return conds


# Query shapes as (literals in A, literals in B, connective of B). A is a
# conjunction, `top` when it has no literal. The stream cycles through them
# so that every seed asks the same mix.
QUERY_SHAPES = [(0, 1, ","), (0, 2, ";"), (0, 2, ","), (1, 1, ","), (1, 1, ","),
                (1, 2, ","), (1, 2, ";"), (2, 1, ","), (2, 1, ","), (2, 1, ",")]


def literal_query(atoms: list, shape: tuple, rng: random.Random) -> tuple:
    """(A, B) of the given shape over distinct atoms with random signs."""
    k_a, k_b, connective = shape
    lits = [a if rng.random() < 0.5 else "!" + a
            for a in rng.sample(atoms, k_a + k_b)]
    return ",".join(lits[:k_a]) or "top", connective.join(lits[k_a:])


def query_stream(bases: list, unique: int, rng: random.Random) -> list:
    """`unique` distinct (base index, A, B) triples, spread evenly over the
    bases and QUERY_SHAPES, each asked twice, so half of the stream repeats
    an earlier query. A repeat lands at a random later position."""
    pool, seen = [], set()
    for j in range(unique):
        i = j % len(bases)
        # A shape with few distinct queries (`top |~ x` has 2n) passes its
        # turn to the next one once it runs out.
        for attempt in range(50 * len(QUERY_SHAPES)):
            shape = QUERY_SHAPES[(j // len(bases) + attempt // 50) % len(QUERY_SHAPES)]
            item = (i,) + literal_query(bases[i]["atoms"], shape, rng)
            if item not in seen:
                break
        seen.add(item)
        pool.append(item)
    rng.shuffle(pool)
    stream = []
    pending = []
    for item in pool:
        stream.append(item)
        pending.append(item)
        if len(pending) > 1 and rng.random() < 0.5:
            stream.append(pending.pop(rng.randrange(len(pending) - 1)))
    rng.shuffle(pending)
    return stream + pending


def known_answer_queries(base: dict) -> list:
    """A small batch of queries whose answer follows from the postulates,
    for every mode. For the first three and the last conditional (B|A) in
    construction order (a fixed choice, so the batch has the same shape
    under every seed):
    (DI) A |~ B: yes;
    supraclassicality A |~ A;B: yes;
    A |~ !A, with A satisfiable: no."""
    out = []
    for a, b in base["conds"][:3] + base["conds"][-1:]:
        out.append((a, b, True))
        out.append((a, f"({a});({b})", True))
        out.append((a, f"!({a})", False))
    return out
