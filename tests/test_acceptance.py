"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria are golden-example plus property-based; every tolerance (all are
exact verdicts plus wall-clock budgets) is pinned here.
"""

import time

import numpy as np
import pytest

from systemw import (
    Engine,
    InferenceMode,
    check_di,
    check_ind,
    check_rel,
    check_synsplit,
    check_tv,
    detect_splitting,
    generate_split_base,
    parse_formula,
    tolerance_partition,
)
from systemw.preferred import PreferredStructure
from systemw.splitting import LEMMA_CHECKS

from oracles import (
    above_masks,
    conjoin,
    oracle_tolerance_partition,
    random_base,
    random_consistent_base,
)


def verdict(num, name, ok, started):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    return elapsed


@pytest.fixture(scope="module")
def suite2_bases():
    return [random_base(seed, max_atoms=4, max_conds=4) for seed in range(200)]


@pytest.fixture(scope="module")
def suite3_bases():
    return [
        random_consistent_base(1000 + seed, max_atoms=6, max_conds=6)
        for seed in range(200)
    ]


@pytest.fixture(scope="module")
def suite4_bases():
    return [
        random_consistent_base(2000 + seed, max_atoms=3, max_conds=4)
        for seed in range(50)
    ]


@pytest.fixture(scope="module")
def suite5_bases():
    bases = []
    for seed in range(100):
        vars_per_part = seed % 2 + 1  # parts of at most 2 atoms
        conds_per_part = seed % 3
        bases.append(generate_split_base(vars_per_part, conds_per_part, 3000 + seed))
    return bases


def test_criterion_1_example1_golden(example1):
    t0 = time.perf_counter()
    sig = example1.signature
    a = parse_formula("d,p", sig)
    b = parse_formula("!v", sig)
    engines = {m: Engine(example1, m) for m in InferenceMode}
    assert engines[InferenceMode.W].entails(a, b)
    assert not engines[InferenceMode.Z].entails(a, b)
    assert not engines[InferenceMode.P].entails(a, b)
    d = parse_formula("d", sig)
    for m in InferenceMode:
        assert engines[m].entails(d, b)
    splitting = detect_splitting(example1)
    assert splitting.parts == (("b", "p", "f"), ("v", "d"))
    elapsed = verdict(1, "Example-1 golden suite", True, t0)
    assert elapsed < 1.0


def test_criterion_2_tolerance_oracle_equivalence(suite2_bases):
    t0 = time.perf_counter()
    for base in suite2_bases:
        got = tolerance_partition(base)
        expected = oracle_tolerance_partition(base)
        if expected is None:
            assert got is None
        else:
            assert got is not None and list(got.layers) == expected
    elapsed = verdict(2, "tolerance oracle equivalence (200 bases)", True, t0)
    assert elapsed < 10.0


def test_criterion_3_strict_partial_order(suite3_bases):
    t0 = time.perf_counter()
    for base in suite3_bases:
        ps = PreferredStructure(base)
        n = base.signature.num_worlds
        above = above_masks(ps)
        for w in range(n):
            assert not (ps.below(w) >> w) & 1  # irreflexive
            assert ps.below(w) & above[w] == 0  # asymmetric
            doms = ps.below(w)
            while doms:
                low = doms & -doms
                mid = low.bit_length() - 1
                # anything below a world below w is below w
                assert ps.below(mid) & ~ps.below(w) == 0
                doms ^= low
    elapsed = verdict(3, "strict-partial-order suite (200 bases)", True, t0)
    assert elapsed < 30.0


def _z_w_sweep(base):
    """Vectorized W and Z verdicts over every semantic formula pair."""
    sig = base.signature
    space = sig.full_mask + 1
    full = space - 1
    above = above_masks(Engine(base, InferenceMode.W).preferred_structure)

    # per-world Z ranks, from the tolerance partition directly
    partition = tolerance_partition(base)
    kappa = [0] * sig.num_worlds
    for j, layer in enumerate(partition.layers):
        for i in layer:
            fm = base[i].falsification_mask
            for w in range(sig.num_worlds):
                if (fm >> w) & 1:
                    kappa[w] = max(kappa[w], j + 1)

    big = 1 << 20
    dom = np.zeros(space, dtype=np.int64)
    mink = np.full(space, big, dtype=np.int64)
    for m in range(1, space):
        low = m & -m
        bit = low.bit_length() - 1
        dom[m] = dom[m ^ low] | above[bit]
        mink[m] = min(mink[m ^ low], kappa[bit])
    a = np.arange(space, dtype=np.int64).reshape(-1, 1)
    b = np.arange(space, dtype=np.int64).reshape(1, -1)
    ab = a & b
    anb = a & ~b & full
    w_res = (anb & ~dom[ab] & full) == 0
    z_res = (a == 0) | (mink[ab] < mink[anb])
    return z_res, w_res


def test_criterion_4_w_extends_z(suite4_bases):
    t0 = time.perf_counter()
    strict_instances = 0
    rng_pairs = [(3, 5), (0, 0), (7, 2), (5, 5)]
    for base in suite4_bases:
        z_res, w_res = _z_w_sweep(base)
        assert not (z_res & ~w_res).any()  # Z-inference implies W-inference
        strict_instances += int((w_res & ~z_res).sum())
        # spot-check the vectorized sweep against the query engines
        engw = Engine(base, InferenceMode.W)
        engz = Engine(base, InferenceMode.Z)
        space = base.signature.full_mask + 1
        for a, b in rng_pairs:
            a %= space
            b %= space
            assert w_res[a, b] == engw.entails_masks(a, b)
            assert z_res[a, b] == engz.entails_masks(a, b)
    assert strict_instances > 0  # W infers strictly more somewhere in the suite
    elapsed = verdict(
        4, f"W-extends-Z suite (50 bases, {strict_instances} strict)", True, t0
    )
    assert elapsed < 60.0


def test_criterion_5_synsplit_for_w(example1, suite5_bases):
    t0 = time.perf_counter()
    spl = detect_splitting(example1)
    for check in (check_rel, check_ind, check_synsplit):
        report = check(spl, InferenceMode.W, bound=2, seed=0)
        assert report.passed, report.line()
    for _, spl in suite5_bases:
        report = check_synsplit(spl, InferenceMode.W, bound=2, seed=0)
        assert report.passed, report.line()
    elapsed = verdict(
        5, "syntax-splitting postulates for system W (Example 1 + 100 bases)",
        True, t0,
    )
    assert elapsed < 60.0


def test_criterion_6_baseline_failure_witnesses(example1):
    t0 = time.perf_counter()
    spl = detect_splitting(example1)
    sig = example1.signature
    for mode in (InferenceMode.Z, InferenceMode.P):
        report = check_ind(spl, mode)
        assert not report.passed and report.witness
        a = parse_formula(report.witness["A"], sig)
        b = parse_formula(report.witness["B"], sig)
        d = parse_formula(report.witness["D"], sig)
        assert d.satisfiable()
        engine = Engine(example1, mode)
        assert engine.entails(a, b) != engine.entails(conjoin(a, d), b)
    # the canonical witness is itself a genuine violation for both baselines
    a, b, d = (parse_formula(t, sig) for t in ("d", "!v", "p"))
    for mode in (InferenceMode.Z, InferenceMode.P):
        engine = Engine(example1, mode)
        assert engine.entails(a, b) and not engine.entails(conjoin(a, d), b)
    verdict(6, "baseline (Ind) failure witnesses replay", True, t0)


def test_criterion_7_lemma_suites(example1):
    t0 = time.perf_counter()
    spl = detect_splitting(example1)
    for name, check in LEMMA_CHECKS.items():
        report = check(spl)
        assert report.passed, report.line()
    for seed in range(500):
        vars_per_part = seed % 3 + 1
        conds_per_part = (seed // 3) % 3 + 1
        _, spl = generate_split_base(vars_per_part, conds_per_part, 4000 + seed)
        for name, check in LEMMA_CHECKS.items():
            report = check(spl)
            assert report.passed, f"seed={4000 + seed}: {report.line()}"
    elapsed = verdict(7, "lemma suites (Example 1 + 500 bases)", True, t0)
    assert elapsed < 60.0


def test_criterion_8_di_and_tv(suite2_bases, suite3_bases, suite4_bases,
                               suite5_bases):
    t0 = time.perf_counter()
    bases = [b for b in suite2_bases if tolerance_partition(b) is not None]
    bases += suite3_bases + suite4_bases + [b for b, _ in suite5_bases]
    for base in bases:
        for mode in InferenceMode:
            report = check_di(Engine(base, mode))
            assert report.passed, report.line()
    for mode in InferenceMode:
        report = check_tv(mode)
        assert report.passed, report.line()
    elapsed = verdict(
        8, f"(DI) over {len(bases)} bases x 3 modes and exhaustive (TV)", True, t0
    )
    assert elapsed < 60.0
