"""The per-signature formula memo and the per-engine C(A) cache: their
bound, what a full cache does, and that neither keeps a base alive or
breaks concurrent queries."""

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from itertools import combinations
from pathlib import Path

import systemw
from systemw import Engine, InferenceMode, generate_split_base, logic, parse_formula
from systemw.cli import load_belief_base

from conftest import EXAMPLE1_TEXT


def example1_texts():
    """Formula texts over example 1's atoms: every literal and every
    conjunction and disjunction of two literals of different atoms."""
    literals = [s + a for a in "bpfvd" for s in ("", "!")]
    texts = list(literals)
    for x, y in combinations(literals, 2):
        if x[-1] != y[-1]:
            texts += [f"{x},{y}", f"{x};{y}"]
    return texts


def test_full_consequence_cache_clears_and_answers_again(monkeypatch):
    monkeypatch.setattr(logic, "CACHE_BYTES", 2 * logic.MIN_ENTRY_BYTES)
    small = load_belief_base(EXAMPLE1_TEXT)
    monkeypatch.undo()
    full = load_belief_base(EXAMPLE1_TEXT)
    assert (small.signature.cache_entries, full.signature.cache_entries) == (
        2, logic.CACHE_BYTES // logic.MIN_ENTRY_BYTES)
    texts = example1_texts()[:40]
    for mode in InferenceMode:
        engine, reference = Engine(small, mode), Engine(full, mode)
        sizes = set()
        for text in texts + texts:
            a = parse_formula(text, small.signature).mask
            assert engine.consequence(a) == reference.consequence(a)
            sizes.add(len(engine._consequences))
        assert sizes == {1, 2}


# Asks a Z engine on the 24-atom chain `count` distinct two-literal
# antecedents under an address-space limit, in a fresh process. Then it asks
# a sample again, of the same engine (its cache cleared since) and of a
# fresh one, and prints everything as JSON.
_CAP_CHILD = """
import json, resource, sys
limit, count = int(sys.argv[1]), int(sys.argv[2])
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from conftest import chain_text
from systemw import Engine, InferenceMode, parse_formula
from systemw.cli import load_belief_base
base = load_belief_base(chain_text(24))
sig = base.signature
queries = [(f"a{i},{s}a{j}", f"a{(i + 1) % 24}")
           for i in range(24) for j in range(i + 1, 24) for s in ("", "!")][:count]

def ask(engine, queries):
    return [engine.entails(parse_formula(a, sig), parse_formula(b, sig))
            for a, b in queries]

engine = Engine(base, InferenceMode.Z)
answers = ask(engine, queries)
entries = len(engine._consequences)
sample = queries[::20]
again = ask(engine, sample)
del engine
fresh = ask(Engine(base, InferenceMode.Z), sample)
print(json.dumps({"answers": answers, "entries": entries, "bound": sig.cache_entries,
                  "again": again, "fresh": fresh}))
"""


def test_distinct_antecedents_at_the_cap_within_one_gigabyte():
    env = dict(os.environ)
    paths = [str(Path(__file__).parent), str(Path(systemw.__file__).parents[1])]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CAP_CHILD, str(1 << 30), "400"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert len(out["answers"]) == 400
    assert 0 < out["entries"] <= out["bound"] < 400  # the cache was cleared
    assert out["again"] == out["fresh"] == out["answers"][::20]
    assert 0 < sum(out["answers"]) < 400


def test_a_base_is_freed_without_the_cycle_collector():
    """Neither the memo nor an engine points back at what holds it: a
    memoized `Formula` would keep its signature alive, and so would a P
    engine that kept a bound method of itself."""
    gc.disable()
    try:
        base = load_belief_base(EXAMPLE1_TEXT)
        sig = base.signature
        engines = [Engine(base, mode) for mode in InferenceMode]
        for _ in range(2):
            for a_text, b_text in (("d,p", "!v"), ("b", "f"), ("p", "!f")):
                a, b = parse_formula(a_text, sig), parse_formula(b_text, sig)
                for engine in engines:
                    engine.entails(a, b)
        assert len(sig._formulas) == 6
        # The base keeps the partition its engines share.
        assert base._partition is engines[0].preferred_structure.partition
        refs = [weakref.ref(x) for x in (sig, base, *engines)]
        del base, sig, engines, engine, a, b
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def test_a_generated_base_and_its_splitting_are_freed_without_the_cycle_collector():
    """The partition each base and sub-base keeps holds sets of indices
    only, so the bases are freed once the splitting and engines are."""
    gc.disable()
    try:
        base, split = generate_split_base(2, 3, 0)
        sides = (None, *split.conditional_parts)
        engines = [split.engine(mode, idxs) for mode in InferenceMode for idxs in sides]
        assert all(e.base._partition is not None for e in engines)
        refs = [weakref.ref(x) for x in (base, split, *(e.base for e in engines[:3]))]
        del base, split, engines
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def test_threads_agree_under_constant_eviction(monkeypatch):
    """Several threads parse and query one base whose caches hold three
    entries each, so every few calls some thread clears one of them."""
    texts = example1_texts()
    queries = [(mode, a, b) for mode in InferenceMode
               for a in texts[::7] for b in texts[:20]]
    reference = load_belief_base(EXAMPLE1_TEXT)
    engines = {mode: Engine(reference, mode) for mode in InferenceMode}
    want = {(m, a, b): engines[m].entails(parse_formula(a, reference.signature),
                                          parse_formula(b, reference.signature))
            for m, a, b in queries}

    monkeypatch.setattr(logic, "CACHE_BYTES", 3 * logic.MIN_ENTRY_BYTES)
    base = load_belief_base(EXAMPLE1_TEXT)
    sig = base.signature
    assert sig.cache_entries == 3
    engines = {mode: Engine(base, mode) for mode in InferenceMode}
    results, errors = [], []

    def worker(start):
        try:
            got = {}
            for m, a, b in queries[start:] + queries[:start]:
                got[(m, a, b)] = engines[m].entails(parse_formula(a, sig),
                                                    parse_formula(b, sig))
            results.append(got)
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k * len(queries) // 4,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4 and all(got == want for got in results)
    assert len(set(want.values())) == 2
