"""The three workloads and the measuring loop they share.

Every workload is one process, single-threaded, a closed loop with one
client. A run repeats identical rounds until its time is up; a round sets up
(parses the base texts and builds an engine per base and mode), answers a
query stream, runs the verification harness through `cli.main`, and exports
the preferred structure with `order`. The workloads differ in their bases
and in how much of each phase a round holds, which decides the layer that
dominates. Every value that depends on the program's speed is a per-round
sample; the run reports medians of them.

Each call into the program is an op with one outcome: "ok", "wrong",
"fault:<ExceptionType>" or "over-limit". A fault never aborts a run, and
nothing here raises the recursion limit or catches inside the program.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict

import oracles
from systemw import cli, inference, logic, tolerance

import inputs
from reference import Reference

MODES = ("w", "z", "p")
OP_LIMIT_S = 60.0  # an op running longer than this counts as failed

RATIONALE = {
    "query": "read-heavy serving: 10-atom bases built once per round, then a "
             "stream of parsed entailment queries in W, Z and P, half of them "
             "repeats; inference and logic do almost all the work",
    "verify": "the researcher's harness: fuzz and postulates through cli.main "
              "on 4-6 atom split bases, thousands of tiny engine builds and "
              "about a million queries on 16-64 worlds per round",
    "scale": "build-heavy: a ladder of chain bases at 10..16 atoms and split "
             "bases at 10, 12, 14 atoms, one engine per base and mode, "
             "known-answer queries and order exports; holds the known W faults",
}


class OverLimit(BaseException):
    """Raised by the alarm when an op runs past OP_LIMIT_S."""


def on_alarm(signum, frame):
    raise OverLimit()


class Recorder:
    """Op outcomes, per base size, and the first few wrong answers."""

    def __init__(self):
        self.outcomes = Counter()
        self.by_size = defaultdict(Counter)
        self.wrong = []

    def note(self, size: int, outcome: str, what: str = "") -> None:
        self.outcomes[outcome] += 1
        self.by_size[size][outcome] += 1
        if outcome == "wrong" and len(self.wrong) < 20:
            self.wrong.append(" ".join(what.split()))

    def call(self, size: int, fn, *args):
        """Run one guarded op; returns (outcome, result, seconds). The outcome
        is "ok" unless the call raised or ran over the limit; the caller
        grades the result and notes the op."""
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            outcome = "ok"
        except OverLimit:
            result, outcome = None, "over-limit"
        except Exception as e:  # the boundary of one op: record, go on
            result, outcome = None, "fault:" + type(e).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return outcome, result, time.perf_counter() - t0

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def ok_share(self) -> float:
        return self.outcomes["ok"] / self.attempted

    def max_atoms(self) -> int:
        """Largest n such that every op on every base of at most n atoms
        was answered correctly within the limit (0 if there is none)."""
        best = 0
        for n in sorted(self.by_size):
            if set(self.by_size[n]) != {"ok"}:
                break
            best = n
        return best


def _run_cli(argv: list):
    """`cli.main` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# The instance counts `postulates` reports print.
INSTANCES_RE = re.compile(r"\b(?:instances|pairs|conditionals)=(\d+)")


# --- workload specifications -------------------------------------------------
#
# A spec holds
#   bases      served bases: set up every round, one engine per mode
#   stream     (base index, A, B, expected or None, timed) items, each asked
#              in every mode; only timed items feed qps and latency
#   fuzz       fuzz argument lists (run with --seed FUZZ_SEED)
#   postulates (base index, mode, checks) triples for `postulates`
#   exports    (base index, format) pairs for `order`
#   cold       (size, argv, expected stdout) for the fresh-process runs; a
#              None in argv stands for the file of the first base of `size`


def write_bases(spec: dict, workdir: str, tag: str) -> None:
    for i, base in enumerate(spec["bases"]):
        base["path"] = os.path.join(workdir, f"{tag}-{i}.cb")
        base["size"] = len(base["atoms"])
        with open(base["path"], "w", encoding="utf-8") as fh:
            fh.write(base["text"])


# Shape seeds: each base's conditionals, up to renaming, come from a fixed
# seed, so runs with different workload seeds do the same amount of work
# (split-base builds at 14 atoms take from 3.5 s to 5.9 s across shapes).
QUERY_SPLIT_SHAPE, QUERY_SYNTAX_SHAPE = 2010, 2020
VERIFY_SHAPES = {(2, 3): 3010, (3, 3): 3020}
VERIFY_TINY_SHAPES, VERIFY_TINY = 3100, 100
SCALE_CHAIN = range(10, 17)
SCALE_SPLIT_SHAPES = {10: 1010, 12: 1012, 14: 1014}
# `fuzz` draws its own bases from --seed; a fixed one keeps its work fixed.
FUZZ_SEED = "0"


def _fuzz_di_at_10_atoms(cases: int) -> list:
    return [["fuzz", "--mode", m, "--vars", "5", "--conds", "5", "--checks", "di",
             "--cases", str(cases)] for m in MODES]


def query_spec(rng: random.Random) -> dict:
    def consistent(names, conds):
        ref = Reference(names, conds)
        return ref.layers is not None and all(ref.verif[i] or ref.fals[i]
                                              for i in range(len(conds)))

    x = [inputs.atom_names(10, rng) for _ in range(3)]
    bases = [
        inputs.make_base("chain", x[0], inputs.chain_conds(x[0]), rng),
        inputs.make_base("split", x[1], inputs.split_conds(
            (5, 5), 5, random.Random(QUERY_SPLIT_SHAPE), x[1]), rng),
        inputs.make_base("syntax", x[2], inputs.syntax_conds(
            x[2], 10, random.Random(QUERY_SYNTAX_SHAPE), consistent), rng),
    ]
    stream = [(i, a, b, None, True)
              for i, a, b in inputs.query_stream(bases, 1000, rng)]
    a, b = bases[0]["conds"][0]
    return {
        "bases": bases,
        "stream": stream,
        "fuzz": _fuzz_di_at_10_atoms(2),
        "postulates": [(i, m, "di") for i in range(3) for m in MODES],
        "exports": [(0, "dot")],
        "cold": (10, ["infer", None, a, b, "--mode", "w"], "yes"),
    }


def verify_spec(rng: random.Random) -> dict:
    bases = []
    for sizes, shape in VERIFY_SHAPES.items():
        names = inputs.atom_names(sum(sizes), rng)
        conds = inputs.split_conds(sizes, sizes[1], random.Random(shape), names)
        bases.append(inputs.make_base("split", names, conds, rng))
    # Tiny bases like the ones `fuzz` makes, so that setup, the stream and
    # the exports also measure per-build and per-query overhead at 16 worlds.
    for shape in range(VERIFY_TINY_SHAPES, VERIFY_TINY_SHAPES + VERIFY_TINY):
        names = inputs.atom_names(4, rng)
        conds = inputs.split_conds((2, 2), 2, random.Random(shape), names)
        bases.append(inputs.make_base("split", names, conds, rng))
    # Half the stream on the two larger bases, half on the tiny ones: with
    # an even spread over all 102 the larger bases would get 2% of the
    # queries, and the p99 latency would sit on the edge of their share.
    stream = [(i, a, b, None, True)
              for i, a, b in inputs.query_stream(bases[:2], 500, rng)]
    stream += [(2 + i, a, b, None, True)
               for i, a, b in inputs.query_stream(bases[2:], 500, rng)]
    postulates = [(0, "w", "di,tv,rel,ind,synsplit,lemmas")]
    postulates += [(i, m, "di,tv") for i in range(2) for m in ("z", "p")]
    return {
        "bases": bases,
        "stream": stream,
        "fuzz": [["fuzz", "--mode", "w", "--vars", "2", "--conds", "2",
                  "--checks", "synsplit,di,lemmas", "--cases", "40"]],
        "postulates": postulates,
        "exports": ([(i, f) for i in range(2) for f in ("dot", "tsv")]
                    + [(i, "dot") for i in range(2, 22)]),
        "cold": (4, ["fuzz", "--mode", "w", "--vars", "2", "--conds", "2",
                     "--checks", "synsplit,di,lemmas", "--cases", "5"],
                 "cases=5 failures=0"),
    }


def scale_spec(rng: random.Random) -> dict:
    bases = []
    for n in SCALE_CHAIN:
        names = inputs.atom_names(n, rng)
        bases.append(inputs.make_base("chain", names, inputs.chain_conds(names), rng))
    for n, shape in SCALE_SPLIT_SHAPES.items():
        names = inputs.atom_names(n, rng)
        conds = inputs.split_conds((n // 2, n // 2), n // 2, random.Random(shape), names)
        bases.append(inputs.make_base("split", names, conds, rng))
    stream = [(i, a, b, want, False)
              for i, base in enumerate(bases)
              for a, b, want in inputs.known_answer_queries(base)]
    # The latency and qps figures come from the rung that answers every
    # query, so that turning a fault at a larger size into a slower answer
    # cannot read as a regression.
    rung = [i for i, base in enumerate(bases) if len(base["atoms"]) == 10]
    stream += [(rung[j], a, b, None, True)
               for j, a, b in inputs.query_stream([bases[i] for i in rung], 1000, rng)]
    return {
        "bases": bases,
        "stream": stream,
        # Four times the harness of `query`: a round holds only a second or
        # two of it, and scale runs have two rounds.
        "fuzz": _fuzz_di_at_10_atoms(8),
        "postulates": [(i, m, "di") for i in rung for m in MODES] * 4,
        # tsv lists every related pair (318k lines at 10 atoms, 3 s), so
        # only the chain gets it.
        "exports": [(rung[0], "dot"), (rung[0], "tsv"), (rung[1], "dot")],
        "cold": (16, ["partition", None], "1: "),
    }


SPECS = {"query": query_spec, "verify": verify_spec, "scale": scale_spec}


# --- speed calibration ---------------------------------------------------------
#
# On a shared virtual machine (measured on a 2-vCPU VM), each CPU can flip
# between two speeds, 1.5x apart, every second or so. So the run samples the speed
# all the time: every SAMPLE_CPU_S of CPU time a SIGPROF handler times a tiny
# fixed job (`calibration_job`). Every timed op and query is scaled to the
# speed at which that job takes CAL_REF_S, using the samples within WINDOW_S
# of it. Time spent in the handler is subtracted from the op it interrupted.
# The raw figures stay in the run record.

CAL_REF_S = 0.0003
SAMPLE_CPU_S = 0.01
WINDOW_S = 0.3
BUCKET_S = 0.1


def calibration_job() -> float:
    """Seconds for a fixed pure-Python job like the engines' work: small-int
    arithmetic with dict stores, then a bit scan of a big integer."""
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(1000):
        s += i * i
        d[i & 255] = s & 1023
    x = ((1 << 512) - 1) // 3
    while x:
        low = x & -x
        d[low.bit_length() & 255] = low
        x ^= low
    return time.perf_counter() - t0


def speed(samples: list) -> float:
    """Mean calibration time over CAL_REF_S, the slowest and fastest fifth
    of the samples left out."""
    ordered = sorted(samples)
    cut = len(ordered) // 5
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept) / CAL_REF_S


class SpeedSampler:
    """Calibration samples taken by a SIGPROF handler."""

    def __init__(self):
        self.times, self.samples = [], []  # end time, seconds
        self.stolen = 0.0  # seconds spent in the handler so far
        self._buckets = {}
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # the timer fired again during a slow sample
            return
        self._busy = True
        t0 = time.perf_counter()
        # Skip a sample deep in a recursion: the handler's own frames must
        # never be the ones that hit the recursion limit.
        depth, f = 0, frame
        while f is not None:
            depth += 1
            f = f.f_back
        if depth < sys.getrecursionlimit() - 50:
            self.samples.append(calibration_job())
            self.times.append(time.perf_counter())
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def speed_at(self, t0: float, t1: float) -> float:
        """Speed over [t0, t1] widened by WINDOW_S on each side (by
        BUCKET_S steps, cached), widening further until it holds 5 samples.
        Call it only after the samples for that time have been taken."""
        key = (int(t0 / BUCKET_S), int(t1 / BUCKET_S))
        got = self._buckets.get(key)
        if got is None:
            lo, hi = key[0] * BUCKET_S - WINDOW_S, (key[1] + 1) * BUCKET_S + WINDOW_S
            while True:
                window = self.samples[bisect.bisect_left(self.times, lo):
                                      bisect.bisect_right(self.times, hi)]
                if len(window) >= 5 or len(window) == len(self.samples):
                    break
                lo, hi = lo - WINDOW_S, hi + WINDOW_S
            got = self._buckets[key] = speed(window)
        return got


# --- one round -----------------------------------------------------------------


class Round:
    """Runs the phases of one round and keeps its samples.

    `spent[key]` lists (seconds, start, end) of the timed ops of one kind;
    `queries[m]` lists (ns, start, answered) of the timed stream queries.
    """

    def __init__(self, spec: dict, rec: Recorder, number: int,
                 sampler: SpeedSampler):
        self.spec, self.rec, self.number = spec, rec, number
        self.sampler = sampler
        self.spent = defaultdict(list)
        self.counts = Counter()  # fuzz cases, postulate instances
        self.queries = {m: [] for m in MODES}
        self.answers = []  # stream answers in stream order, per mode
        self.exports = {}

    def timed(self, key: str, size: int, fn, *args):
        """One guarded op, its time kept under `key`; returns (outcome,
        result)."""
        stolen, t0 = self.sampler.stolen, time.perf_counter()
        outcome, result, dt = self.rec.call(size, fn, *args)
        dt -= self.sampler.stolen - stolen
        self.spent[key].append((dt, t0, time.perf_counter()))
        return outcome, result

    def run(self) -> float:
        """Runs the round; returns its wall time scaled to the reference speed."""
        stolen, t0 = self.sampler.stolen, time.perf_counter()
        engines = self.setup()
        self.stream(engines)
        del engines  # release the round's engines (and the W memo) early
        self.harness()
        self.export()
        t1 = time.perf_counter()
        wall = t1 - t0 - (self.sampler.stolen - stolen)
        self.speed = self.sampler.speed_at(t0, t1)
        self.raw = self._figures(False)
        self.samples = self._figures(True)  # last, so `latencies` are scaled
        return wall / self.speed

    def _figures(self, scaled: bool) -> dict:
        """The round's samples, scaled to the reference speed or raw;
        `latencies` (ns, answered timed queries) is set to match."""
        at = self.sampler.speed_at if scaled else (lambda t0, t1: 1.0)

        def seconds(*keys):
            return sum(dt / at(t0, t1) for k in keys for dt, t0, t1 in self.spent[k])

        out = {
            "setup_s": seconds("load", "build"),
            "build_s": seconds("build"),
            "cases_per_s": self.counts["cases"] / seconds("fuzz"),
            "instances_per_s": self.counts["instances"] / seconds("postulates"),
            "export_s": seconds("export"),
        }
        self.latencies = []
        for m in MODES:
            busy, answered = 0.0, 0
            for dt, t, ok in self.queries[m]:
                dt /= at(t, t)
                busy += dt
                if ok:
                    answered += 1
                    self.latencies.append(dt)
            if busy:
                out[f"qps.{m}"] = answered * 1e9 / busy
        return out

    def setup(self) -> list:
        engines = []
        for base in self.spec["bases"]:
            size = base["size"]
            outcome, parsed = self.timed("load", size, cli.load_belief_base,
                                         base["text"])
            self.rec.note(size, outcome)
            by_mode = dict.fromkeys(MODES)
            if parsed is not None:
                for m in MODES:
                    outcome, by_mode[m] = self.timed(
                        "build", size, inference.Engine, parsed,
                        inference.InferenceMode(m))
                    self.rec.note(size, outcome)
            engines.append((parsed, by_mode))
        return engines

    def stream(self, engines: list) -> None:
        rec, bases = self.rec, self.spec["bases"]
        parse = logic.parse_formula
        clock = time.perf_counter_ns
        limit_ns = OP_LIMIT_S * 1e9
        answers, queries = self.answers, self.queries
        sampler = self.sampler
        for i, a, b, want, timed in self.spec["stream"]:
            parsed, by_mode = engines[i]
            size = bases[i]["size"]
            for m in MODES:
                engine = by_mode[m]
                stolen = sampler.stolen
                t = clock()
                try:
                    sig = parsed.signature
                    got = engine.entails(parse(a, sig), parse(b, sig))
                    outcome = "ok"
                except Exception as e:  # the boundary of one op: record, go on
                    got, outcome = None, "fault:" + type(e).__name__
                dt = clock() - t - int((sampler.stolen - stolen) * 1e9)
                if outcome == "ok" and dt > limit_ns:
                    outcome = "over-limit"
                if outcome == "ok" and want is not None and got != want:
                    outcome = "wrong"
                rec.note(size, outcome, f"{m}: {a} |~ {b} gave {got}")
                answers.append(got)
                if timed:
                    queries[m].append((dt, t / 1e9, outcome == "ok"))

    def _cli_op(self, key: str, size: int, argv: list) -> tuple:
        """One `cli.main` call graded by its exit code: 0 is the known
        verdict here (every check passes), 2 a wrong verdict, anything
        else a fault. Returns (outcome, stdout)."""
        outcome, result = self.timed(key, size, _run_cli, argv)
        if outcome != "ok":
            self.rec.note(size, outcome)
            return outcome, ""
        code, out, err = result
        if code == 2:
            outcome = "wrong"
        elif code != 0:
            outcome = f"fault:exit{code}"
        self.rec.note(size, outcome, f"{' '.join(argv)}: {out[-200:]} {err}")
        return outcome, out

    def harness(self) -> None:
        bases = self.spec["bases"]
        for argv in self.spec["fuzz"]:
            argv = argv + ["--seed", FUZZ_SEED]
            size = 2 * int(argv[argv.index("--vars") + 1])
            outcome, _ = self._cli_op("fuzz", size, argv)
            if outcome == "ok":
                self.counts["cases"] += int(argv[argv.index("--cases") + 1])
        for i, mode, checks in self.spec["postulates"]:
            argv = ["postulates", bases[i]["path"], "--mode", mode,
                    "--checks", checks, "--bound", "2", "--seed", "0"]
            outcome, out = self._cli_op("postulates", bases[i]["size"], argv)
            if outcome == "ok":
                self.counts["instances"] += sum(map(int, INSTANCES_RE.findall(out)))

    def export(self) -> None:
        bases = self.spec["bases"]
        for i, fmt in self.spec["exports"]:
            argv = ["order", bases[i]["path"], "--format", fmt]
            outcome, out = self._cli_op("export", bases[i]["size"], argv)
            if self.number == 0 and outcome == "ok":
                self.exports[(i, fmt)] = out


# --- checks outside the timed part -----------------------------------------------


_LABEL_RE = re.compile(r"(!?)([a-z][0-9])")


def _world(label: str, ref) -> int:
    truth = {atom: not neg for neg, atom in _LABEL_RE.findall(label)}
    return ref.world_index[tuple(truth[a] for a in ref.atoms)]


def check_outputs(spec: dict, rounds: list, rec: Recorder,
                  rng: random.Random) -> dict:
    """Grades what the timed part could not: every distinct stream query
    against the brute-force reference, agreement between rounds and between
    modes, the tolerance partition and Z against tests/oracles.py, and the
    first round's exports against the reference order."""
    bases, stream = spec["bases"], spec["stream"]
    first = rounds[0]
    wrong = []

    def flag(what: str, size: int) -> None:
        rec.note(size, "wrong", what)
        wrong.append(what)

    # Every round asks the same stream; answers must not change.
    for r in rounds[1:]:
        for k, (got, exp) in enumerate(zip(r.answers, first.answers)):
            if got != exp and got is not None and exp is not None:
                i, a, b = stream[k // 3][:3]
                flag(f"round {r.number} changed {MODES[k % 3]}: {a} |~ {b}",
                     bases[i]["size"])
    # p-entailment implies Z, and W extends Z; a repeated query repeats its answer.
    seen = {}
    for k, (i, a, b, _, _) in enumerate(stream):
        p, z, w = (first.answers[3 * k + j] for j in (2, 1, 0))
        if None not in (p, z, w) and ((p and not z) or (z and not w)):
            flag(f"mode order broken: {a} |~ {b} p={p} z={z} w={w}",
                 bases[i]["size"])
        key = (i, a, b)
        if key in seen and seen[key] != (w, z, p) and None not in (w, z, p):
            flag(f"repeat changed: {a} |~ {b}", bases[i]["size"])
        seen.setdefault(key, (w, z, p))

    refs = {}
    for i, base in enumerate(bases):
        if base["size"] <= 10:
            refs[i] = Reference(base["atoms"], base["conds"])
    first_answer = {}
    for k, (i, a, b, want, _) in enumerate(stream):
        if want is None:
            first_answer.setdefault((i, a, b), first.answers[3 * k:3 * k + 3])
    checked = sorted(first_answer)
    for i, a, b in checked:
        for m, got in zip(MODES, first_answer[(i, a, b)]):
            if got is not None and got != refs[i].entails(m, a, b):
                flag(f"reference disagrees {m}: {a} |~ {b} gave {got}",
                     bases[i]["size"])
    # tests/oracles.py: tolerance partition of every small base, and Z on one
    # seeded query per base (the oracle recomputes the partition per query).
    for i, ref in refs.items():
        parsed = cli.load_belief_base(bases[i]["text"])
        layers = oracles.oracle_tolerance_partition(parsed)
        got = tolerance.tolerance_partition(parsed)
        if got is None or [set(l) for l in got.layers] != [set(l) for l in layers]:
            flag(f"tolerance partition of base {i}", bases[i]["size"])
        mine = [(a, b) for j, a, b in checked if j == i]
        for a, b in rng.sample(mine, min(1, len(mine))):
            sig = parsed.signature
            want = oracles.oracle_z_entails(parsed, logic.parse_formula(a, sig),
                                            logic.parse_formula(b, sig))
            if first_answer[(i, a, b)][1] != want:
                flag(f"oracle Z disagrees: {a} |~ {b}", bases[i]["size"])
    # Exports: every dot edge is W-related in the reference; for a seeded
    # sample of worlds, the tsv lists exactly the worlds W-below each.
    for (i, fmt), out in first.exports.items():
        ref = refs.get(i)
        if ref is None:
            continue
        if fmt == "dot":
            node = {k: _world(label, ref) for k, label in
                    re.findall(r'^\s*w(\d+) \[label="([^"]*)"\];', out, re.M)}
            bad = [(lo, hi) for hi, lo in re.findall(r"^\s*w(\d+) -> w(\d+);", out, re.M)
                   if not ref.less(node[lo], node[hi])]
        else:
            below = {}
            for line in out.splitlines():
                lo, hi = line.split("\t")
                below.setdefault(hi, []).append(lo)
            bad = []
            for w2 in rng.sample(range(len(ref.worlds)), 32):
                got = {_world(lo, ref) for lo in below.get(ref.label(w2), ())}
                want = {w for w in range(len(ref.worlds)) if ref.less(w, w2)}
                if got != want:
                    bad.append((ref.label(w2), len(got), len(want)))
        if bad:
            flag(f"order --format {fmt} of base {i}: {bad[:3]}", bases[i]["size"])
    return {"wrong": wrong, "reference_checked_queries": len(checked)}


def cold_cli(spec: dict, root: str, rec: Recorder) -> float:
    """Wall time in ms of one fresh `python -m systemw.cli` process running
    the workload's command, graded and noted as an op: (raw, scaled to the
    reference speed by samples taken just before and after)."""
    size, argv, expect = spec["cold"]
    path = next(b["path"] for b in spec["bases"] if b["size"] == size)
    argv = [path if x is None else x for x in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # The process waits here, so SIGPROF is silent; sample around the run.
    samples = [calibration_job() for _ in range(10)]
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "systemw.cli"] + argv,
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=OP_LIMIT_S)
    except subprocess.TimeoutExpired:
        rec.note(size, "over-limit")
        return float("nan"), float("nan")
    ms = (time.perf_counter() - t0) * 1e3
    samples += [calibration_job() for _ in range(10)]
    if done.returncode not in (0, 2):
        outcome = f"fault:exit{done.returncode}"
    elif done.returncode != 0 or expect not in done.stdout:
        outcome = "wrong"
    else:
        outcome = "ok"
    rec.note(size, outcome, f"cold {' '.join(argv)}: {done.stdout[-200:]}")
    return ms, ms / speed(samples)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 1)) - 1))
    return ordered[k]
