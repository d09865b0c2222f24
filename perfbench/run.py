"""Benchmark of the systemw package: one command, three seeded workloads.

    python3 perfbench/run.py --workload query|verify|scale --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`
and the Z/tolerance oracles from its `tests/oracles.py`. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` (ops answered
wrongly) and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). A record of the run, with the metadata that is kept
but never compared, goes to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
COLD_RUNS, COLD_PER_ROUND = 15, 2

END_TO_END = {
    "setup_s": "s", "qps.w": "1/s", "qps.z": "1/s", "qps.p": "1/s",
    "query_p50_us": "us", "query_p99_us": "us", "cli_cold_ms": "ms",
    "cases_per_s": "1/s", "instances_per_s": "1/s", "build_s": "s",
    "export_s": "s", "max_atoms": "atoms", "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def _git_sha():
    """HEAD of the checkout's own .git, if it has one; never looks above."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("query", "verify", "scale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "systemw", "__init__.py")):
        print("perfbench: no src/systemw in the checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        print("perfbench: no tests/oracles.py in the checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    # One CPU for the run and its child processes: the speed samples then
    # describe the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, workloads.on_alarm)
    rng = random.Random(args.seed)
    spec = workloads.SPECS[args.workload](rng)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workloads.write_bases(spec, OUT, tag)

    rec = workloads.Recorder()
    sampler = workloads.SpeedSampler()
    sampler.start()
    rounds, walls, cold = [], [], []
    tracer = None
    start = time.perf_counter()
    # A traced run needs round 0 untraced, as the overhead baseline, and at
    # least one traced round.
    while (len(rounds) < 1 + args.trace
           or time.perf_counter() - start < args.seconds):
        if args.trace and len(rounds) == 1:
            tracer = tracing.Tracer()
            tracer.install()
        r = workloads.Round(spec, rec, len(rounds), sampler)
        walls.append(r.run())
        rounds.append(r)
        if not args.trace:
            # Fresh processes are spread over the run, a few per round, so
            # that a burst of load on the shared machine hits few of them.
            cold += [workloads.cold_cli(spec, ROOT, rec) for _ in range(COLD_PER_ROUND)]
    while not args.trace and len(cold) < COLD_RUNS:
        cold.append(workloads.cold_cli(spec, ROOT, rec))
    if tracer:
        tracer.uninstall()
        memory_tracer = tracing.Tracer(measure_memory=True)
        memory_tracer.install()
        workloads.Round(spec, rec, len(rounds), sampler).run()
        memory_tracer.uninstall()
        memory = {name: st[tracing.PEAK] for name, st in memory_tracer.stats.items()}
    sampler.stop()

    checks = workloads.check_outputs(spec, rounds, rec, rng)

    samples, raw = {}, {}
    for r in rounds:
        for k, v in r.samples.items():
            samples.setdefault(k, []).append(v)
            raw.setdefault(k, []).append(r.raw[k])
    latencies = [x for r in rounds for x in r.latencies]  # scaled
    e2e = {k: median(v) for k, v in samples.items()}
    e2e.update({
        "query_p50_us": workloads.percentile(latencies, 0.50) / 1e3,
        "query_p99_us": workloads.percentile(latencies, 0.99) / 1e3,
        "cli_cold_ms": median(c[1] for c in cold) if cold else None,
        "max_atoms": rec.max_atoms(),
        "ok_share": rec.ok_share(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    failed = rec.outcomes["wrong"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rationale": workloads.RATIONALE[args.workload],
        "git_sha": _git_sha(), "src_nonblank_lines": _src_lines(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "rounds": len(rounds), "round_wall_s_scaled": walls,
        "latency_samples": len(latencies),
        "outcomes": dict(rec.outcomes),
        "outcomes_by_size": {n: dict(c) for n, c in sorted(rec.by_size.items())},
        "fail_share": 1 - rec.ok_share(),
        "wrong": rec.wrong, "checks": checks, "end_to_end": e2e,
        "round_speed": [r.speed for r in rounds],
        "round_samples": samples, "round_samples_raw": raw,
        "cold_ms_raw_scaled": cold,
    }
    if tracer:
        metrics, detail = tracing.per_layer(tracer, memory, len(rounds) - 1,
                                            walls[0], median(walls[1:]))
        record["per_layer"] = metrics
        record["per_layer_detail"] = detail
        record["spans_file"] = tracer.write(os.path.join(OUT, tag + "-spans.tsv.gz"))
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(f"# {args.workload} seed={args.seed}: rounds={len(rounds)} "
          f"ops={rec.attempted} outcomes={dict(rec.outcomes)} "
          f"fail_share={record['fail_share']:.4f} wrong={failed}")
    if not args.trace:
        print("# " + "  ".join(f"{k}={e2e[k]:.6g} {u}" for k, u in END_TO_END.items()))
    if rec.wrong:
        print("# wrong: " + " | ".join(rec.wrong[:5]))
    print(json.dumps({"correct": failed == 0, "attempted": rec.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
