"""Spans around the package's public functions, for the traced run.

`Tracer.install` replaces each public function of the six modules with a
wrapper that records a span: id, name, start, end, parent span, op id (the
id of the outermost span it runs under), the exception type if it raised,
the tracemalloc peak of the spans that measure memory (engine builds of
the preferred structure and queries), and a count (edges exported,
postulate instances checked). Module-level functions are
replaced under every module name they were imported into, and class methods
on the class. Per-name statistics are kept for every span; the spans
themselves, up to MAX_KEPT_SPANS, stay in memory and are written out once at
the end.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import tracemalloc

from systemw import cli, inference, logic, preferred, splitting, tolerance
from workloads import INSTANCES_RE

LAYERS = ("logic", "tolerance", "preferred", "inference", "splitting", "cli")
MEMORY_MAX_ATOMS = 12
MAX_KEPT_SPANS = 200_000
CALLS, SELF_NS, FAULTS, COUNT, PEAK = range(5)  # fields of Tracer.stats


def _instances(report) -> int:
    return sum(map(int, INSTANCES_RE.findall(report.search_bounds)))


def _engine_mode(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return "inference.build." + mode.value


def _query_mode(args, kwargs) -> str:
    return "inference.query." + args[0].mode.value


def _small_base(args) -> bool:
    return args[1].signature.num_atoms <= MEMORY_MAX_ATOMS


def _small_engine(args) -> bool:
    return args[0].base.signature.num_atoms <= MEMORY_MAX_ATOMS


@functools.lru_cache(maxsize=None)
def _names(label: str) -> tuple:
    """(family, layer) of a span name: its first two parts and its first."""
    parts = label.split(".")
    return ".".join(parts[:2]), parts[0]


class Tracer:
    def __init__(self, measure_memory: bool = False):
        # Closed spans, as tuples (see `write`), up to MAX_KEPT_SPANS: the
        # harness of `verify` alone makes 1.4 M spans a round. The statistics
        # below cover every span.
        self.spans = []
        # Per span name: [calls, self ns, faults, count, peak bytes]. Calls,
        # faults and counts are taken at the outermost span of a family (for
        # example `inference.query.w` of `entails` around `entails_masks`, or
        # `splitting.check.synsplit` around its rel and ind), so that one
        # call into a layer counts once.
        self.stats = {}
        self.layers = {}  # per layer: [calls into the layer, self ns]
        self._open = []  # open spans: [id, op, name, child ns]
        # Tracing every allocation slows the program ten- to twentyfold, so
        # memory is measured in a round of its own, only for calls the
        # benchmark makes itself (not those inside `cli.main`, where the
        # harness makes a million queries) and only on bases of at most
        # MEMORY_MAX_ATOMS atoms, which keeps that round within a minute.
        self.measure_memory = measure_memory
        self._next = 0
        self._undo = []

    # --- recording ---------------------------------------------------------

    def wrap(self, fn, name, count=None, memory=None):
        """`fn` recording one span per call; `name` is a string or a function
        of the call's arguments, `count` a function of the result. While
        `measure_memory` is set and `memory(args)` holds, tracemalloc runs
        for the span's duration (unless an enclosing span already runs it)
        and the span records its peak."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._open
            parent, op = (stack[-1][0], stack[-1][1]) if stack else (-1, tracer._next)
            sid = tracer._next
            tracer._next += 1
            frame = [sid, op, label, 0]
            stack.append(frame)
            owns_memory = (tracer.measure_memory and memory is not None
                           and stack[0][2] != "cli.main" and memory(args)
                           and not tracemalloc.is_tracing())
            if owns_memory:
                tracemalloc.start()
            fault, n, peak = None, 0, 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            except BaseException as e:
                fault = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                if owns_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                tracer._close(frame, stack[-1] if stack else None, end - start,
                              fault, n, peak)
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append((sid, label, start, end, parent, op,
                                         fault, peak, n))

        return traced

    def _close(self, frame, parent, duration, fault, n, peak):
        label = frame[2]
        family, layer = _names(label)
        st = self.stats.get(label)
        if st is None:
            st = self.stats[label] = [0, 0, 0, 0, 0]
        st[1] += duration - frame[3]
        if peak > st[4]:
            st[4] = peak
        if parent is None:
            outer_family = outer_layer = True
        else:
            parent[3] += duration
            p_family, p_layer = _names(parent[2])
            outer_family, outer_layer = p_family != family, p_layer != layer
        if outer_family:
            st[0] += 1
            st[3] += n
            st[2] += fault is not None
        lt = self.layers.get(layer)
        if lt is None:
            lt = self.layers[layer] = [0, 0]
        lt[1] += duration - frame[3]
        lt[0] += outer_layer

    # --- installation --------------------------------------------------------

    def _replace_everywhere(self, fn, wrapped) -> None:
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "systemw" and not modname.startswith("systemw."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, fn))
        for key, value in list(splitting.LEMMA_CHECKS.items()):
            if value is fn:
                splitting.LEMMA_CHECKS[key] = wrapped
                self._undo.append((splitting.LEMMA_CHECKS, key, fn))

    def _replace_on_class(self, cls, attr, wrapped) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        functions = [
            (logic.parse_formula, "logic.parse", None),
            (logic.parse_conditional, "logic.parse", None),
            (tolerance.tolerance_partition, "tolerance.partition", None),
            (splitting.generate_split_base, "splitting.generate", None),
            (cli.main, "cli.main", None),
            (cli.load_belief_base, "cli.load", None),
        ]
        for check in ("di", "tv", "rel", "ind", "synsplit",
                      "lemma1", "lemma2", "lemma3", "lemma4"):
            functions.append((getattr(splitting, "check_" + check),
                              "splitting.check." + check, _instances))
        for fn, name, count in functions:
            self._replace_everywhere(fn, self.wrap(fn, name, count))

        mask = logic.Formula.__dict__["mask"]
        self._replace_on_class(logic.Formula, "mask",
                               property(self.wrap(mask.fget, "logic.mask")))
        ps = preferred.PreferredStructure
        self._replace_on_class(ps, "__init__",
                               self.wrap(ps.__init__, "preferred.build",
                                         memory=_small_base))
        self._replace_on_class(ps, "to_dot",
                               self.wrap(ps.to_dot, "preferred.export",
                                         lambda text: text.count(" -> ")))
        pairs = ps.pairs
        # Materialized so that the span covers producing the pairs; every
        # caller iterates the result once.
        self._replace_on_class(ps, "pairs", self.wrap(
            lambda self_: list(pairs(self_)), "preferred.export", len))
        eng = inference.Engine
        self._replace_on_class(eng, "__init__", self.wrap(eng.__init__, _engine_mode))
        self._replace_on_class(eng, "entails",
                               self.wrap(eng.entails, _query_mode,
                                         memory=_small_engine))
        self._replace_on_class(eng, "entails_masks",
                               self.wrap(eng.entails_masks, _query_mode,
                                         memory=_small_engine))
        self._replace_on_class(splitting.PartScope, "__init__",
                               self.wrap(splitting.PartScope.__init__,
                                         "splitting.scope"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --- output ----------------------------------------------------------------

    def write(self, path: str) -> str:
        """Spans as gzipped TSV: id, name, start_ns, end_ns, parent, op,
        fault, peak_bytes, count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tfault\tpeak_bytes\tcount\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")
        return path


def per_layer(timed: Tracer, memory: dict, rounds: int, untraced_wall: float,
              traced_wall: float):
    """Per-round layer metrics and a per-span-name detail, from the
    statistics of `rounds` rounds traced for time and the peaks (per span
    name) of the memory round. Self time is a span's duration minus the
    durations of its child spans."""
    stats = timed.stats

    def total(prefix, i):
        return sum(st[i] for n, st in stats.items()
                   if n == prefix or n.startswith(prefix + "."))

    def peak(prefix):
        return max((v for n, v in memory.items()
                    if n == prefix or n.startswith(prefix + ".")), default=0)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    per = 1.0 / rounds
    for layer in LAYERS:
        calls, self_ns = timed.layers.get(layer, (0, 0))
        put(f"{layer}.calls", calls * per, "count")
        put(f"{layer}.self_ms", self_ns * per / 1e6, "ms")
    for family, with_calls in (("logic.parse", True), ("logic.mask", False),
                               ("tolerance.partition", True),
                               ("preferred.build", True), ("preferred.export", False),
                               ("splitting.generate", False), ("splitting.scope", True),
                               ("splitting.check", False), ("cli.main", False),
                               ("cli.load", False)):
        if with_calls:
            put(f"{family}.calls", total(family, CALLS) * per, "count")
        put(f"{family}.self_ms", total(family, SELF_NS) * per / 1e6, "ms")
    put("preferred.build.peak_kb", peak("preferred.build") / 1024, "KB")
    put("preferred.export.edges", total("preferred.export", COUNT) * per, "count")
    put("splitting.instances", total("splitting.check", COUNT) * per, "count")
    for mode in "wzp":
        put(f"inference.build.{mode}.self_ms",
            total(f"inference.build.{mode}", SELF_NS) * per / 1e6, "ms")
        q = f"inference.query.{mode}"
        put(f"{q}.calls", total(q, CALLS) * per, "count")
        put(f"{q}.self_ms", total(q, SELF_NS) * per / 1e6, "ms")
        put(f"{q}.faults", total(q, FAULTS) * per, "count")
        put(f"{q}.peak_kb", peak(q) / 1024, "KB")
    put("trace.overhead_pct", (traced_wall / untraced_wall - 1) * 100, "%")
    detail = {n: {"calls": st[CALLS] * per, "self_ms": st[SELF_NS] * per / 1e6,
                  "faults": st[FAULTS] * per, "count": st[COUNT] * per,
                  "peak_kb": memory.get(n, 0) / 1024}
              for n, st in sorted(stats.items())}
    return m, detail
