"""Command-line front end.

Belief-base file format: the first non-comment line is
"signature: a, b, c"; every following non-comment line is one conditional
"(B|A)" (consequent before the bar). '#' starts a comment. Line order fixes
the conditional indices used in partitions and reports.

Exit codes: 0 affirmative/pass, 2 negative/fail, 1 fault (parse error,
inconsistent base where consistency is required, bad flags, out of memory).

Every call of the console script is a fresh process, so a command loads only
what it runs: `split`, `postulates` and `fuzz` load the `splitting` module
when they first call into it, and only `postulates --json` loads `json`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .inference import Engine, InferenceMode
from .logic import (
    BeliefBase,
    FormulaSyntaxError,
    Signature,
    SignatureError,
    parse_conditional,
    parse_formula,
)
from .preferred import PreferredStructure
from .tolerance import InconsistentBeliefBaseError, tolerance_partition

EXIT_YES = 0
EXIT_ERROR = 1
EXIT_NO = 2


class BeliefBaseFormatError(ValueError):
    pass


def load_belief_base(text: str, warn=lambda w: print(f"warning: {w}")) -> BeliefBase:
    sig = None
    conditionals = []
    warnings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if sig is None:
            if not line.startswith("signature:"):
                raise BeliefBaseFormatError(
                    f"line {lineno}: expected 'signature: ...' first"
                )
            atoms = [a.strip() for a in line[len("signature:"):].split(",")]
            atoms = [a for a in atoms if a]
            try:
                sig = Signature(atoms)
            except SignatureError as e:
                raise BeliefBaseFormatError(f"line {lineno}: {e}") from e
            continue
        try:
            cond = parse_conditional(line, sig)
        except FormulaSyntaxError as e:
            raise BeliefBaseFormatError(f"line {lineno}: {e}") from e
        if not cond.antecedent.satisfiable():
            warnings.append(
                f"line {lineno}: conditional {cond} has an unsatisfiable "
                "antecedent; it can never be tolerated"
            )
        conditionals.append(cond)
    if sig is None:
        raise BeliefBaseFormatError("missing signature line")
    # The memo now holds the lines' disjuncts, which queries seldom ask; kept,
    # their masks would live as long as the base.
    sig._formulas.clear()
    base = BeliefBase(sig, conditionals)
    # stderr is reserved for faults (exit 1); warnings go to stdout
    for w in warnings:
        warn(w)
    return base


def _load_file(path: str, **options) -> BeliefBase:
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not text
        return load_belief_base(fh.read(), **options)


def cmd_check(args) -> int:
    base = _load_file(args.file)
    if tolerance_partition(base) is None:
        print("inconsistent")
        return EXIT_NO
    print("consistent")
    return EXIT_YES


def cmd_partition(args) -> int:
    base = _load_file(args.file)
    partition = tolerance_partition(base)
    if partition is None:
        raise InconsistentBeliefBaseError("belief base is inconsistent")
    for j, layer in enumerate(partition.layers):
        conds = ", ".join(str(base[i]) for i in sorted(layer))
        print(f"{j}: {conds}")
    return EXIT_YES


def cmd_infer(args) -> int:
    base = _load_file(args.file)
    antecedent = parse_formula(args.antecedent, base.signature)
    consequent = parse_formula(args.consequent, base.signature)
    engine = Engine(base, InferenceMode(args.mode))
    if engine.entails(antecedent, consequent):
        print("yes")
        return EXIT_YES
    print("no")
    return EXIT_NO


def _splitting():
    """The `splitting` module, loaded on the first call. Its functions are
    looked up on it at call time, so a rebound name (a tracing wrapper, say)
    is the one that runs."""
    from . import splitting
    return splitting


def cmd_split(args) -> int:
    base = _load_file(args.file)
    split = _splitting().detect_splitting(base)
    for part, idxs in zip(split.parts, split.conditional_parts):
        conds = ", ".join(str(base[i]) for i in sorted(idxs))
        print(f"{{{','.join(part)}}}: {conds}")
    return EXIT_YES


def cmd_order(args) -> int:
    base = _load_file(args.file)
    ps = PreferredStructure(base)
    if args.format == "dot":
        print(ps.to_dot())
    else:
        for rows in ps.to_tsv():
            sys.stdout.write(rows)
    return EXIT_YES


# Check name -> its reports for (base, splitting, mode, bound, seed). Each
# entry looks its check up on the `splitting` module when called (see
# `_splitting`). The checks of one splitting share its engines and scopes; di
# reads the splitting's engine of the whole base when the run has a splitting.
CHECKS = {
    "di": lambda base, split, mode, bound, seed: [
        _splitting().check_di(split.engine(mode) if split else Engine(base, mode))],
    "tv": lambda base, split, mode, bound, seed: [_splitting().check_tv(mode)],
    "rel": lambda base, *args: [_splitting().check_rel(*args)],
    "ind": lambda base, *args: [_splitting().check_ind(*args)],
    "synsplit": lambda base, *args: [_splitting().check_synsplit(*args)],
    "lemmas": lambda base, split, mode, bound, seed: [
        check(split) for check in _splitting().LEMMA_CHECKS.values()],
}


def _check_names(text: str, allowed) -> list:
    # Each check runs once, at the first place it is named.
    names = list(dict.fromkeys(c.strip() for c in text.split(",") if c.strip()))
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown check: {name}")
    if not names:  # a run that checks nothing must not report success
        raise ValueError("no checks given")
    return names


def cmd_postulates(args) -> int:
    if args.json:  # every stdout line is one JSON object, a warning too
        import json
        show = lambda record: print(json.dumps(record, sort_keys=True))
        base = _load_file(args.file, warn=lambda w: show({"warning": w}))
    else:
        base = _load_file(args.file)
    mode = InferenceMode(args.mode)
    names = _check_names(args.checks, CHECKS)
    split = None if set(names) <= {"di", "tv"} else _splitting().detect_splitting(base)
    reports = []
    for name in names:
        reports += CHECKS[name](base, split, mode, args.bound, args.seed)
    for r in reports:
        if args.json:
            show(r.to_dict())
        else:
            print(r.line())
    return EXIT_YES if all(r.passed for r in reports) else EXIT_NO


def cmd_fuzz(args) -> int:
    mode = InferenceMode(args.mode)
    # tv does not depend on the base, so fuzz does not offer it.
    names = _check_names(args.checks, CHECKS.keys() - {"tv"})
    splitting = _splitting()
    failures = 0
    for case in range(args.cases):
        case_seed = args.seed * 1_000_003 + case
        base, split = splitting.generate_split_base(args.vars, args.conds, case_seed)
        for name in names:
            for r in CHECKS[name](base, split, mode, args.bound, case_seed):
                if not r.passed:
                    failures += 1
                    print(f"case={case} seed={case_seed} {r.line()}")
    print(f"cases={args.cases} failures={failures}")
    return EXIT_YES if failures == 0 else EXIT_NO


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a fault: `main` prints the message as
    one line on stderr and exits 1, where argparse would print its usage
    block and exit 2, the code of a negative answer."""

    def error(self, message):
        raise ValueError(message)


def _count(text: str) -> int:
    """A non-negative integer flag value."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="systemw",
        description="Reasoning over conditional belief bases: system W inference "
        "with system Z and p-entailment baselines, tolerance partitions, "
        "syntax splitting, and postulate verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="consistency of a belief base")
    p.add_argument("file")

    p = sub.add_parser("partition", help="print the tolerance partition")
    p.add_argument("file")

    p = sub.add_parser("infer", help="answer an inference query")
    p.add_argument("file")
    p.add_argument("antecedent")
    p.add_argument("consequent")
    p.add_argument("--mode", choices=["w", "z", "p"], default="w")

    p = sub.add_parser("split", help="print the finest syntax splitting")
    p.add_argument("file")

    p = sub.add_parser("order", help="export the preferred structure on worlds")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "tsv"], default="dot")

    p = sub.add_parser("postulates", help="run postulate and lemma checks")
    p.add_argument("file")
    p.add_argument("--mode", choices=["w", "z", "p"], default="w")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", default=",".join(CHECKS))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fuzz", help="run checks over generated split bases")
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--conds", type=_count, default=2)
    p.add_argument("--cases", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--mode", choices=["w", "z", "p"], default="w")
    p.add_argument("--checks", default="synsplit")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first `main` call. Parsing leaves
    a parser as it was, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # Looked up by name at call time, so a rebound `cmd_*` is the one
        # that runs.
        return globals()[f"cmd_{args.command}"](args)
    # Bad files, formulas, signatures and flags, inconsistent bases and a
    # generator out of attempts all raise subclasses of ValueError.
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # Raised where the process's memory limit stops an allocation; the
        # structures it held are freed by the time it is caught here.
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
