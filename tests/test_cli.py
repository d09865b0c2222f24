import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from systemw import cli, logic, splitting
from systemw.cli import load_belief_base, main, BeliefBaseFormatError
from systemw.inference import Engine, InferenceMode
from systemw.logic import (
    BeliefBase,
    FormulaSyntaxError,
    Signature,
    SignatureError,
    parse_conditional,
)
from systemw.preferred import PreferredStructure
from systemw.splitting import PartScope, check_di, check_rel, detect_splitting

from conftest import EXAMPLE1_TEXT, chain_text
from oracles import transitive_closure

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoad:
    def test_example1(self, example1_file):
        with open(example1_file) as fh:
            base = load_belief_base(fh.read())
        assert base.signature.atoms == ("b", "p", "f", "v", "d")
        assert [str(c) for c in base] == ["(f|b)", "(!v|d)", "(b|p)", "(!f|p)"]

    def test_golden_file_is_example1(self):
        # The CI steps run the console script on this file.
        assert (GOLDEN / "example1.cb").read_text() == EXAMPLE1_TEXT

    def test_missing_signature(self):
        with pytest.raises(BeliefBaseFormatError):
            load_belief_base("(a|b)\n")

    def test_malformed_conditional_reports_line(self):
        with pytest.raises(BeliefBaseFormatError) as exc:
            load_belief_base("signature: a\n(a|a\n")
        assert "line 2" in str(exc.value)

    def test_comments_and_blank_lines(self):
        base = load_belief_base("# c\nsignature: a\n\n(a|top) # trailing\n")
        assert len(base) == 1

    @pytest.mark.parametrize("text", [EXAMPLE1_TEXT, "signature: a, b\n(b|a)\n"])
    @pytest.mark.parametrize("command", ["check", "partition", "split", "order"])
    def test_a_byte_order_mark_is_not_read_as_text(self, capsys, tmp_path, text, command):
        # Some editors start a UTF-8 file with the byte-order mark U+FEFF.
        plain, marked = tmp_path / "plain.cb", tmp_path / "marked.cb"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = run(capsys, command, str(plain))
        assert want[0] == 0 and want[1] and want[2] == ""
        assert run(capsys, command, str(marked)) == want

    def test_unsatisfiable_antecedent_warns_on_stdout(self, capsys, tmp_path):
        p = tmp_path / "warn.cb"
        p.write_text("signature: a\n(a|bot)\n")
        code, out, err = run(capsys, "check", str(p))
        assert code == 2 and err == ""
        assert "warning" in out and "inconsistent" in out


class TestCheck:
    def test_consistent(self, capsys, example1_file):
        code, out, err = run(capsys, "check", example1_file)
        assert (code, out.strip(), err) == (0, "consistent", "")

    def test_inconsistent(self, capsys, tmp_path):
        p = tmp_path / "bad.cb"
        p.write_text("signature: a\n(a|top)\n(!a|top)\n")
        code, out, _ = run(capsys, "check", str(p))
        assert code == 2 and out.strip() == "inconsistent"

    def test_malformed_is_a_fault(self, capsys, tmp_path):
        p = tmp_path / "broken.cb"
        p.write_text("signature: a\n(a|\n")
        code, out, err = run(capsys, "check", str(p))
        assert code == 1 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("line,position", [
        ("(a)", 2),            # no bar: the closing parenthesis
        ("(a|a|a)", 4),        # two bars: the second one
        ("  (a | top | a)", 9),
    ])
    def test_bar_count_fault_names_a_position(self, capsys, tmp_path, line, position):
        p = tmp_path / "bars.cb"
        p.write_text(f"signature: a\n{line}\n")
        code, out, err = run(capsys, "check", str(p))
        assert (code, out) == (1, "")
        assert err == ("error: line 2: conditional needs exactly one '|' "
                       f"(at position {position})\n")

    @pytest.mark.parametrize("line,message", [
        ("(a|b,$)", "unexpected character '$' (at position 5)"),
        ("  (a , q | b)", "unknown atom 'q' (at position 5)"),
        ("(a,,b|a)", "unexpected token ',' (at position 3)"),
        ("(|a)", "unexpected end of input (at position 1)"),
        ("(a|)", "unexpected end of input (at position 3)"),
    ])
    def test_formula_fault_counts_from_the_conditional(self, capsys, tmp_path,
                                                       line, message):
        # Positions count from the opening parenthesis, as for the bar
        # count, not from the start of the consequent or the antecedent.
        p = tmp_path / "formula.cb"
        p.write_text(f"signature: a, b\n{line}\n")
        code, out, err = run(capsys, "check", str(p))
        assert (code, out, err) == (1, "", f"error: line 2: {message}\n")

    def test_repeated_bad_half_reports_one_position(self, capsys, tmp_path):
        # A fault is never memoized: the conditional's parse shifts the
        # position of its half's fault, and a memoized error would carry
        # the first shift into the second report.
        p = tmp_path / "twice.cb"
        p.write_text("signature: a, b\n(a|b,$)\n(a|b,$)\n")
        reports = [run(capsys, "check", str(p))]
        p.write_text("signature: a, b\n(a|b)\n(a|b,$)\n")
        reports.append(run(capsys, "check", str(p)))
        message = "unexpected character '$' (at position 5)"
        assert reports == [(1, "", f"error: line {n}: {message}\n") for n in (2, 3)]
        base = load_belief_base("signature: a, b\n")
        for _ in range(2):
            with pytest.raises(FormulaSyntaxError) as exc:
                parse_conditional("(a|b,$)", base.signature)
            assert str(exc.value) == message

    @pytest.mark.parametrize("command", ["check", "split"])
    @pytest.mark.parametrize("name", ["top", "bot"])
    def test_constant_declared_as_atom_is_a_fault(self, capsys, tmp_path, command, name):
        # `(a|top)` would read `top` as the constant, not as the atom.
        p = tmp_path / "reserved.cb"
        p.write_text(f"signature: {name}, a\n(a|{name})\n")
        code, out, err = run(capsys, command, str(p))
        assert (code, out) == (1, "")
        assert err == f"error: line 1: reserved atom name: '{name}' is a constant\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.cb")
        assert code == 1 and err

    def test_deeply_nested_conditional_is_a_fault(self, capsys, tmp_path):
        p = tmp_path / "deep.cb"
        p.write_text("signature: a\n(" + "!" * 2000 + "a|top)\n")
        code, out, err = run(capsys, "check", str(p))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "line 2: formula nested deeper" in err


class TestPartition:
    def test_example1(self, capsys, example1_file):
        code, out, _ = run(capsys, "partition", example1_file)
        assert code == 0
        assert out.splitlines() == [
            "0: (f|b), (!v|d)",
            "1: (b|p), (!f|p)",
        ]

    def test_empty_base(self, capsys, tmp_path):
        p = tmp_path / "empty.cb"
        p.write_text("signature: a, b\n")
        code, out, _ = run(capsys, "partition", str(p))
        assert code == 0 and out == ""

    def test_inconsistent_is_a_fault(self, capsys, tmp_path):
        p = tmp_path / "bad.cb"
        p.write_text("signature: a\n(a|top)\n(!a|top)\n")
        code, _, err = run(capsys, "partition", str(p))
        assert code == 1 and err


class TestInfer:
    @pytest.mark.parametrize(
        "mode,expected_code,expected_out",
        [("w", 0, "yes"), ("z", 2, "no"), ("p", 2, "no")],
    )
    def test_example1_dp_notv(self, capsys, example1_file, mode, expected_code,
                              expected_out):
        code, out, err = run(
            capsys, "infer", example1_file, "d,p", "!v", "--mode", mode
        )
        assert (code, out.strip(), err) == (expected_code, expected_out, "")

    def test_vacuous(self, capsys, example1_file):
        code, out, _ = run(capsys, "infer", example1_file, "bot", "v")
        assert code == 0 and out.strip() == "yes"

    def test_twelve_atom_tautology(self, capsys, tmp_path):
        p = tmp_path / "chain12.cb"
        p.write_text(chain_text(12))
        code, out, err = run(capsys, "infer", str(p), "top", "a1;!a1")
        assert (code, out, err) == (0, "yes\n", "")

    def test_parse_error(self, capsys, example1_file):
        code, _, err = run(capsys, "infer", example1_file, "d,,p", "!v")
        assert code == 1 and err

    def test_bad_character_after_unknown_atom(self, capsys, example1_file):
        # The character is reported, not the unknown atom before it.
        code, out, err = run(capsys, "infer", example1_file, "q$", "b")
        assert (code, out, err) == (
            1, "", "error: unexpected character '$' (at position 1)\n")

    def test_deeply_nested_formula_is_a_fault(self, capsys, example1_file):
        deep = "(" * 500 + "d" + ")" * 500
        code, out, err = run(capsys, "infer", example1_file, deep, "!v")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "nested deeper than 100 levels" in err


class TestSplit:
    def test_example1(self, capsys, example1_file):
        code, out, _ = run(capsys, "split", example1_file)
        assert code == 0
        assert out.splitlines() == [
            "{b,p,f}: (f|b), (b|p), (!f|p)",
            "{v,d}: (!v|d)",
        ]


# Runs `order FILE --format FMT` under an address-space limit, in a fresh
# process, and exits with its code.
_ORDER_CHILD = """
import resource, sys
limit, path, fmt = int(sys.argv[1]), sys.argv[2], sys.argv[3]
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from systemw.cli import main
sys.exit(main(["order", path, "--format", fmt]))
"""


def child_env():
    """The environment of a child process that imports this package."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


def order_in_child(limit, path, fmt):
    """`order` on `path` in a child process limited to `limit` bytes of
    address space; its stdout is discarded."""
    return subprocess.run(
        [sys.executable, "-c", _ORDER_CHILD, str(limit), str(path), fmt],
        env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )


class TestOrder:
    def test_dot_and_tsv_agree_under_closure(self, capsys, example1_file, example1):
        code, dot, _ = run(capsys, "order", example1_file, "--format", "dot")
        assert code == 0
        code, tsv, _ = run(capsys, "order", example1_file, "--format", "tsv")
        assert code == 0
        sig = example1.signature
        by_label = {sig.render_world(w): w for w in range(sig.num_worlds)}
        edges = set()
        for hi, lo in re.findall(r"w(\d+) -> w(\d+);", dot):
            edges.add((int(lo), int(hi)))
        tsv_pairs = set()
        for line in tsv.splitlines():
            lo, hi = line.split("\t")
            tsv_pairs.add((by_label[lo], by_label[hi]))
        assert transitive_closure(edges, sig.num_worlds) == tsv_pairs

    def test_empty_base_graph_without_edges(self, capsys, tmp_path):
        p = tmp_path / "empty.cb"
        p.write_text("signature: a\n")
        code, out, _ = run(capsys, "order", str(p))
        assert code == 0 and "->" not in out

    @pytest.mark.parametrize("fmt", ["dot", "tsv"])
    def test_example1_golden(self, capsys, example1_file, fmt):
        code, out, err = run(capsys, "order", example1_file, "--format", fmt)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"example1.{fmt}").read_text()

    def test_empty_relation_tsv_writes_nothing(self, capsys, tmp_path):
        p = tmp_path / "empty.cb"
        p.write_text("signature: a, b\n")
        code, out, err = run(capsys, "order", str(p), "--format", "tsv")
        assert code == 0 and out == "" and err == ""

    def test_inconsistent_is_a_fault(self, capsys, tmp_path):
        p = tmp_path / "bad.cb"
        p.write_text("signature: a\n(a|top)\n(!a|top)\n")
        code, _, err = run(capsys, "order", str(p))
        assert code == 1 and err

    @pytest.mark.parametrize("name", ["chain11", "split5x5"])
    @pytest.mark.parametrize("fmt", ["dot", "tsv"])
    def test_golden_hashes(self, monkeypatch, tmp_path, name, fmt):
        # The tsv of the 11-atom chain is 73 MB, so the output is hashed as
        # it is written instead of captured.
        if name == "chain11":
            path = tmp_path / "chain11.cb"
            path.write_text(chain_text(11))
        else:
            path = GOLDEN / "split5x5.cb"
        digest = hashlib.sha256()

        class HashingStdout:
            def write(self, text):
                digest.update(text.encode())
                return len(text)

        monkeypatch.setattr(sys, "stdout", HashingStdout())
        assert main(["order", str(path), "--format", fmt]) == 0
        want = dict(line.split()[::-1]
                    for line in (GOLDEN / "order.sha256").read_text().splitlines())
        assert digest.hexdigest() == want[f"{name}.{fmt}"]

    def test_tsv_streams_under_half_a_gigabyte(self, tmp_path):
        # The 12-atom chain's tsv is 319 MB; written one world's rows at a
        # time it fits in a 512 MB address space.
        path = tmp_path / "chain12.cb"
        path.write_text(chain_text(12))
        proc = order_in_child(512 << 20, path, "tsv")
        assert (proc.returncode, proc.stderr[-2000:]) == (0, "")

    @pytest.mark.parametrize("fmt", ["dot", "tsv"])
    def test_out_of_memory_is_a_one_line_fault(self, tmp_path, fmt):
        # The 16-atom chain's exports do not fit in 300 MB: the dot export
        # runs out building its edge lines, the tsv export listing the
        # labels of the worlds above each class.
        path = tmp_path / "chain16.cb"
        path.write_text(chain_text(16))
        proc = order_in_child(300 << 20, path, fmt)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: out of memory"]


class TestPostulates:
    def test_all_pass_for_w(self, capsys, example1_file):
        code, out, err = run(
            capsys, "postulates", example1_file, "--mode", "w"
        )
        assert code == 0 and err == ""
        assert "FAIL" not in out
        for name in ("di", "tv", "rel", "ind", "synsplit", "lemma4"):
            assert f"{name}: pass" in out

    def test_ind_fails_for_z_with_witness(self, capsys, example1_file):
        code, out, _ = run(
            capsys, "postulates", example1_file, "--mode", "z", "--checks", "ind"
        )
        assert code == 2 and "ind: FAIL" in out and "witness" in out

    def test_json_output(self, capsys, example1_file):
        code, out, _ = run(
            capsys, "postulates", example1_file, "--mode", "z",
            "--checks", "ind,rel", "--json",
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert {r["postulate"] for r in records} == {"ind", "rel"}
        for r in records:
            assert r["verdict"] in ("pass", "fail")
            assert "search_bounds" in r

    def test_json_load_warning_is_a_json_line(self, capsys, tmp_path):
        # Text mode prints the warning as text; --json prints it as a record
        # of its own, so that every stdout line parses.
        p = tmp_path / "warn.cb"
        p.write_text("signature: a, b\n(b|a)\n(b|a,!a)\n")
        warning = ("line 3: conditional (b|a,!a) has an unsatisfiable antecedent; "
                   "it can never be tolerated")
        code, out, err = run(capsys, "postulates", str(p), "--checks", "tv")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "warning: " + warning
        code, out, err = run(capsys, "postulates", str(p), "--checks", "tv", "--json")
        assert (code, err) == (0, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"warning": warning}
        assert [r["postulate"] for r in records[1:]] == ["tv"]

    def test_unknown_check_is_a_fault(self, capsys, example1_file):
        code, _, err = run(
            capsys, "postulates", example1_file, "--checks", "bogus"
        )
        assert code == 1 and "unknown check" in err

    @pytest.mark.parametrize("command", ["postulates", "fuzz"])
    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_list_is_a_fault(self, capsys, example1_file, command,
                                         checks):
        # A run that checks nothing would otherwise print no failure and pass.
        args = [example1_file] if command == "postulates" else ["--cases", "2"]
        code, out, err = run(capsys, command, *args, "--checks", checks)
        assert (code, out, err) == (1, "", "error: no checks given\n")

    def test_di_and_tv_skip_splitting_detection(self, capsys, example1_file,
                                                monkeypatch):
        def refuse(base):
            raise AssertionError("detect_splitting called")

        monkeypatch.setattr(splitting, "detect_splitting", refuse)
        code, out, err = run(capsys, "postulates", example1_file, "--checks", "di,tv")
        assert (code, err) == (0, "")
        assert [line.split(" [")[0] for line in out.splitlines()] == ["di: pass", "tv: pass"]

    def test_only_splitting_walks_a_tree_for_atoms(self, capsys, tmp_path,
                                                   monkeypatch):
        # A load computes no atoms, so the commands that split nothing never
        # collect them; detection collects them from the loaded trees.
        def refuse(node):
            raise AssertionError("atoms_of called")

        path = tmp_path / "three.cb"
        path.write_text("signature: a, x, b, y, c\n"
                        "(b|a)\n(!(y;!x)|x,x)\n(c|c)\n(top|top)\n(!x|y)\n")
        file = str(path)
        with monkeypatch.context() as patched:
            patched.setattr(logic, "atoms_of", refuse)
            for args in (["check", file], ["partition", file], ["infer", file, "a", "b"],
                         ["order", file], ["order", file, "--format", "tsv"]):
                code, out, err = run(capsys, *args)
                assert (code, err) == (0, "") and out
        with open(path) as fh:
            spl = detect_splitting(load_belief_base(fh.read()))
        assert spl.parts == (("a", "b"), ("x", "y"), ("c",))
        assert run(capsys, "split", file) == (
            0, "{a,b}: (b|a), (top|top)\n{x,y}: (!(y;!x)|x,x), (!x|y)\n{c}: (c|c)\n", "")
        assert run(capsys, "postulates", file, "--mode", "w", "--checks", "rel,ind") == (
            0, "rel: pass [mode=w exhaustive<= 2 atoms seed=0 instances=120528]\n"
               "ind: pass [mode=w exhaustive<= 2 atoms seed=0 instances=1424576]\n", "")
        assert run(capsys, "postulates", file, "--mode", "z", "--checks", "rel,ind") == (
            2, "rel: pass [mode=z exhaustive<= 2 atoms seed=0 instances=120528]\n"
               "ind: FAIL [mode=z exhaustive<= 2 atoms seed=0 instances=9668] witness: "
               "A=!a,!b;a,!b B=!a,!b D=x,y,c without_d=True with_d=False\n", "")

    def test_repeated_check_names_run_once(self, capsys, example1_file,
                                           monkeypatch):
        calls = []

        def counted(engine):
            calls.append(engine)
            return check_di(engine)

        monkeypatch.setattr(splitting, "check_di", counted)
        code, out, err = run(capsys, "postulates", example1_file,
                             "--checks", "di,di,tv, di,tv")
        assert (code, err) == (0, "") and len(calls) == 1
        assert [line.split(" [")[0] for line in out.splitlines()] == ["di: pass", "tv: pass"]

    def test_registry_calls_checks_by_module_name(self, capsys, example1_file,
                                                  monkeypatch):
        # A wrapper bound to the module name (as the benchmark's tracer binds
        # one) must be the function that runs.
        calls = []

        def wrapped(*args):
            calls.append(len(args))
            return check_rel(*args)

        monkeypatch.setattr(splitting, "check_rel", wrapped)
        assert run(capsys, "postulates", example1_file, "--checks", "rel")[0] == 0
        assert calls == [4]

    def test_checks_share_engines_and_scopes(self, capsys, example1_file,
                                             monkeypatch):
        # The default checks of one run build one engine per base and mode:
        # tv's, and the splitting's for the whole base (which di reads too)
        # and each part's sub-base, whose W structures serve the lemmas. The
        # splitting builds one scope per part.
        engines, structures, scopes = Counter(), [], Counter()
        engine_init, structure_init = Engine.__init__, PreferredStructure.__init__
        scope_init = PartScope.__init__

        def count_engine(self, base, mode):
            key = (base.signature.atoms, mode.value, tuple(map(str, base)))
            engines[key] += 1
            engine_init(self, base, mode)

        def count_structure(self, *args, **kwargs):
            structures.append(args)
            structure_init(self, *args, **kwargs)

        def count_scope(self, sig, atoms):
            scopes[tuple(atoms)] += 1
            scope_init(self, sig, atoms)

        monkeypatch.setattr(Engine, "__init__", count_engine)
        monkeypatch.setattr(PreferredStructure, "__init__", count_structure)
        monkeypatch.setattr(PartScope, "__init__", count_scope)
        code, out, _ = run(capsys, "postulates", example1_file, "--mode", "w")
        assert code == 0 and out.count(": pass") == 9
        ex1 = ("b", "p", "f", "v", "d")
        assert engines == {
            (("a", "b", "c"), "w", ()): 1,  # tv
            (ex1, "w", ("(f|b)", "(!v|d)", "(b|p)", "(!f|p)")): 1,
            (ex1, "w", ("(f|b)", "(b|p)", "(!f|p)")): 1,
            (ex1, "w", ("(!v|d)",)): 1,
        }
        assert len(structures) == 4
        assert scopes == {("b", "p", "f"): 1, ("v", "d"): 1}

    def test_golden_default_checks(self, capsys, example1_file):
        # Every default check in order, with the Z witnesses of ind and synsplit.
        expected = (GOLDEN / "postulates_example1_z.jsonl").read_text()
        assert run(capsys, "postulates", example1_file, "--mode", "z",
                   "--json") == (2, expected, "")

    @pytest.mark.parametrize("checks", ["rel", "ind", "synsplit"])
    def test_exhaustive_four_atom_part_is_a_fault(self, capsys, tmp_path, checks):
        p = tmp_path / "split.cb"
        p.write_text("signature: a, b, c, d, e, f\n(b|a)\n(d|c)\n(!f|e,d)\n")
        code, out, err = run(
            capsys, "postulates", str(p), "--checks", checks, "--bound", "4"
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "4-atom part {c,d,e,f}" in err


class TestFuzz:
    def test_deterministic_and_clean_for_w(self, capsys):
        args = ["fuzz", "--vars", "2", "--conds", "2", "--cases", "10",
                "--seed", "42", "--mode", "w", "--checks", "synsplit"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().endswith("cases=10 failures=0")

    def test_exhaustive_four_atom_part_is_a_fault(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--vars", "4", "--bound", "4", "--cases", "2",
            "--checks", "rel",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "exhaustive" in err

    @pytest.mark.parametrize("golden, code, argv", [
        ("fuzz_z_vars2.txt", 2,
         ["--mode", "z", "--vars", "2", "--conds", "2",
          "--checks", "synsplit,di,lemmas", "--cases", "40", "--seed", "0"]),
        ("fuzz_w_vars5.txt", 0,
         ["--mode", "w", "--vars", "5", "--conds", "5",
          "--checks", "di", "--cases", "8", "--seed", "0"]),
    ])
    def test_golden(self, capsys, golden, code, argv):
        assert run(capsys, "fuzz", *argv) == (code, (GOLDEN / golden).read_text(), "")

    def test_splitting_reuses_the_generator_scopes(self, capsys, monkeypatch):
        # The generator builds one scope per part and part size, kept between
        # runs, and each case's splitting hands that scope to the checks.
        scopes, splits = Counter(), []
        scope_init, generate = PartScope.__init__, splitting.generate_split_base

        def count_scope(self, sig, atoms):
            scopes[tuple(atoms)] += 1
            scope_init(self, sig, atoms)

        def keep_split(*args):
            base, split = generate(*args)
            splits.append(split)
            return base, split

        monkeypatch.setattr(PartScope, "__init__", count_scope)
        monkeypatch.setattr(splitting, "generate_split_base", keep_split)
        splitting._split_scopes.cache_clear()
        for _ in range(2):
            code, out, _ = run(capsys, "fuzz", "--vars", "2", "--conds", "2",
                               "--checks", "synsplit,di,lemmas", "--cases", "40")
            assert code == 0 and out.endswith("cases=40 failures=0\n")
        assert scopes == {("a", "b"): 1, ("c", "d"): 1}
        kept = splitting._split_scopes(2)[3]
        assert len(splits) == 80
        assert all(split.scope(s.atoms) is s for split in splits for s in kept)

    def test_part_too_large_is_a_fault(self, capsys):
        # 12 + 24 atoms would need 2^36 bits of world masks.
        code, out, err = run(capsys, "fuzz", "--vars", "12", "--cases", "1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "12-atom part" in err

    def test_more_part_atoms_than_the_signature_cap_is_a_fault(self, capsys):
        # Two 13-atom parts are 26 atoms, over the 24-atom signature cap.
        code, out, err = run(capsys, "fuzz", "--vars", "13", "--cases", "1")
        assert (code, out, err) == (1, "", "error: vars_per_part out of range\n")

    def test_tv_is_not_a_fuzz_check(self, capsys):
        code, out, err = run(capsys, "fuzz", "--checks", "tv", "--cases", "1")
        assert (code, out, err) == (1, "", "error: unknown check: tv\n")

    def test_repeated_check_names_run_once(self, capsys, monkeypatch):
        calls = []

        def counted(engine):
            calls.append(engine)
            return check_di(engine)

        monkeypatch.setattr(splitting, "check_di", counted)
        assert run(capsys, "fuzz", "--cases", "3", "--checks", "di,di") == (
            0, "cases=3 failures=0\n", "")
        assert len(calls) == 3
        # Each failure is reported once, as if its check were named once.
        args = ["fuzz", "--vars", "2", "--cases", "30", "--seed", "7", "--mode", "z"]
        once = run(capsys, *args, "--checks", "ind")
        assert once[0] == 2
        assert run(capsys, *args, "--checks", "ind,ind") == once

    def test_zero_cases(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--cases", "0")
        assert code == 0 and out.strip() == "cases=0 failures=0"

    def test_z_failures_reported_with_seeds(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--vars", "2", "--conds", "2", "--cases", "30",
            "--seed", "7", "--mode", "z", "--checks", "ind",
        )
        summary = out.strip().splitlines()[-1]
        m = re.match(r"cases=30 failures=(\d+)", summary)
        assert m
        failures = int(m.group(1))
        assert code == (0 if failures == 0 else 2)
        fail_lines = [l for l in out.splitlines() if l.startswith("case=")]
        assert len(fail_lines) == failures
        for line in fail_lines:
            assert "seed=" in line


class TestFlags:
    @pytest.mark.parametrize("argv, message", [
        (["infer", "FILE", "b", "f", "--mode", "x"],
         "argument --mode: invalid choice: 'x'"),
        (["fuzz", "--cases", "x"],
         "argument --cases: expected a non-negative integer, got 'x'"),
        (["fuzz", "--cases", "-1"],
         "argument --cases: expected a non-negative integer, got '-1'"),
        (["fuzz", "--conds", "-2"],
         "argument --conds: expected a non-negative integer, got '-2'"),
        (["fuzz", "--bound", "-1"],
         "argument --bound: expected a non-negative integer, got '-1'"),
        (["postulates", "FILE", "--bound", "-1"],
         "argument --bound: expected a non-negative integer, got '-1'"),
        (["order", "FILE", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["mode", "cases-text", "cases-negative", "conds", "fuzz-bound",
            "postulates-bound", "unknown-flag", "no-command"])
    def test_bad_flags_are_one_line_faults(self, capsys, example1_file, argv,
                                           message):
        argv = [example1_file if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: systemw infer") and err == ""


class TestRepeatedMain:
    """`main` builds its parser on a process's first call and reuses it."""

    def test_one_parser_serves_every_call(self, capsys, example1_file, tmp_path,
                                          monkeypatch):
        ex1 = example1_file
        sequence = [
            ["infer", ex1, "d,p", "!v", "--mode", "w"],
            ["partition", ex1],
            ["order", ex1, "--format", "dot"],
            ["order", ex1, "--format", "tsv"],
            ["postulates", ex1, "--mode", "z", "--json"],
            ["fuzz", "--vars", "2", "--conds", "2", "--cases", "5", "--seed", "7",
             "--mode", "z", "--checks", "ind"],
            ["infer", ex1, "b", "f", "--mode", "x"],
            ["postulates", ex1, "--checks", "bogus"],
            ["check", str(tmp_path / "missing.cb")],
        ]
        # What each call gives with a parser of its own.
        with monkeypatch.context() as m:
            m.setattr(cli, "_shared_parser", cli.build_parser)
            fresh = [run(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2, 1, 1, 1]

        built = []
        parser_init = cli._Parser.__init__

        def count_parser(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            parser_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", count_parser)
        cli.build_parser()
        one_build = len(built)  # the parser and each command's subparser
        built.clear()
        cli._shared_parser.cache_clear()
        forward = [run(capsys, *argv) for argv in sequence]
        backward = [run(capsys, *argv) for argv in reversed(sequence)]
        assert forward == fresh and backward[::-1] == fresh
        assert len(built) == one_build and built[0] == "systemw"

        # A command rebound after the parser is built is the one that runs.
        def patched(args):
            print("patched", args.file)
            return cli.EXIT_YES

        monkeypatch.setattr(cli, "cmd_partition", patched)
        assert run(capsys, "partition", ex1) == (0, f"patched {ex1}\n", "")
        assert len(built) == one_build


def imports_in_child(*args):
    """(exit code, stdout, names of the modules it imported) of a child
    `python -X importtime` run with `args`."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    modules = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
               if line.startswith("import time:")}
    return done.returncode, done.stdout, modules


class TestStartup:
    """Every call of the console script is a fresh process, so a command
    loads only what it runs."""

    # What a command that does not need them must not load, beyond what the
    # interpreter loads on its own.
    ON_DEMAND = {"dataclasses", "inspect", "json", "systemw.splitting"}

    @pytest.fixture(scope="class")
    def bare(self):
        code, _, modules = imports_in_child("-c", "pass")
        assert code == 0
        return modules

    # (command, arguments after the file, pinned stdout) on example 1.
    COMMANDS = pytest.mark.parametrize("command, args, out", [
        ("infer", ["b", "f"], "yes\n"),
        ("check", [], "consistent\n"),
        ("partition", [], "0: (f|b), (!v|d)\n1: (b|p), (!f|p)\n"),
        ("order", [], (GOLDEN / "example1.dot").read_text()),
    ], ids=["infer", "check", "partition", "order"])

    @COMMANDS
    def test_command_loads_nothing_on_demand(self, bare, command, args, out):
        code, stdout, modules = imports_in_child(
            "-m", "systemw.cli", command, str(GOLDEN / "example1.cb"), *args)
        assert (code, stdout) == (0, out)
        assert "systemw.preferred" in modules
        assert modules & self.ON_DEMAND - bare == set()

    @COMMANDS
    def test_command_loads_no_typing(self, command, args, out):
        # Without `site`, whose `.pth` hooks may load `typing` on their own,
        # nothing loads it: the package's annotations name builtins only.
        code, stdout, modules = imports_in_child(
            "-S", "-m", "systemw.cli", command, str(GOLDEN / "example1.cb"), *args)
        assert (code, stdout) == (0, out)
        assert "systemw.preferred" in modules and "typing" not in modules

    def test_json_and_fuzz_load_what_they_run(self):
        code, out, modules = imports_in_child(
            "-m", "systemw.cli", "postulates", str(GOLDEN / "example1.cb"),
            "--checks", "di,tv", "--json")
        assert code == 0 and {"json", "systemw.splitting"} <= modules
        assert out == (
            '{"postulate": "di", "search_bounds": "mode=w conditionals=4", '
            '"verdict": "pass", "witness": null}\n'
            '{"postulate": "tv", "search_bounds": "mode=w atoms=3 pairs=65536", '
            '"verdict": "pass", "witness": null}\n')
        code, out, modules = imports_in_child("-m", "systemw.cli", "fuzz", "--cases", "3")
        assert (code, out) == (0, "cases=3 failures=0\n")
        assert "systemw.splitting" in modules

    def test_package_loads_splitting_on_first_use(self):
        code, out, modules = imports_in_child(
            "-c", "import systemw; print(systemw.GenerationError.__mro__[1].__name__)")
        assert (code, out) == (0, "RuntimeError\n")
        assert "systemw.splitting" in modules
        code, _, modules = imports_in_child("-c", "import systemw")
        assert code == 0 and "systemw.splitting" not in modules


class TestFaultPaths:
    """Faults that no other test reaches. Through the CLI each exits 1 with
    one line on stderr; through the library each raises its error."""

    def test_file_without_a_signature_line(self, capsys, tmp_path):
        path = tmp_path / "comments.cb"
        path.write_text("# comments and blank lines only\n\n")
        assert run(capsys, "check", str(path)) == (
            1, "", "error: missing signature line\n")
        with pytest.raises(BeliefBaseFormatError, match="missing signature line"):
            load_belief_base(path.read_text())

    def test_out_of_memory_in_a_command(self, capsys, monkeypatch, example1_file):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_check", exhausted)
        assert run(capsys, "check", example1_file) == (1, "", "error: out of memory\n")

    def test_generation_out_of_attempts(self, capsys, monkeypatch):
        # Every draw is read as inconsistent, so the generator gives up.
        monkeypatch.setattr(splitting, "tolerance_partition", lambda base: None)
        message = (f"no consistent base found in {splitting.MAX_GENERATION_ATTEMPTS} "
                   "attempts (seed=0)")
        assert run(capsys, "fuzz", "--cases", "1", "--vars", "1", "--conds", "1") == (
            1, "", f"error: {message}\n")
        with pytest.raises(splitting.GenerationError, match=re.escape(message)):
            splitting.generate_split_base(1, 1, 0)

    def test_p_engine_has_no_preferred_structure(self, example1):
        with pytest.raises(ValueError, match="modes W and Z only"):
            Engine(example1, InferenceMode.P).preferred_structure

    def test_base_refuses_a_conditional_over_another_signature(self, example1):
        other = Signature(["b", "p", "f", "v"])
        with pytest.raises(SignatureError, match="different signature"):
            BeliefBase(example1.signature,
                       [example1[0], parse_conditional("(f|b)", other)])
