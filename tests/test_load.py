"""Loading a base file reads each distinct disjunct once: `load_belief_base`
must give the nodes, masks and atoms that `parse_conditional` gives line by
line, and the same one-line fault, whatever the table holds."""

import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from systemw import cli, logic
from systemw.cli import BeliefBaseFormatError, load_belief_base
from systemw.logic import FormulaSyntaxError, Signature, parse_conditional

from test_logic import golden_parse_errors

GOLDEN = Path(__file__).parent / "golden"
SIG_LINE = "signature: a, b, c1"

# Literals; and, in files that may have faults, now and then an unknown
# atom, a stray character, an empty item, a trailing empty disjunct, or a
# group, which sends the half to the general parser.
_LITERALS = ["a", "b", "c1", "!a", "!b", "!!c1", "! a", "top", "bot", "!top"]
_CLEAN = st.sampled_from(_LITERALS)
_ANY = st.sampled_from(_LITERALS * 4 + ["q", "$", "", "a b", "@a", "!", "(a;b)", "(b"])
_AND = st.sampled_from([",", "&", " , ", "\t&", ", "])
_BLANK = st.sampled_from(["", "", "", " ", "\t", " \t "])


@st.composite
def half_text(draw, items):
    disjuncts = []
    for _ in range(draw(st.integers(1, 5))):
        parts = draw(st.lists(items, min_size=1, max_size=4))
        text = parts[0]
        for item in parts[1:]:
            text += draw(_AND) + item
        disjuncts.append(draw(_BLANK) + text + draw(_BLANK))
    text = ";".join(disjuncts)
    if items is _ANY and draw(st.integers(0, 9)) == 0:
        text += ";"
    return text


@st.composite
def conditional_line(draw, items):
    return (draw(_BLANK) + "(" + draw(half_text(items)) + "|" + draw(half_text(items)) + ")"
            + draw(_BLANK))


def base_lines(items):
    return st.lists(conditional_line(items), min_size=1, max_size=6)


def halves(cond) -> list:
    return [(h.ast, h.mask, h.atoms(), type(h._atoms)) for h in (cond.antecedent, cond.consequent)]


def line_by_line(lines: list):
    """What `parse_conditional` gives the lines of a file: each conditional's
    halves, or the file's first fault as `load_belief_base` words it."""
    sig = Signature(["a", "b", "c1"])
    parsed = []
    for lineno, line in enumerate(lines, start=2):
        try:
            parsed.append(halves(parse_conditional(line, sig)))
        except FormulaSyntaxError as e:
            return f"line {lineno}: {e}"
    return parsed


def loaded(lines: list):
    try:
        base = load_belief_base("\n".join([SIG_LINE, *lines]))
    except BeliefBaseFormatError as e:
        return str(e)
    return [halves(c) for c in base]


@given(base_lines(_CLEAN) | base_lines(_ANY), st.sampled_from([0, 1, 2, 3, None]))
@example(["(a;b;c1$|a)"], None)
@example(["(a,b;!a|top)", "(a,b;b|a;;b)", "(a,b;\t!a&b|a,b;)"], 1)
@settings(max_examples=300, deadline=None)
def test_a_load_reads_lines_as_parse_conditional_does(lines, room):
    """Tried with the table's default budget and with room for 0-3 entries,
    so that some halves fit in the room left and some do not. A mask over
    8 worlds is one 4-byte digit."""
    budget = logic.LOAD_TABLE_BYTES if room is None else room * (4 + logic.MIN_ENTRY_BYTES)
    with mock.patch.multiple(logic, LOAD_TABLE_BYTES=budget, LOAD_TABLE_MIN_ATOMS=0):
        assert loaded(lines) == line_by_line(lines)


# A row with a '|' or a line break would not be one half of one line.
@pytest.mark.parametrize("text, kind, message, position", [
    row for row in golden_parse_errors() if "|" not in row[0] and "\n" not in row[0]])
def test_golden_errors_in_either_half(text, kind, message, position, monkeypatch):
    """Each golden fault, as the consequent and as the antecedent of a base
    line, with its position counted from the line's '('."""
    monkeypatch.setattr(logic, "LOAD_TABLE_MIN_ATOMS", 0)
    message = message.rsplit(" (at position ", 1)[0]
    for line, start in ((f"({text}|a)", 1), (f"(a|{text})", 3)):
        want = f"line 2: {message} (at position {position + start})"
        assert loaded([line]) == line_by_line([line]) == want


def test_a_later_disjunct_keeps_the_parsers_fault(monkeypatch):
    monkeypatch.setattr(logic, "LOAD_TABLE_MIN_ATOMS", 0)
    assert loaded(["(a;b;c1|a)", "(a;b;c$|a)"]) == "line 3: unexpected character '$' (at position 6)"


def masks(base) -> list:
    return [(c.antecedent.mask, c.consequent.mask, c.atoms()) for c in base]


@pytest.mark.parametrize("room", [2, 40])
def test_a_full_table_loads_the_same_masks(room):
    """With room for two entries, only a half of two disjuncts could be
    read through the table; with room for 40, the first halves fill it and
    the rest are parsed whole. The split 5 x 5 golden loads to the same
    masks and atoms either way."""
    text = (GOLDEN / "split5x5.cb").read_text()
    base = load_belief_base(text)
    budget = room * (140 + logic.MIN_ENTRY_BYTES)  # 1,024 worlds: 35 digits
    with mock.patch.object(logic, "LOAD_TABLE_BYTES", budget):
        assert masks(load_belief_base(text)) == masks(base)
    lines = text.splitlines()[2:]  # after the comment and the signature
    assert masks(base) == masks(parse_conditional(line, base.signature) for line in lines)


def two_part_dnf_text(n: int, per_part: int, terms: int, seed: int) -> str:
    """A base over two n/2-atom parts, each half of a conditional a DNF of
    `terms` minterms over its part, as a base that splits is written."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    lines = ["signature: " + ", ".join(names)]
    for part in (names[:n // 2], names[n // 2:]):
        minterms = [",".join(a if (s >> j) & 1 else "!" + a for j, a in enumerate(part))
                    for s in range(1 << len(part))]
        for _ in range(per_part):
            b, a = (";".join(rng.sample(minterms, terms)) for _ in "ba")
            lines.append(f"({b}|{a})")
    return "\n".join(lines) + "\n"


def peak_load(text: str, table) -> tuple:
    """The masks of a load that reads its halves through `table`, and the
    traced peak of the load."""
    with mock.patch.object(cli, "_disjunct_table", table):
        tracemalloc.start()
        try:
            base = load_belief_base(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return masks(base), peak


def test_the_table_holds_no_more_than_its_budget():
    """An 18-atom split base: a mask takes 34 KiB, and the table has room
    for 177. The first two halves, of 80 disjuncts each, are read through
    it and the rest are parsed whole. The load peaks at most the budget
    above a load that parses every half whole. Bounding the table by the
    memo's entries, or reading a half through it that does not fit, would
    each exceed that."""
    text = two_part_dnf_text(18, 3, 80, 0)
    whole_masks, whole = peak_load(text, lambda sig: None)
    tables = []

    def kept(sig):
        tables.append(logic._DisjunctTable(sig))
        return tables[-1]

    table_masks, with_table = peak_load(text, kept)
    assert table_masks == whole_masks
    assert 80 < len(tables[0].entries) <= 2 * 80 < tables[0].room == 177
    assert with_table <= whole + logic.LOAD_TABLE_BYTES


def test_small_signatures_load_without_a_table():
    """Below LOAD_TABLE_MIN_ATOMS every half is parsed whole."""
    small = Signature([f"x{i}" for i in range(logic.LOAD_TABLE_MIN_ATOMS - 1)])
    large = Signature([f"x{i}" for i in range(logic.LOAD_TABLE_MIN_ATOMS)])
    assert logic._disjunct_table(small) is None
    assert type(logic._disjunct_table(large)) is logic._DisjunctTable
