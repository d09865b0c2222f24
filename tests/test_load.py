"""Loading a base file reads each DNF half's disjuncts through the
signature's memo: `load_belief_base` and `parse_conditional` must give the
nodes, masks and atoms of each half parsed whole, and the same one-line
fault, whatever room the memo has."""

import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from systemw import logic
from systemw.cli import BeliefBaseFormatError, load_belief_base
from systemw.logic import FormulaSyntaxError, Signature, parse_conditional

from oracles import atoms_of
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
    return [(h.ast, h.mask, h.atoms(), type(h.atoms())) for h in (cond.antecedent, cond.consequent)]


def reference(lines: list):
    """What the lines of a file must give, by a path that shares no code
    with `parse_conditional`: each half parsed whole by `_parse`, its atoms
    collected by the recursive reference walk. Or the file's first fault,
    as `load_belief_base` words it."""
    sig = Signature(["a", "b", "c1"])
    parsed = []
    for lineno, line in enumerate(lines, start=2):
        s = line.strip()
        bar = s.index("|")
        cond = []
        for start, end in ((bar + 1, len(s) - 1), (1, bar)):
            half = s[start:end]
            try:
                node, mask = logic._parse(half, sig, logic._TOKEN_RE.findall(half))
            except FormulaSyntaxError as e:
                return f"line {lineno}: {e.args[0]} (at position {e.position + start})"
            cond.append((node, mask, atoms_of(node), frozenset))
        parsed.append(cond)
    return parsed


def line_by_line(lines: list):
    """What `parse_conditional` gives the lines of a file, called line by
    line over one signature, whose memo keeps what the lines put in it."""
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
    assert base.signature._formulas == {}
    return [halves(c) for c in base]


def memo_room(room):
    """A patch that gives the memo of each signature of up to 10 atoms made
    under it room for `room` entries (an entry counts as MIN_ENTRY_BYTES
    there); the default room when `room` is None."""
    return mock.patch.object(logic, "CACHE_BYTES",
                             logic.CACHE_BYTES if room is None else room * logic.MIN_ENTRY_BYTES)


@given(base_lines(_CLEAN) | base_lines(_ANY), st.sampled_from([0, 1, 2, 3, None]))
@example(["(a;b;c1$|a)"], None)
@example(["(a,b;!a|top)", "(a,b;b|a;;b)", "(a,b;\t!a&b|a,b;)"], 1)
@settings(max_examples=300, deadline=None)
def test_a_load_reads_lines_as_parse_conditional_does(lines, room):
    """A load, and `parse_conditional` line by line, give what each half
    parsed whole gives. Tried with the memo's default room and with room
    for 0-3 entries, so that some halves fit in the room left and some do
    not."""
    with memo_room(room):
        assert loaded(lines) == line_by_line(lines) == reference(lines)


# A row with a '|' or a line break would not be one half of one line.
@pytest.mark.parametrize("text, kind, message, position", [
    row for row in golden_parse_errors() if "|" not in row[0] and "\n" not in row[0]])
def test_golden_errors_in_either_half(text, kind, message, position):
    """Each golden fault, as the consequent and as the antecedent of a base
    line, with its position counted from the line's '('."""
    message = message.rsplit(" (at position ", 1)[0]
    for line, start in ((f"({text}|a)", 1), (f"(a|{text})", 3)):
        want = f"line 2: {message} (at position {position + start})"
        assert loaded([line]) == line_by_line([line]) == reference([line]) == want


def test_a_later_disjunct_keeps_the_parsers_fault():
    assert loaded(["(a;b;c1|a)", "(a;b;c$|a)"]) == "line 3: unexpected character '$' (at position 6)"


def masks(base) -> list:
    return [(c.antecedent.mask, c.consequent.mask, c.atoms()) for c in base]


@pytest.mark.parametrize("room", [2, 40])
def test_a_full_memo_loads_the_same_masks(room):
    """With room for two entries, only a half of two disjuncts could be
    read through the memo; with room for 40, the first halves fill it and
    the rest are parsed whole. The split 5 x 5 golden loads to the same
    masks and atoms either way. A mask over 1,024 worlds takes 140 bytes,
    so an entry counts as MIN_ENTRY_BYTES."""
    text = (GOLDEN / "split5x5.cb").read_text()
    base = load_belief_base(text)
    with memo_room(room):
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


def traced_load(text: str, cache_bytes: int) -> tuple:
    """The masks of a load under a CACHE_BYTES of `cache_bytes`, the traced
    peak of the load, for each parse the memo's size before it and the text
    parsed, and the memo's room."""
    parse, parses = logic._parse, []

    def counted(text, sig, toks):
        parses.append((len(sig._formulas), text))
        return parse(text, sig, toks)

    with mock.patch.multiple(logic, _parse=counted, CACHE_BYTES=cache_bytes):
        tracemalloc.start()
        try:
            base = load_belief_base(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert base.signature._formulas == {}
    return masks(base), peak, parses, base.signature.cache_entries


@pytest.mark.parametrize("room", [None, 177])
def test_a_load_holds_no_more_than_the_memos_room(room):
    """An 18-atom split base, each half a DNF of 80 disjuncts; a mask takes
    34 KiB. The memo's default room, 1,919 entries, takes every distinct
    disjunct. With room for 177, the first two halves are read through the
    memo and every later half, which does not fit, is parsed whole: the
    memo is never cleared in the middle of a half, nor grows past its room.
    The load peaks at most the room's masks above a load that parses every
    half whole, and leaves the memo empty."""
    text = two_part_dnf_text(18, 3, 80, 0)
    mask_bytes = Signature([f"x{i}" for i in range(18)])._mask_bytes
    whole_masks, whole, whole_parses, _ = traced_load(text, 0)
    assert all(";" in half for _, half in whole_parses) and len(whole_parses) == 12
    cache_bytes = logic.CACHE_BYTES if room is None else room * 2 * mask_bytes
    memo_masks, peak, parses, entries = traced_load(text, cache_bytes)
    assert memo_masks == whole_masks
    sizes = [size for size, _ in parses]
    assert sizes == sorted(sizes) and sizes[-1] < entries
    parsed_whole = [(size, half) for size, half in parses if ";" in half]
    assert all(size + half.count(";") >= entries for size, half in parsed_whole)
    assert len(parsed_whole) == (0 if room is None else 10)
    assert peak <= whole + entries * (mask_bytes + logic.MIN_ENTRY_BYTES)


@pytest.mark.parametrize("atoms", [2, 7, 18])
def test_lines_share_their_disjuncts_at_any_size(atoms):
    """A DNF half is read through the memo over any signature: a disjunct
    that two lines share is one tree. With no room, each half is parsed
    whole, and the lines share only their literals."""
    text = "\n".join(["signature: " + ", ".join(f"x{i}" for i in range(atoms)),
                      "(x0,x1;!x0|top)", "(x0,x1;x1|top)"])
    for room, shared in ((None, True), (0, False)):
        with memo_room(room):
            first, second = (c.consequent.ast.children[0] for c in load_belief_base(text))
        assert first == second and (first is second) == shared
