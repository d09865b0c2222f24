import pytest

from systemw import BeliefBase, Signature, parse_conditional

EXAMPLE1_TEXT = """\
# birds, penguins, flying, visible-at-night, dark
signature: b, p, f, v, d
(f|b)
(!v|d)
(b|p)
(!f|p)
"""


@pytest.fixture(scope="session")
def example1():
    sig = Signature(["b", "p", "f", "v", "d"])
    conds = [
        parse_conditional(t, sig) for t in ["(f|b)", "(!v|d)", "(b|p)", "(!f|p)"]
    ]
    return BeliefBase(sig, conds)


@pytest.fixture()
def example1_file(tmp_path):
    path = tmp_path / "ex1.cb"
    path.write_text(EXAMPLE1_TEXT)
    return str(path)


def world_bits(sig, positives):
    """World as an int from the set of atoms that are true."""
    bits = 0
    for a in positives:
        bits |= 1 << sig.index(a)
    return bits


def chain_text(n):
    """Belief-base file text of an n-atom chain (a{i+1}|a{i}) with the
    exception (!a{n-1}|a0); its tolerance partition has two layers."""
    atoms = [f"a{i}" for i in range(n)]
    lines = ["signature: " + ", ".join(atoms)]
    lines += [f"({atoms[i + 1]}|{atoms[i]})" for i in range(n - 1)]
    lines.append(f"(!{atoms[-1]}|{atoms[0]})")
    return "\n".join(lines) + "\n"
