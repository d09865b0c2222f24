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
    """A world as an int from the set of atoms that are true."""
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


def chain_queries(n):
    """(A, B, answer) for W on the n-atom chain of `chain_text`, n >= 6.

    Layer 0 holds (a{i+1}|a{i}) for 1 <= i <= n-2, layer 1 holds (a1|a0) and
    (!a{n-1}|a0). An a0-world with a1 and !a{n-1} falsifies nothing in layer
    1 and must break the chain once in layer 0, so the minimal a0-worlds are
    a0..a{i} with the rest false, for 1 <= i <= n-2. With a{n-1} as well,
    only the world with every atom true is minimal."""
    k = n // 2
    return [
        ("a0", f"!a{n - 1}", True),
        ("a0", "a2", False),
        (f"a0,a{n - 1}", f"a{k}", True),
        ("top", "!a0", True),
        (",".join(f"a{i}" for i in range(k + 1)), f"a{k + 1}", False),
    ]
