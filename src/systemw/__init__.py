"""Reasoning over conditional belief bases.

System W inference via the preferred structure on worlds, with system Z and
p-entailment baselines, tolerance partitions, syntax-splitting detection, and
executable postulate/lemma verification. The splitting names load their
module on first use.
"""

from .logic import (
    BeliefBase,
    Conditional,
    Formula,
    FormulaSyntaxError,
    Signature,
    SignatureError,
    UnknownAtomError,
    parse_conditional,
    parse_formula,
)
from .tolerance import InconsistentBeliefBaseError, TolerancePartition, tolerance_partition
from .preferred import PreferredStructure
from .inference import Engine, InferenceMode

__all__ = [
    "BeliefBase",
    "Conditional",
    "Engine",
    "Formula",
    "FormulaSyntaxError",
    "GenerationError",
    "InconsistentBeliefBaseError",
    "InferenceMode",
    "PostulateReport",
    "PreferredStructure",
    "Signature",
    "SignatureError",
    "SyntaxSplitting",
    "TolerancePartition",
    "UnknownAtomError",
    "check_di",
    "check_ind",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_rel",
    "check_synsplit",
    "check_tv",
    "detect_splitting",
    "generate_split_base",
    "parse_conditional",
    "parse_formula",
    "tolerance_partition",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # The names of `__all__` not bound above are those of the `splitting`
    # module, which is loaded on their first use (PEP 562): most CLI
    # commands never run it.
    if name in __all__:
        from . import splitting
        return getattr(splitting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(globals().keys() | set(__all__))
