"""Reasoning over conditional belief bases.

System W inference via the preferred structure on worlds, with system Z and
p-entailment baselines, tolerance partitions, syntax-splitting detection, and
executable postulate/lemma verification.
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
from .splitting import (
    GenerationError,
    PostulateReport,
    SyntaxSplitting,
    check_di,
    check_ind,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_rel,
    check_synsplit,
    check_tv,
    detect_splitting,
    generate_split_base,
)

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
