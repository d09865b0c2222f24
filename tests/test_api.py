import inspect

import systemw
from systemw import cli, inference, logic, preferred, splitting, tolerance

# Aliases of a canonical call, and names nothing called, that were removed.
REMOVED_FUNCTIONS = (
    "evaluate_conditional",
    "infer",
    "infer_p",
    "infer_w",
    "infer_z",
    "is_consistent",
    "is_tolerated",
    "mod_set",
    "ALL_CHECKS",
    "FUZZ_CHECKS",
    "_run_check",
    "_layers_list",
    "ConditionalStatus",
    "World",
    "marginalize",
    "merge_worlds",
    "Comparison",
    "_less",
    "_node_mask",
    "two_part_views",
    "_split_structures",
)
REMOVED_METHODS = (
    (logic.Conditional, "evaluate"),
    (logic.Formula, "models"),
    (logic.Formula, "negate"),
    (logic.Formula, "conj"),
    (logic.Formula, "equivalent"),
    (logic.Formula, "is_tautology"),
    (logic.Signature, "world"),
    (logic.Signature, "worlds"),
    (preferred.PreferredStructure, "less"),
    (preferred.PreferredStructure, "compare"),
    (preferred.PreferredStructure, "hasse_edges"),
    (preferred.PreferredStructure, "above"),
    (inference.Engine, "_min_rank"),
    (splitting.PartScope, "formula_text"),
    (splitting.SyntaxSplitting, "validate"),
    (tolerance.TolerancePartition, "layer_of"),
    (tolerance.TolerancePartition, "all_indices"),
)
# Keyword parameters that were removed: (function, parameter).
REMOVED_PARAMETERS = (
    (splitting.check_ind, "conjoined_consequent"),
    (preferred.PreferredStructure, "indices"),
    (splitting.check_di, "base"),
    (splitting.check_di, "mode"),
)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from systemw import *", namespace)
    for name in systemw.__all__:
        assert namespace[name] is getattr(systemw, name)


def test_all_is_sorted_without_duplicates():
    assert systemw.__all__ == sorted(set(systemw.__all__))


def test_removed_names_are_gone():
    modules = (systemw, logic, tolerance, preferred, inference, splitting, cli)
    for name in REMOVED_FUNCTIONS:
        assert name not in systemw.__all__
        assert not any(hasattr(m, name) for m in modules)
    for cls, name in REMOVED_METHODS:
        assert not hasattr(cls, name)
    for fn, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters
