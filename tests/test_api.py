import inspect
import re
from pathlib import Path

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
    "_partition_pairs",
    "_lower_covers",
    "_DisjunctTable",
    "_disjunct_table",
    "_load_conditional",
    "LOAD_TABLE_BYTES",
    "LOAD_TABLE_MIN_ATOMS",
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
    (preferred.PreferredStructure, "classes"),
    (preferred.PreferredStructure, "_class_id"),
    (preferred.PreferredStructure, "_relation"),
    (preferred.PreferredStructure, "_covers"),
    (preferred.PreferredStructure, "class_order"),
    (preferred.PreferredStructure, "class_below"),
    (inference.Engine, "_min_rank"),
    (splitting.PartScope, "formula_text"),
    (splitting.PartScope, "group_of"),
    (splitting.SyntaxSplitting, "validate"),
    (tolerance.TolerancePartition, "layer_of"),
    (tolerance.TolerancePartition, "all_indices"),
    (tolerance.TolerancePartition, "k"),
)
# Keyword parameters that were removed: (function, parameter).
REMOVED_PARAMETERS = (
    (splitting.check_ind, "conjoined_consequent"),
    (preferred.PreferredStructure, "indices"),
    (preferred.PreferredStructure, "partition"),
    (splitting.check_di, "base"),
    (splitting.check_di, "mode"),
    (splitting.check_tv, "num_atoms"),
    (tolerance.tolerance_partition, "indices"),
    (inference.Engine, "indices"),
)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from systemw import *", namespace)
    for name in systemw.__all__:
        assert namespace[name] is getattr(systemw, name)


def test_all_is_sorted_without_duplicates():
    assert systemw.__all__ == sorted(set(systemw.__all__))


def test_dir_lists_the_names_loaded_on_first_use():
    assert dir(systemw) == sorted(set(vars(systemw)) | set(systemw.__all__))
    assert {"GenerationError", "check_lemma4", "Engine"} <= set(dir(systemw))


def test_removed_names_are_gone():
    modules = (systemw, logic, tolerance, preferred, inference, splitting, cli)
    for name in REMOVED_FUNCTIONS:
        assert name not in systemw.__all__
        assert not any(hasattr(m, name) for m in modules)
    for cls, name in REMOVED_METHODS:
        assert not hasattr(cls, name)
    for fn, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters


def test_names_the_benchmark_reads_are_there():
    # `perfbench/` wraps or calls these names in the shapes asserted here
    # (`tracing.py`, `workloads.py`); dropping one fails only the benchmark.
    # They may go with ROADMAP item 8, when the benchmark reads the
    # package's own counters instead.
    assert isinstance(logic.Formula.__dict__["mask"], property)
    for cls, names in ((preferred.PreferredStructure, ("__init__", "to_dot", "pairs")),
                       (inference.Engine, ("__init__", "entails", "entails_masks")),
                       (splitting.PartScope, ("__init__",))):
        for name in names:
            assert callable(cls.__dict__.get(name)), (cls.__name__, name)
    assert isinstance(splitting.LEMMA_CHECKS, dict)
    for name in ("di", "tv", "rel", "ind", "synsplit"):
        assert callable(getattr(splitting, "check_" + name))
    sig = logic.Signature(["a", "b"])
    base = logic.BeliefBase(sig, [logic.parse_conditional("(b|a)", sig)])
    assert [set(layer) for layer in tolerance.tolerance_partition(base).layers] == [{0}]


def test_readme_library_snippet_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
