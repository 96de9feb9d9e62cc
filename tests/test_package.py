"""The package namespace: each exported name is loaded from its submodule on first use."""
import importlib

import pytest

import stacksort
from conftest import in_new_interpreter, outcome

# every name ``stacksort`` exported when its __init__ imported each submodule eagerly
EXPORTS = {
    "cache": ["CacheRecord", "append_records", "audit", "cache_key", "load", "read_records"],
    "errors": ["CorruptRecordError", "DuplicateEntryError", "HypothesisViolatedError",
               "InvalidArgumentError", "LastEntryNotMaxError", "LengthMismatchError",
               "NonPositiveEntryError", "NotNormalizedError", "NotStationaryError",
               "PreconditionFailedError", "ReductionNotFoundError", "SizeLimitExceededError",
               "StacksortError", "SumMismatchError", "UnsortedPermutationError",
               "VerificationFailedError"],
    "families": ["WitnessReport", "even_witness", "interleaved_fertility", "interleaved_witness",
                 "one_mod4_witness", "product_witness", "witness"],
    "hooks": ["Composition", "Hook", "HookConfig", "catalan", "composition_weight",
              "enumerate_vhc", "factor_at_hook", "fertility", "induced_composition",
              "interval_dominates", "is_sorted", "iter_vhc", "point_colors",
              "reduce_stationary", "stationary_hooks", "valid_compositions"],
    "oracle": ["BRUTE_FORCE_LIMIT", "fertility_brute", "fertility_histogram", "preimages"],
    "perms": ["Perm", "bracket", "descents", "direct_sum", "drop_final_max", "is_normalized",
              "normalize", "parse_permutation", "perm_text", "stack_sort"],
    "search": ["SWEEP_LIMIT", "VERDICT_FERTILE", "VERDICT_PROVEN_INFERTILE", "VERDICT_UNKNOWN",
               "ClassifyResult", "DensityBound", "SpectrumReport", "classify",
               "density_lower_bound", "matrix_bound_holds", "nd_fd", "small_odd_status",
               "spectrum"],
    "svg": ["render_svg"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_submodules_object(module, name):
    assert getattr(stacksort, name) is getattr(importlib.import_module(f"stacksort.{module}"), name)


def test_all_and_dir_list_every_name():
    assert sorted(stacksort.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(stacksort))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from stacksort import *", namespace)
    assert all(namespace[name] is getattr(stacksort, name) for name in NAMES)


def test_version_and_submodules():
    assert stacksort.__version__ == "0.1.0"
    for module in [*EXPORTS, "cli"]:
        assert getattr(stacksort, module) is importlib.import_module(f"stacksort.{module}")


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'stacksort' has no attribute 'no_such_name'"):
        stacksort.no_such_name
    with pytest.raises(ImportError):
        exec("from stacksort import no_such_name", {})


def test_import_loads_no_submodule_until_a_name_is_used():
    script = ("import sys, stacksort\n"
              "loaded = lambda: sorted(m for m in sys.modules if m.startswith('stacksort'))\n"
              "print(*loaded(), 'logging' in sys.modules)\n"
              "stacksort.fertility\n"
              "print(*loaded())\n")
    assert outcome(in_new_interpreter("-c", script)) == (
        0, "stacksort False\nstacksort stacksort.errors stacksort.hooks stacksort.perms\n", "")
