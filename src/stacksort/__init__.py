"""Fertilities of permutations under the stack-sorting map.

The package computes the number of stack-sorting preimages of a word with
the recursion s(L n R) = s(L) s(R) n over the intervals of the word, exposes
its valid hook configurations and their Catalan-weighted compositions (the
paper's formula for the same count, used as a cross-check), checks the count
against a brute-force oracle, constructs witnesses for prescribed
fertilities and searches symmetric groups for attainable values.

``import stacksort`` loads no submodule: each name below is imported from
its submodule on first access (PEP 562), so a caller pays only for the
modules it uses. The submodules themselves are attributes as well.

Diagnostics go to the ``stacksort`` logger, which is silent unless the
application configures logging.
"""
import importlib

_EXPORTS = {
    "cache": ("CacheRecord", "append_records", "audit", "cache_key", "load", "read_records"),
    "errors": (
        "CorruptRecordError", "DuplicateEntryError", "HypothesisViolatedError",
        "InvalidArgumentError", "LastEntryNotMaxError", "LengthMismatchError",
        "NonPositiveEntryError", "NotNormalizedError", "NotStationaryError",
        "PreconditionFailedError", "ReductionNotFoundError", "SizeLimitExceededError",
        "StacksortError", "SumMismatchError", "UnsortedPermutationError",
        "VerificationFailedError",
    ),
    "families": (
        "WitnessReport", "even_witness", "interleaved_fertility", "interleaved_witness",
        "one_mod4_witness", "product_witness", "witness",
    ),
    "hooks": (
        "Composition", "Hook", "HookConfig", "catalan", "composition_weight", "enumerate_vhc",
        "factor_at_hook", "fertility", "induced_composition", "interval_dominates",
        "is_sorted", "iter_vhc", "point_colors", "reduce_stationary", "stationary_hooks",
        "valid_compositions",
    ),
    "oracle": ("BRUTE_FORCE_LIMIT", "fertility_brute", "fertility_histogram", "preimages"),
    "perms": (
        "Perm", "bracket", "descents", "direct_sum", "drop_final_max", "is_normalized",
        "normalize", "parse_permutation", "perm_text", "stack_sort",
    ),
    "search": (
        "SWEEP_LIMIT", "VERDICT_FERTILE", "VERDICT_PROVEN_INFERTILE", "VERDICT_UNKNOWN",
        "ClassifyResult", "DensityBound", "SpectrumReport", "classify", "density_lower_bound",
        "matrix_bound_holds", "nd_fd", "small_odd_status", "spectrum",
    ),
    "svg": ("render_svg",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name or a submodule on first access, then bind it here."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
