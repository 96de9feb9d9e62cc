"""Fertilities of permutations under the stack-sorting map.

The package computes the number of stack-sorting preimages of a word with
the recursion s(L n R) = s(L) s(R) n over the intervals of the word, exposes
its valid hook configurations and their Catalan-weighted compositions (the
paper's formula for the same count, used as a cross-check), checks the count
against a brute-force oracle, constructs witnesses for prescribed
fertilities and searches symmetric groups for attainable values.

Diagnostics go to the ``stacksort`` logger, which is silent unless the
application configures logging.
"""
import logging

from .cache import CacheRecord, append_records, audit, cache_key, load, read_records
from .errors import (
    CorruptRecordError,
    DuplicateEntryError,
    HypothesisViolatedError,
    InvalidArgumentError,
    LastEntryNotMaxError,
    LengthMismatchError,
    NonPositiveEntryError,
    NotNormalizedError,
    NotStationaryError,
    PreconditionFailedError,
    ReductionNotFoundError,
    SizeLimitExceededError,
    StacksortError,
    SumMismatchError,
    UnsortedPermutationError,
    VerificationFailedError,
)
from .families import (
    WitnessReport,
    even_witness,
    interleaved_fertility,
    interleaved_witness,
    one_mod4_witness,
    product_witness,
    witness,
)
from .hooks import (
    Composition,
    Hook,
    HookConfig,
    catalan,
    composition_weight,
    enumerate_vhc,
    factor_at_hook,
    fertility,
    induced_composition,
    interval_dominates,
    is_sorted,
    iter_vhc,
    point_colors,
    reduce_stationary,
    stationary_hooks,
    valid_compositions,
)
from .oracle import BRUTE_FORCE_LIMIT, fertility_brute, fertility_histogram, preimages
from .perms import (
    Perm,
    bracket,
    descents,
    direct_sum,
    drop_final_max,
    is_normalized,
    normalize,
    parse_permutation,
    perm_text,
    stack_sort,
)
from .search import (
    SWEEP_LIMIT,
    VERDICT_FERTILE,
    VERDICT_PROVEN_INFERTILE,
    VERDICT_UNKNOWN,
    ClassifyResult,
    DensityBound,
    SpectrumReport,
    classify,
    density_lower_bound,
    matrix_bound_holds,
    nd_fd,
    small_odd_status,
    spectrum,
)
from .svg import render_svg

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
