"""Statistics substrate: permutation tests, FDR correction, sampling."""

from repro.stats.corrections import benjamini_hochberg, bh_reject, bonferroni
from repro.stats.kernel import (
    KernelTest,
    run_batched_tests,
)
from repro.stats.parametric import f_variance_greater, levene_variance_greater, welch_mean_greater
from repro.stats.permutation import (
    DEFAULT_PERMUTATIONS,
    SharedPermutations,
    TestResult,
    center_pooled,
    mean_difference,
    mean_stat_from_moments,
    permutation_mean_greater,
    permutation_variance_greater,
    reduced_permutations,
    variance_difference,
    variance_stat_from_moments,
)
from repro.stats.rng import DEFAULT_SEED, derive_rng, derive_seed
from repro.stats.sampling import (
    balanced_sample_for_attribute,
    minority_preservation,
    per_attribute_balanced_samples,
    random_sample,
    random_sample_indices,
    unbalanced_sample,
    unbalanced_sample_indices,
)

__all__ = [
    "DEFAULT_PERMUTATIONS",
    "DEFAULT_SEED",
    "KernelTest",
    "SharedPermutations",
    "TestResult",
    "benjamini_hochberg",
    "bh_reject",
    "bonferroni",
    "center_pooled",
    "derive_rng",
    "derive_seed",
    "f_variance_greater",
    "levene_variance_greater",
    "mean_difference",
    "mean_stat_from_moments",
    "run_batched_tests",
    "balanced_sample_for_attribute",
    "minority_preservation",
    "per_attribute_balanced_samples",
    "permutation_mean_greater",
    "permutation_variance_greater",
    "random_sample",
    "random_sample_indices",
    "reduced_permutations",
    "unbalanced_sample",
    "unbalanced_sample_indices",
    "variance_difference",
    "variance_stat_from_moments",
    "welch_mean_greater",
]
