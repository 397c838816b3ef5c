"""Statistical testing of candidate insights (Algorithm 1, line 3).

The runner implements the paper's optimizations from Section 5.1:

* permutation batches are *shared* across all measures and insight types of
  a selection pair (Section 5.1.1), and — one step further — across pairs
  with identical sample sizes (a permutation batch depends only on the two
  sizes, never on the data);
* p-values are corrected per attribute family with Benjamini–Hochberg;
* tests may run on an offline sample of the relation (Section 5.1.2) —
  callers pass the sampled table here and keep the full table for
  credibility/interestingness.

Orientation: enumeration yields unordered pairs; the runner orients each
insight in the direction of the observed statistic (the direction a user
looking at the chart would postulate), then tests one-sided.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.errors import StatisticsError
from repro.insights.enumeration import enumerate_candidates
from repro.insights.insight import CandidateInsight, TestedInsight
from repro.insights.types import InsightType, insight_type
from repro.stats.corrections import benjamini_hochberg
from repro.stats.kernel import KernelTest, run_batched_tests
from repro.stats.permutation import DEFAULT_PERMUTATIONS, SharedPermutations, TestResult
from repro.stats.rng import DEFAULT_SEED, derive_rng
from repro.relational.table import Table

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class SignificanceConfig:
    """Settings for the significance runner.

    Attributes
    ----------
    n_permutations:
        Label permutations per test (permutation engine only).
    threshold:
        ``sig(i) >= threshold`` marks an insight significant (paper: 0.95).
    engine:
        ``"permutation"`` (paper default) or ``"parametric"`` (ablation).
    apply_bh:
        Benjamini–Hochberg correction per attribute family (paper default
        True; False is the correction ablation).
    share_across_pairs:
        Reuse permutation batches between pairs with equal sample sizes.
        Always statistically sound (batches are data-independent); disable
        to measure the sharing speedup.
    seed:
        Root seed for permutation generation.
    """

    n_permutations: int = DEFAULT_PERMUTATIONS
    threshold: float = 0.95
    engine: str = "permutation"
    apply_bh: bool = True
    share_across_pairs: bool = True
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.engine not in ("permutation", "parametric"):
            raise StatisticsError(f"unknown test engine {self.engine!r}")
        if self.n_permutations < 1:
            raise StatisticsError(
                f"n_permutations must be at least 1, got {self.n_permutations}"
            )
        if not 0 < self.threshold < 1:
            raise StatisticsError(f"threshold must be in (0, 1), got {self.threshold}")


class _BatchCache:
    """Permutation batches keyed by (n_x, n_y).

    Each batch's RNG is *derived from its key* (seed, attribute, sizes)
    rather than drawn from a shared sequential stream, so results are
    identical however the candidate list is chunked or parallelized.
    Without sharing, a fresh batch's key adds the requesting candidate's
    unoriented key, which is just as chunk-independent.
    """

    def __init__(self, seed: int, attribute: str, n_permutations: int, share: bool):
        self._seed = seed
        self._attribute = attribute
        self._n_permutations = n_permutations
        self._share = share
        self._cache: dict[tuple[int, int], SharedPermutations] = {}

    def _make(self, n_x: int, n_y: int, extra: object = None) -> SharedPermutations:
        rng = derive_rng(self._seed, "perm-batch", self._attribute, n_x, n_y, extra)
        return SharedPermutations(n_x, n_y, self._n_permutations, rng)

    def get(self, n_x: int, n_y: int, candidate: CandidateInsight) -> SharedPermutations:
        """The batch for these sizes; ``candidate`` is the unoriented request."""
        if not self._share:
            return self._make(n_x, n_y, candidate.key)
        key = (n_x, n_y)
        batch = self._cache.get(key)
        if batch is None:
            batch = self._make(n_x, n_y)
            self._cache[key] = batch
        else:
            obs.counter("stats.permutation_batches_reused").inc()
        return batch


def _value_row_index(codes: np.ndarray) -> dict[int, np.ndarray]:
    """code -> row indices, computed in one stable pass."""
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    index: dict[int, np.ndarray] = {}
    for chunk in np.split(order, boundaries):
        code = int(codes[chunk[0]])
        if code >= 0:
            index[code] = chunk
    return index


def run_significance_tests(
    table: Table,
    candidates: Iterable[CandidateInsight],
    config: SignificanceConfig | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[TestedInsight]:
    """Test every candidate insight against ``table``.

    Returns one :class:`TestedInsight` per candidate, *oriented* toward the
    observed dominant side, with per-attribute BH-adjusted p-values.
    Candidates whose samples are unusable (an empty side) are dropped.
    """
    config = config or SignificanceConfig()
    by_attribute: dict[str, list[CandidateInsight]] = {}
    total = 0
    for candidate in candidates:
        by_attribute.setdefault(candidate.attribute, []).append(candidate)
        total += 1

    # Per-candidate progress: one large attribute family no longer holds the
    # callback hostage until its whole group is tested.
    done = 0
    advance: Callable[[int], None] | None = None
    if progress is not None:
        def advance(n: int) -> None:
            nonlocal done
            done += n
            progress(done, total)

    tested: list[TestedInsight] = []
    for attribute, group in by_attribute.items():
        tested.extend(
            _test_attribute_group(table, attribute, group, config, progress=advance)
        )
    if progress is not None and done != total:  # pragma: no cover - safety net
        progress(total, total)
    return tested


def run_attribute_significance(
    table: Table,
    attribute: str,
    candidates: Sequence[CandidateInsight],
    config: SignificanceConfig | None = None,
    checkpoint: Callable[[], None] | None = None,
) -> list[TestedInsight]:
    """Test the candidates of a single attribute."""
    config = config or SignificanceConfig()
    return _test_attribute_group(table, attribute, list(candidates), config, checkpoint)


def _test_attribute_group(
    table: Table,
    attribute: str,
    group: list[CandidateInsight],
    config: SignificanceConfig,
    checkpoint: Callable[[], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> list[TestedInsight]:
    oriented, results = run_attribute_chunk(
        table, attribute, group, config, checkpoint, progress
    )
    return finalize_attribute(oriented, results, config)


def family_chunks(
    candidates: Sequence[CandidateInsight], chunk_size: int
) -> list[list[CandidateInsight]]:
    """Contiguous chunks of ~``chunk_size``, cut only at pair-family borders.

    Enumeration yields all candidates of a ``(val, val')`` selection pair
    contiguously; cutting only where the pair changes feeds the batched
    kernel whole pair-families per worker while preserving candidate order,
    so chunked (process-pool) runs remain result-identical to unchunked
    runs.
    """
    if chunk_size < 1:
        raise StatisticsError("chunk_size must be at least 1")
    chunks: list[list[CandidateInsight]] = []
    current: list[CandidateInsight] = []
    for candidate in candidates:
        if (
            len(current) >= chunk_size
            and candidate.pair_key != current[-1].pair_key
        ):
            chunks.append(current)
            current = []
        current.append(candidate)
    if current:
        chunks.append(current)
    return chunks


def run_attribute_chunk(
    table: Table,
    attribute: str,
    group: Sequence[CandidateInsight],
    config: SignificanceConfig | None = None,
    checkpoint: Callable[[], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> tuple[list[CandidateInsight], list[TestResult]]:
    """Raw (uncorrected) tests for a chunk of one attribute's candidates.

    The parallel unit: chunks of the same attribute can run on different
    workers and be merged before :func:`finalize_attribute` applies the
    BH correction over the whole family.  Results are independent of the
    chunking (permutation batches are key-derived, not stream-drawn).

    For the permutation engine the loop only *plans* tests — orientation,
    NaN cleaning (once per value and measure), and batch lookup — and the
    pending tests of each shared batch are then executed together through
    the mask-GEMM kernel
    (:func:`repro.stats.kernel.run_batched_tests`).  Results land in
    planning order, so they match calling each type's ``test`` method on
    the same batch candidate by candidate.

    ``checkpoint`` is called once per candidate (and between kernel
    slices) — the cooperative cancellation hook of the resilient runtime
    (it raises :class:`~repro.errors.DeadlineExceeded` past the run
    deadline).  ``progress`` is called with the number of candidates
    retired as they are (per candidate, or per batch group at the end of a
    batched chunk).
    """
    config = config or SignificanceConfig()
    advance = progress or (lambda n: None)
    with obs.span(
        "stats.test_attribute", attribute=attribute, candidates=len(group)
    ) as chunk_span:
        column = table.categorical_column(attribute)
        row_index = _value_row_index(column.codes)
        measures = {name: table.measure_values(name) for name in table.schema.measure_names}
        batches = _BatchCache(
            config.seed, attribute, config.n_permutations, config.share_across_pairs
        )

        # NaN-free sample per (value, measure), built on first use in the
        # chunk: every candidate of a value shares it rather than repeating
        # the label lookup, the row gather and the NaN filter.
        samples: dict[tuple[str, str], np.ndarray] = {}

        def clean_sample(value: str, measure: str) -> np.ndarray:
            rows = row_index.get(column.code_of(value))
            if rows is None:  # a value absent from the table: dropped below
                return np.empty(0)
            values = measures.get(measure)
            if values is None:
                raise StatisticsError(f"unknown measure {measure!r}")
            sample = values[rows]
            return sample[~np.isnan(sample)]

        oriented: list[CandidateInsight] = []
        results: list[TestResult | None] = []
        # Planned tests per shared batch, in planning order.
        pending: dict[int, tuple[SharedPermutations, list[KernelTest]]] = {}
        for candidate in group:
            if checkpoint is not None:
                checkpoint()
            itype = insight_type(candidate.type_code)
            key_x = (candidate.val, candidate.measure)
            key_y = (candidate.val_other, candidate.measure)
            x = samples.get(key_x)
            if x is None:
                x = samples[key_x] = clean_sample(*key_x)
            y = samples.get(key_y)
            if y is None:
                y = samples[key_y] = clean_sample(*key_y)
            if x.size == 0 or y.size == 0:
                advance(1)
                continue
            # Orient toward the observed dominant side.
            statistic = itype.observed_statistic(x, y)
            if np.isnan(statistic):
                advance(1)
                continue
            if statistic >= 0:
                side_x, side_y = x, y
                final = candidate
            else:
                side_x, side_y = y, x
                final = CandidateInsight(
                    candidate.measure,
                    candidate.attribute,
                    candidate.val_other,
                    candidate.val,
                    candidate.type_code,
                )
            if config.engine == "parametric":
                oriented.append(final)
                results.append(itype.parametric_test(side_x, side_y))
                advance(1)
                continue
            batch = batches.get(side_x.size, side_y.size, candidate)
            slot = len(results)
            oriented.append(final)
            results.append(None)
            observed = itype.observed_statistic(side_x, side_y)
            entry = pending.get(id(batch))
            if entry is None:
                entry = (batch, [])
                pending[id(batch)] = entry
            entry[1].append(
                KernelTest(slot, itype, np.concatenate([side_x, side_y]), observed)
            )
        for batch, planned in pending.values():
            for slot, result in run_batched_tests(batch, planned, checkpoint, progress):
                results[slot] = result
        chunk_span.set(tested=len(results))

    return oriented, results


def finalize_attribute(
    oriented: Sequence[CandidateInsight],
    results: Sequence[TestResult],
    config: SignificanceConfig | None = None,
) -> list[TestedInsight]:
    """Apply the per-attribute-family BH correction to merged chunk results."""
    config = config or SignificanceConfig()
    if not oriented:
        return []
    raw_p = [r.p_value for r in results]
    if config.apply_bh:
        with obs.span(
            "stats.bh_correction",
            attribute=oriented[0].attribute, family_size=len(raw_p),
        ):
            adjusted = benjamini_hochberg(raw_p)
    else:
        adjusted = np.asarray(raw_p)
    return [
        TestedInsight(candidate, result.statistic, result.p_value, float(adj))
        for candidate, result, adj in zip(oriented, results, adjusted)
    ]


def significant_insights(
    table: Table,
    insight_types: Iterable[InsightType | str] | None = None,
    config: SignificanceConfig | None = None,
    attributes: Sequence[str] | None = None,
    measures: Sequence[str] | None = None,
    max_pairs_per_attribute: int | None = None,
) -> list[TestedInsight]:
    """Enumerate, test, and filter: the significant insights of a relation."""
    config = config or SignificanceConfig()
    candidates = enumerate_candidates(
        table,
        insight_types=insight_types,
        attributes=attributes,
        measures=measures,
        max_pairs_per_attribute=max_pairs_per_attribute,
    )
    tested = run_significance_tests(table, candidates, config)
    return [t for t in tested if t.is_significant(config.threshold)]
