"""The batched permutation-test kernel (mask-GEMM moment sums).

Testing each candidate insight with its own fancy-indexed gather over the
pooled sample costs O(P·n) work *per test*, with large intermediate
``(P, n)`` gather matrices.  This module restructures the computation so
one pass serves every test of a shared batch:

1. A :class:`~repro.stats.permutation.SharedPermutations` batch already
   *is* a ``(P, n)`` bool X-membership mask, drawn by selection rather
   than by sorting; it is widened to float64 **once** per call
   (:meth:`~repro.stats.permutation.SharedPermutations.membership_mask`,
   a single ``astype`` that keeps the C-contiguous ``(P, n)`` layout, so
   the product below reads exactly the operand it always has).
2. The pooled value vectors of all pending tests — centered to zero mean
   (:func:`~repro.stats.permutation.center_pooled`, which keeps the
   shift-invariant statistics unchanged while making the one-pass variance
   identity numerically stable) — and, for variance-type tests, their
   element-wise squares, are stacked into one ``(R, n)`` moment matrix.
3. A single BLAS-backed product ``moments @ mask.T`` yields the X-side
   moment sums of every test under every permutation at once; Y-side sums
   come from the pooled totals (``sum(Y) = total − sum(X)``) and are never
   gathered.
4. Each slice is finished in arrays: each insight type's
   ``statistic_from_moments`` hook runs once on its tests' ``(T, P)``
   sums, with the exact floating-point formulas of the per-test ``test``
   methods (:func:`~repro.stats.permutation.mean_stat_from_moments`,
   :func:`~repro.stats.permutation.variance_stat_from_moments`), and
   :func:`~repro.stats.permutation.one_sided_p_values` counts every test.

Insight types that declare ``moment_order == 0`` (e.g. the median-greater
extension type) cannot be expressed as moment sums; the kernel transparently
falls back to their per-test ``test`` method on the same batch, so mixing
batchable and non-batchable types stays correct.

This is the only permutation path; ``tests/stats/test_kernel.py`` checks
it against a per-candidate reference that calls each type's ``test``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.stats.permutation import (
    SharedPermutations,
    TestResult,
    center_pooled,
    one_sided_p_values,
)

__all__ = [
    "KernelTest",
    "run_batched_tests",
]

#: Cap on stacked moment rows per GEMM call: bounds the ``(R, n)`` stack and
#: the ``(R, P)`` product so huge pair-families stream through in slices
#: instead of materializing one enormous product.
MAX_STACK_ROWS = 256


@dataclass(slots=True)
class KernelTest:
    """One planned permutation test awaiting batched execution.

    Attributes
    ----------
    index:
        The caller's result slot (tests of one batch may be executed out of
        planning order; results are reassembled positionally).
    itype:
        The insight type (duck-typed: ``moment_order``,
        ``statistic_from_moments``, ``test``).
    pooled:
        NaN-free ``[x..., y...]`` concatenation whose length matches the
        batch's ``n_x + n_y``.
    observed:
        The observed (oriented, non-negative) statistic to count against.
    """

    index: int
    itype: object
    pooled: np.ndarray
    observed: float


def run_batched_tests(
    batch: SharedPermutations,
    tests: Sequence[KernelTest],
    checkpoint: Callable[[], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> list[tuple[int, TestResult]]:
    """Execute every planned test of one shared batch, batching moment types.

    Returns ``(index, result)`` pairs.  ``checkpoint`` (the resilient
    runtime's cooperative-cancellation hook) is called between GEMM slices;
    ``progress`` receives the number of tests retired per slice.
    """
    out: list[tuple[int, TestResult]] = []
    advance = progress or (lambda n: None)
    moment_tests: list[KernelTest] = []
    for planned in tests:
        if getattr(planned.itype, "moment_order", 0) > 0:
            moment_tests.append(planned)
        else:
            # Non-moment types (e.g. median-greater) keep their own
            # permutation logic; the shared batch still serves them.
            x = planned.pooled[: batch.n_x]
            y = planned.pooled[batch.n_x :]
            out.append((planned.index, planned.itype.test(batch, x, y)))
            advance(1)
    if not moment_tests:
        return out

    mask_t = batch.membership_mask().T  # (n, P), built once per batch
    chunk: list[KernelTest] = []
    chunk_rows = 0
    for planned in moment_tests:
        order = planned.itype.moment_order
        if chunk and chunk_rows + order > MAX_STACK_ROWS:
            if checkpoint is not None:
                checkpoint()
            _execute_chunk(batch, mask_t, chunk, chunk_rows, out)
            advance(len(chunk))
            chunk, chunk_rows = [], 0
        chunk.append(planned)
        chunk_rows += order
    if chunk:
        if checkpoint is not None:
            checkpoint()
        _execute_chunk(batch, mask_t, chunk, chunk_rows, out)
        advance(len(chunk))
    return out


def _execute_chunk(
    batch: SharedPermutations,
    mask_t: np.ndarray,
    chunk: list[KernelTest],
    n_rows: int,
    out: list[tuple[int, TestResult]],
) -> None:
    """One mask-GEMM slice: stack moment rows, multiply, finish the stats."""
    total = batch.n_x + batch.n_y
    rows = np.empty((n_rows, total), dtype=np.float64)
    offsets: list[int] = []
    cursor = 0
    for planned in chunk:
        offsets.append(cursor)
        # Same centering expression as the per-test ``test`` methods, so
        # both sum bitwise-identical moment rows (see center_pooled).
        rows[cursor] = center_pooled(planned.pooled)
        if planned.itype.moment_order >= 2:
            np.multiply(rows[cursor], rows[cursor], out=rows[cursor + 1])
        cursor += planned.itype.moment_order
    with obs.span(
        "stats.kernel",
        tests=len(chunk),
        rows=n_rows,
        permutations=batch.n_permutations,
    ):
        x_sums = rows @ mask_t  # (R, P): every test's X-side moment sums
    obs.counter("stats.kernel_batches").inc()
    obs.counter("stats.permutation_tests").inc(len(chunk))
    totals = rows.sum(axis=1)  # (R,): every moment row's pooled total
    # One statistic_from_moments call per insight type on (T, P) operands,
    # the pooled totals broadcast as (T, 1) columns.
    itypes = [planned.itype for planned in chunk]
    first_rows = np.asarray(offsets)
    permuted = np.empty((len(chunk), batch.n_permutations), dtype=np.float64)
    for itype in dict.fromkeys(itypes):
        positions = [i for i, other in enumerate(itypes) if other is itype]
        rows_of = first_rows[positions]
        order = range(itype.moment_order)
        permuted[positions] = itype.statistic_from_moments(
            tuple(x_sums[rows_of + k] for k in order),
            tuple(totals[rows_of + k, None] for k in order),
            batch.n_x, batch.n_y,
        )
    observed = np.array([planned.observed for planned in chunk])
    p_values = one_sided_p_values(observed, permuted).tolist()
    out.extend((t.index, TestResult(t.observed, p)) for t, p in zip(chunk, p_values))
