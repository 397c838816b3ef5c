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
2. The distinct pooled value vectors of all pending tests — each centered
   to zero mean once (:func:`~repro.stats.permutation.center_pooled`, which
   keeps the shift-invariant statistics unchanged while making the one-pass
   variance identity numerically stable) — and, where a variance-type test
   reads them, their element-wise squares, are stacked into one ``(R, n)``
   moment matrix.  Tests on the same pooled array share its rows.
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

from collections import Counter
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
    tally: Counter | None = None,
) -> list[tuple[int, TestResult]]:
    """Execute every planned test of one shared batch, batching moment types.

    Returns ``(index, result)`` pairs.  ``checkpoint`` (the resilient
    runtime's cooperative-cancellation hook) is called between GEMM slices;
    ``progress`` receives the number of tests retired per slice.  Tests
    that hold the *same* ``pooled`` array share its moment rows within a
    slice (the M and V tests of one oriented pair and measure), so each
    distinct sample is centered once.  ``tally``, when given, counts the
    GEMM ``slices`` and the ``tests`` and moment ``rows`` they carried.
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
    # id(pooled) -> moment rows that sample needs in the current slice.
    depth: dict[int, int] = {}
    chunk_rows = 0

    def flush() -> None:
        if checkpoint is not None:
            checkpoint()
        _execute_chunk(batch, mask_t, chunk, depth, out)
        advance(len(chunk))
        if tally is not None:
            tally.update(slices=1, tests=len(chunk), rows=chunk_rows)

    for planned in moment_tests:
        key, order = id(planned.pooled), planned.itype.moment_order
        extra = max(0, order - depth.get(key, 0))
        if chunk and chunk_rows + extra > MAX_STACK_ROWS:
            flush()
            chunk, depth, chunk_rows = [], {}, 0
            extra = order
        chunk.append(planned)
        depth[key] = depth.get(key, 0) + extra
        chunk_rows += extra
    flush()
    return out


def _execute_chunk(
    batch: SharedPermutations,
    mask_t: np.ndarray,
    chunk: list[KernelTest],
    depth: dict[int, int],
    out: list[tuple[int, TestResult]],
) -> None:
    """One mask-GEMM slice: stack moment rows, multiply, finish the stats.

    ``depth`` maps each distinct pooled sample (by ``id``) to its moment
    rows, in first-use order: a centered first-moment row, then its square
    when a variance-type test needs it.
    """
    total = batch.n_x + batch.n_y
    rows = np.empty((sum(depth.values()), total), dtype=np.float64)
    first_row: dict[int, int] = {}
    cursor = 0
    for planned in chunk:
        key = id(planned.pooled)
        if key in first_row:
            continue
        first_row[key] = cursor
        # Same centering expression as the per-test ``test`` methods, so
        # both sum bitwise-identical moment rows (see center_pooled).
        rows[cursor] = center_pooled(planned.pooled)
        if depth[key] >= 2:
            np.multiply(rows[cursor], rows[cursor], out=rows[cursor + 1])
        cursor += depth[key]
    x_sums = rows @ mask_t  # (R, P): every sample's X-side moment sums
    obs.counter("stats.kernel_batches").inc()
    obs.counter("stats.permutation_tests").inc(len(chunk))
    totals = rows.sum(axis=1)  # (R,): every moment row's pooled total
    # One statistic_from_moments call per insight type on (T, P) operands,
    # the pooled totals broadcast as (T, 1) columns.
    itypes = [planned.itype for planned in chunk]
    first_rows = np.asarray([first_row[id(planned.pooled)] for planned in chunk])
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
