"""Extending the framework with a new insight type (the paper's Section 7).

The conclusion lists the three ingredients for a new insight type:
(i) a SQL hypothesis predicate, (ii) a statistical test, (iii) the
interestingness plumbing.  This example:

1. uses the built-in extension type ``MedianGreater`` (code "D") alongside
   the paper's M and V types;
2. defines a brand-new ``RangeGreater`` type (max - min spread) from
   scratch to show the full recipe;
3. runs the generator with all four types enabled.

Run:  python examples/custom_insight_type.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.datasets import covid_table
from repro.insights import InsightType, register_insight_type
from repro.stats import SharedPermutations, TestResult, welch_mean_greater


class RangeGreater(InsightType):
    """Insight type ``R``: range(val) > range(val') where range = max - min."""

    code = "R"
    label = "range greater"
    null_hypothesis = "range(X) = range(Y)"
    statistic_name = "|range_X - range_Y|"

    def side_statistic(self, values: np.ndarray) -> float:
        # The observed statistic is side_statistic(X) - side_statistic(Y).
        if values.size == 0:
            return float("nan")
        return float(values.max() - values.min())

    def test(self, batch: SharedPermutations, x: np.ndarray, y: np.ndarray) -> TestResult:
        x, y = x[~np.isnan(x)], y[~np.isnan(y)]
        observed = self.observed_statistic(x, y)
        pooled = np.concatenate([x, y])
        # Only the X side is stored on the batch; the (order-insensitive)
        # range statistic can take the Y side from its sorted complement.
        perm_x = pooled[batch.x_indices]
        perm_y = pooled[batch.complement_indices()]
        diffs = (perm_x.max(axis=1) - perm_x.min(axis=1)) - (
            perm_y.max(axis=1) - perm_y.min(axis=1)
        )
        extreme = int(np.count_nonzero(diffs >= observed - 1e-12))
        return TestResult(observed, (1.0 + extreme) / (1.0 + diffs.size))

    def parametric_test(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        return welch_mean_greater(x, y)  # pragmatic surrogate

    # The support stage decides stacks of series through supports_batch,
    # which by default calls this scalar supports once per row.
    def supports(self, x_series: np.ndarray, y_series: np.ndarray) -> bool:
        x = x_series[~np.isnan(x_series)]
        y = y_series[~np.isnan(y_series)]
        if x.size == 0 or y.size == 0:
            return False
        return bool((x.max() - x.min()) > (y.max() - y.min()))

    def hypothesis_predicate_sql(self, x_column: str, y_column: str) -> str:
        return (
            f"max({x_column}) - min({x_column}) > max({y_column}) - min({y_column})"
        )


def main() -> None:
    register_insight_type(RangeGreater(), replace=True)

    covid = covid_table(800)
    config = repro.ReproConfig(budget=6).with_generation(
        insight_types=("M", "V", "D", "R")
    )
    with repro.Session(covid, config=config) as session:
        run = session.generate(progress=print)

    print(f"\nnotebook with {len(run.selected)} queries; insight types present:")
    codes = sorted(
        {e.insight.candidate.type_code for g in run.selected for e in g.supported}
    )
    print(f"  {codes}")
    for generated in run.selected:
        labels = {e.insight.candidate.type_code for e in generated.supported}
        print(f"  {generated.query.describe()}  types={sorted(labels)}")


if __name__ == "__main__":
    main()
