"""Walkthrough of the paper's running example (Figures 2 and 3).

Reconstructs, step by step, the COVID example of Section 3:

1. the comparison query "sum of cases by continent, April vs May" and its
   tabular result (Figure 2), run on stdlib sqlite3;
2. the hypothesis query postulating the mean-greater insight and its
   evaluation on sqlite3 (Figure 3);
3. the permutation test of the insight on the raw data, with the
   Benjamini-Hochberg-corrected significance;
4. the insight's credibility across all hypothesis queries postulating it.

Run:  python examples/covid_walkthrough.py
"""

from __future__ import annotations

from repro.backend import SqliteBackend
from repro.datasets import covid_table
from repro.insights import (
    MEAN_GREATER,
    CandidateInsight,
    SignificanceConfig,
    run_significance_tests,
)
from repro.queries import (
    ComparisonQuery,
    bind_table,
    comparison_aliases,
    comparison_sql,
    evaluate_comparison,
    hypothesis_sql,
)
from repro.relational.table import text_table


def main() -> None:
    covid = covid_table(1200)
    with SqliteBackend(covid, "covid") as db:
        walkthrough(covid, db)


def walkthrough(covid, db: SqliteBackend) -> None:

    # -- Figure 2: the comparison query --------------------------------------
    query = ComparisonQuery(
        group_by="continent",
        selection_attribute="month",
        val="5",
        val_other="4",
        measure="cases",
        agg="sum",
    )
    sql = bind_table(comparison_sql(query), "covid") + ";"
    print("=== Figure 2: comparison query ===")
    print(sql)
    rows = db.execute(sql)
    print()
    print(text_table((query.group_by, *comparison_aliases(query)), rows, len(rows)))

    # -- Figure 3: the hypothesis query ----------------------------------------
    hyp_sql = bind_table(hypothesis_sql(query, MEAN_GREATER), "covid") + ";"
    print("\n=== Figure 3: hypothesis query ===")
    print(hyp_sql)
    hyp_rows = db.execute(hyp_sql)
    supported = len(hyp_rows) == 1
    print(f"\nresult rows: {len(hyp_rows)} -> the comparison "
          f"{'SUPPORTS' if supported else 'does not support'} the insight")

    # Same check through the library's fast path:
    fast = evaluate_comparison(covid, query)
    print(f"fast path agrees: supports mean-greater = {fast.supports(MEAN_GREATER)}")

    # -- Significance: permutation test on the raw data -------------------------
    print("\n=== Insight significance (permutation test, BH-corrected) ===")
    candidate = CandidateInsight("cases", "month", "5", "4", "M")
    tested = run_significance_tests(covid, [candidate], SignificanceConfig(n_permutations=500))
    insight = tested[0]
    print(f"insight: mean(cases | month=5) > mean(cases | month=4)")
    print(f"observed statistic (mean difference on raw rows): {insight.statistic:.2f}")
    print(f"raw p-value: {insight.p_value:.4f}   adjusted: {insight.p_adjusted:.4f}")
    print(f"sig(i) = {insight.significance:.4f}  "
          f"-> significant at 0.95: {insight.is_significant()}")


if __name__ == "__main__":
    main()
