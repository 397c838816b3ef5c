"""Figure 5 — distribution of comparison-query run times.

Paper: a sample of comparison queries on ENEDIS all run in roughly the
same time (a tight histogram), justifying the uniform cost model of the
TAP.  We time the generated SQL of a random sample of comparison queries
on stdlib sqlite3 and check the distribution is tight (90th percentile
within a small factor of the median).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from _harness import cli_main, print_report, run_once

from repro.datasets import enedis_table
from repro.evaluation import render_histogram
from repro.queries import ComparisonQuery, MeasuredCost
from repro.stats import derive_rng


def sample_queries(table, n: int, seed: int) -> list[ComparisonQuery]:
    """Random valid comparison queries over the table's actual values."""
    rng = derive_rng(seed, "fig5")
    cats = table.schema.categorical_names
    measures = table.schema.measure_names
    queries: list[ComparisonQuery] = []
    while len(queries) < n:
        b, a = rng.choice(len(cats), size=2, replace=False)
        b_name, a_name = cats[int(b)], cats[int(a)]
        values = sorted(set(table.categorical_column(b_name).values()) - {""})
        if len(values) < 2:
            continue
        v1, v2 = rng.choice(len(values), size=2, replace=False)
        queries.append(
            ComparisonQuery(
                a_name,
                b_name,
                values[int(v1)],
                values[int(v2)],
                measures[int(rng.integers(len(measures)))],
                ("sum", "avg")[int(rng.integers(2))],
            )
        )
    return queries


def run_experiment(scale: float, n_queries: int) -> list[float]:
    table = enedis_table(scale)
    model = MeasuredCost(table, "enedis")
    queries = sample_queries(table, n_queries, seed=17)
    try:
        return [model.cost(q) for q in queries]
    finally:
        model.close()


def build_report(times: list[float]) -> str:
    arr = np.array(times)
    stats = (
        f"n={arr.size}  median={np.median(arr)*1000:.2f}ms  "
        f"p10={np.percentile(arr, 10)*1000:.2f}ms  p90={np.percentile(arr, 90)*1000:.2f}ms  "
        f"max={arr.max()*1000:.2f}ms"
    )
    return (
        render_histogram(list(arr), n_bins=12)
        + "\n"
        + stats
        + "\npaper: all comparison queries cost roughly the same -> uniform TAP cost model"
    )


def main(quick: bool = False) -> None:
    times = run_experiment(0.1 if quick else 0.5, 30 if quick else 120)
    print_report("Figure 5 — comparison query run-time distribution", build_report(times))


def test_fig5_query_times(benchmark, capsys):
    times = run_once(benchmark, run_experiment, 0.1, 25)
    with capsys.disabled():
        print_report("Figure 5 (quick) — run-time distribution", build_report(times))
    arr = np.array(times)
    # The uniform-cost claim: the bulk of queries cost about the same.
    assert np.percentile(arr, 90) <= 12 * np.median(arr)


if __name__ == "__main__":
    cli_main(main)
