"""Figure 8 — impact of parallelising the generation of Q.

Paper (Java, 24 logical cores): large speedup from 1 to 8 threads, still
substantial to 16, diminishing beyond the core count.  Both of the
paper's parallel steps are exercised: (i) permutation testing (sharded
at pair-family boundaries so one large-domain attribute cannot serialize
the phase) and (ii) support checking (sharded per grouping attribute,
which is why the sweep uses the pairwise evaluator: set cover shares its
materialization across groupings and stays in-process).

Our substrate differs in two ways, reported honestly rather than hidden:
the container has 2 cores (the paper's knee moves to ~2), and CPython's
GIL rules out thread workers for the permutation loop, so the sweep runs
the sharded process pool — the faithful analogue of the paper's Java
threads.  The reproduction target is "parallel workers reduce the
statistical-test wall-clock until the core count".
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import cli_main, print_report, run_once

from repro.datasets import enedis_table
from repro.evaluation import render_table
from repro.generation import GenerationConfig, generate_comparison_queries
from repro.parallel import ParallelConfig

PAPER_NOTE = """paper (24-core Xeon, Java threads): big speedup 1->8, gains to 16,
diminishing beyond; here process workers show the shape up to the host's
core count — see module docstring"""

FULL_SWEEP = (1, 2, 4, 8)


def run_experiment(scale: float, sweep) -> list[tuple[int, float, float, float]]:
    table = enedis_table(scale)
    rows = []
    for workers in sweep:
        config = GenerationConfig(
            parallel=ParallelConfig(workers=workers), evaluator="pairwise"
        )
        start = time.perf_counter()
        outcome = generate_comparison_queries(table, config)
        wall = time.perf_counter() - start
        rows.append(
            (
                workers,
                outcome.timings.statistical_tests,
                outcome.timings.hypothesis_evaluation,
                wall,
            )
        )
    return rows


def build_table(rows) -> str:
    base = rows[0][3]
    table_rows = [
        (n, f"{tests:.2f}", f"{hyp:.2f}", f"{wall:.2f}", f"{base / wall:.2f}x")
        for n, tests, hyp, wall in rows
    ]
    body = render_table(
        ["workers", "stat tests (s)", "hyp. eval (s)", "total (s)", "speedup"],
        table_rows,
    )
    return body + "\n\n" + PAPER_NOTE


def main(quick: bool = False) -> None:
    sweep = (1, 2) if quick else FULL_SWEEP
    rows = run_experiment(0.12 if quick else 0.5, sweep)
    print_report("Figure 8 — parallel generation of Q", build_table(rows))


def test_fig8_threads(benchmark, capsys):
    rows = run_once(benchmark, run_experiment, 0.2, (1, 2))
    with capsys.disabled():
        print_report("Figure 8 (quick) — parallel workers", build_table(rows))
    by = {r[0]: r for r in rows}
    # At quick scale the pool spawn/pickle overhead is a large share of a
    # ~2 s phase, and a full benchmark session adds background load, so the
    # smoke check only rules out a catastrophic regression; the full run
    # (scale 0.5, quiet machine) is where the speedup is measured.
    assert by[2][1] <= by[1][1] * 1.8


if __name__ == "__main__":
    cli_main(main)
