"""Compare the paper's generator implementations on the ENEDIS-like dataset.

Runs the five Table 3 implementations (plus the two Table 7 interestingness
variants) on the synthetic ENEDIS workload, printing for each:

* wall-clock time and its phase breakdown,
* how many insights were tested / found significant,
* the size of the generated query set Q,
* the selected notebook's interest and path distance.

Finally the wsc-approx notebook is written to ``/tmp`` as ``.ipynb``.

Run:  python examples/enedis_generators.py  [--scale 0.3]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.datasets import enedis_table
from repro.evaluation import render_table, run_preset
from repro.generation import preset, preset_names
from repro.notebook import write_ipynb


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="dataset scale factor (1.0 = ~6000 rows)")
    parser.add_argument("--budget", type=int, default=10, help="notebook length (eps_t)")
    args = parser.parse_args()

    table = enedis_table(scale=args.scale)
    print(f"ENEDIS-like dataset: {table.n_rows} rows, "
          f"{len(table.schema.categorical_names)} categorical attributes, "
          f"{len(table.schema.measure_names)} measures\n")

    rows = []
    best_run = None
    for name in preset_names():
        if name == "naive-exact":
            # The exact solver needs a small Q; keep it but cap its time.
            config = preset(name, exact_timeout=20.0)
        else:
            config = preset(name, sample_rate=0.2)
        outcome = run_preset(config, table, name, budget=args.budget)
        timings = outcome.breakdown
        rows.append(
            (
                name,
                f"{outcome.wall_seconds:.2f}s",
                f"{timings['statistical_tests']:.2f}s",
                f"{timings['hypothesis_evaluation']:.2f}s",
                f"{timings['tap_solving']:.3f}s",
                outcome.insights_tested,
                outcome.insights_significant,
                outcome.n_queries,
                f"{outcome.run.solution.interest:.2f}",
            )
        )
        if name == "wsc-approx":
            best_run = outcome.run

    print(
        render_table(
            ["generator", "wall", "tests", "hyp.eval", "tap", "tested", "signif", "|Q|", "z"],
            rows,
            title="Generator implementations on ENEDIS-like data",
        )
    )

    if best_run is not None and best_run.selected:
        out = Path(tempfile.mkdtemp(prefix="repro-enedis-")) / "enedis_notebook.ipynb"
        notebook = best_run.to_notebook(table, table_name="enedis", title="ENEDIS comparisons")
        write_ipynb(notebook, out)
        print(f"\nwsc-approx notebook written to {out}")


if __name__ == "__main__":
    main()
