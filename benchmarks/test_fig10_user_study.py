"""Figure 10 + Table 7 — the (simulated) user study.

Paper: 9 volunteers rated six 10-query ENEDIS notebooks (Table 7 configs)
on informativity / comprehensibility / expertise / human-equivalence.
Findings to reproduce with the simulated raters (see
``repro.evaluation.user_study`` for the substitution rationale):

* WSC-rand-approx and WSC-approx-sig score well; the difference between
  them is not significant (t-test);
* Naive-exact does not dominate — exact TAP resolution is not needed for
  user-perceived quality (no significant difference vs WSC-approx);
* human-equivalence scores are the weakest overall (the tight ε_d makes
  sequences repetitive).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import cli_main, print_report, run_once

from repro.datasets import enedis_table
from repro.evaluation import CRITERIA, render_table, run_preset, simulate_user_study
from repro.generation import preset

GENERATORS = (
    "naive-exact",
    "wsc-approx",
    "wsc-approx-sig",
    "wsc-approx-sig-cred",
    "wsc-unb-approx",
    "wsc-rand-approx",
)
PAPER_NOTE = """paper: WSC-rand-approx & WSC-approx-sig score best (difference not
significant); Naive-exact dominated on all criteria (no significant
difference vs WSC-approx either); human-equivalence lowest overall"""


def run_experiment(scale: float, budget: int, n_raters: int = 9, seed: int = 1598):
    table = enedis_table(scale)
    notebooks = {}
    for name in GENERATORS:
        config = preset(name, sample_rate=0.1, exact_timeout=15.0)
        run = run_preset(config, table, name, budget=budget).run
        if run.selected:
            notebooks[name] = run.selected
    study = simulate_user_study(notebooks, n_raters=n_raters, seed=seed)
    return study


def build_report(study) -> str:
    rows = [
        (name, *(f"{v:.2f}" for v in means))
        for name, *means in study.mean_table()
    ]
    body = render_table(["generator"] + list(CRITERIA), rows, title="Mean ratings (1-7)")
    tests = []
    pairs = [
        ("wsc-rand-approx", "wsc-approx-sig"),
        ("naive-exact", "wsc-approx"),
        ("wsc-rand-approx", "naive-exact"),
        ("wsc-approx-sig", "wsc-approx-sig-cred"),
    ]
    for a, b in pairs:
        if a in study.ratings and b in study.ratings:
            for criterion in CRITERIA:
                p = study.t_test(a, b, criterion)
                verdict = "significant" if p < 0.05 else "not significant"
                tests.append((f"{a} vs {b}", criterion, f"{p:.3f}", verdict))
    t_table = render_table(["pair", "criterion", "p-value", "verdict"], tests,
                           title="Welch t-tests")
    return body + "\n\n" + t_table + "\n\n" + PAPER_NOTE


def main(quick: bool = False) -> None:
    study = run_experiment(0.1 if quick else 0.3, 6 if quick else 10)
    print_report("Figure 10 / Table 7 — simulated user study", build_report(study))


def test_fig10_user_study(benchmark, capsys):
    study = run_once(benchmark, run_experiment, 0.1, 6)
    with capsys.disabled():
        print_report("Figure 10 (quick) — simulated user study", build_report(study))
    # Ratings live on the 1-7 Likert scale for every generator.
    for matrix in study.ratings.values():
        assert matrix.min() >= 1.0 and matrix.max() <= 7.0
    # The paper's key negative result: sampling does not significantly hurt
    # perceived quality (rand-approx vs the full-data setcover variant).
    if {"wsc-rand-approx", "wsc-approx"} <= set(study.ratings):
        assert not study.significant_difference(
            "wsc-rand-approx", "wsc-approx", "comprehensibility", alpha=0.01
        )


if __name__ == "__main__":
    cli_main(main)
