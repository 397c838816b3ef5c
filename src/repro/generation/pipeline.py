"""Run results and the named generator configurations of Tables 3 and 7.

:class:`NotebookRun` is what every run returns (the resilient controller,
:mod:`repro.runtime.controller`, is the one code path that produces it).
:func:`preset` returns the named configurations the paper evaluates, as
:class:`~repro.config.ReproConfig` objects that :class:`repro.Session`,
:func:`repro.generate_notebook` and the CLI run directly:

========================  ==========================  =================
name                      generation of Q             solving TAP
========================  ==========================  =================
``naive-exact``           Algo. 1 + bounding          exact B&B
``naive-approx``          Algo. 1 + bounding          Algo. 3
``wsc-approx``            Algo. 2                     Algo. 3
``wsc-unb-approx``        Algo. 2 + unbalanced smp.   Algo. 3
``wsc-rand-approx``       Algo. 2 + random smp.       Algo. 3
``wsc-approx-sig``        Algo. 2, sig-only interest  Algo. 3
``wsc-approx-sig-cred``   Algo. 2, sig+cred interest  Algo. 3
========================  ==========================  =================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TAPError
from repro.generation.config import GenerationConfig, SamplingSpec
from repro.generation.generator import GeneratedQuery, GenerationOutcome
from repro.notebook.build import build_notebook
from repro.notebook.cells import Notebook
from repro.relational.table import Table
from repro.runtime.report import RunReport
from repro.tap.instance import TAPSolution

if TYPE_CHECKING:
    from repro.config import ReproConfig

#: Default ε_d per notebook query: generous enough that Algorithm 3 keeps
#: the top queries, tight enough that close queries are preferred (the
#: paper tunes ε_d "to obtain TAP solutions where queries are very close
#: to each other").
DEFAULT_EPSILON_PER_QUERY = 4.0

_PRESET_NAMES = (
    "naive-exact",
    "naive-approx",
    "wsc-approx",
    "wsc-unb-approx",
    "wsc-rand-approx",
    "wsc-approx-sig",
    "wsc-approx-sig-cred",
)


@dataclass(slots=True)
class NotebookRun:
    """Result of one end-to-end generation run.

    ``report`` is the resilient controller's account of the run
    (:mod:`repro.runtime`): per-stage timings, degradations applied,
    warnings, and retry counts.
    """

    outcome: GenerationOutcome
    solution: TAPSolution
    selected: list[GeneratedQuery]
    budget: float
    epsilon_distance: float
    report: RunReport | None = None
    #: Raw per-family stats memo (:class:`repro.stats.delta.StatsMemo`)
    #: when the run was memoizable — the seed of the next incremental run.
    stats_memo: object | None = None

    @property
    def timings(self):
        return self.outcome.timings

    @property
    def degraded(self) -> bool:
        """True when the resilient controller applied any fallback."""
        return self.report is not None and self.report.degraded

    def to_notebook(
        self,
        table: Table | None = None,
        table_name: str = "dataset",
        title: str = "Comparison notebook",
        include_previews: bool = True,
    ) -> Notebook:
        return build_notebook(
            self.selected,
            table=table,
            table_name=table_name,
            title=title,
            include_previews=include_previews,
        )


def preset(
    name: str,
    sample_rate: float = 0.1,
    base: GenerationConfig | None = None,
    exact_timeout: float | None = 60.0,
) -> ReproConfig:
    """The named generator configuration of Tables 3 and 7, ready to run.

    ``base`` is the generation config the preset adjusts (the paper's
    defaults when None); the run-level fields (budget, ε_d, deadline)
    keep their :class:`~repro.config.ReproConfig` defaults.
    """
    # repro.config imports repro.generation, so this import stays local.
    from repro.config import ReproConfig

    if name not in _PRESET_NAMES:
        raise TAPError(f"unknown preset {name!r}; known: {_PRESET_NAMES}")
    config = base or GenerationConfig()
    solver = "heuristic"
    if name == "naive-exact":
        config = dataclasses.replace(config, evaluator="pairwise")
        solver = "exact"
    elif name == "naive-approx":
        config = dataclasses.replace(config, evaluator="pairwise")
    elif name == "wsc-approx":
        config = dataclasses.replace(config, evaluator="setcover")
    elif name == "wsc-unb-approx":
        config = dataclasses.replace(
            config, evaluator="setcover", sampling=SamplingSpec("unbalanced", sample_rate)
        )
    elif name == "wsc-rand-approx":
        config = dataclasses.replace(
            config, evaluator="setcover", sampling=SamplingSpec("random", sample_rate)
        )
    elif name == "wsc-approx-sig":
        config = dataclasses.replace(
            config,
            evaluator="setcover",
            interestingness=config.interestingness.with_components(
                conciseness_on=False, credibility_on=False
            ),
        )
    elif name == "wsc-approx-sig-cred":
        config = dataclasses.replace(
            config,
            evaluator="setcover",
            interestingness=config.interestingness.with_components(
                conciseness_on=False, credibility_on=True
            ),
        )
    return ReproConfig(generation=config, solver=solver, exact_timeout=exact_timeout)


def preset_names() -> tuple[str, ...]:
    return _PRESET_NAMES
