"""repro — reproduction of "Automatic generation of comparison notebooks
for interactive data exploration" (Chanson et al., EDBT 2022).

Quickstart::

    import repro

    run = repro.generate_notebook("mydata.csv", out="mydata.ipynb")

or, keeping resources (table, aggregate cache, backend, tracer) across
several runs::

    config = repro.ReproConfig(budget=8).with_parallel(workers=4)
    with repro.Session("mydata.csv", config=config) as session:
        run = session.generate()
        session.write_notebook(run, "mydata.ipynb")

The stable integration surface is :mod:`repro.api` plus
:class:`repro.ReproConfig`; :func:`repro.preset` returns the paper's
named Table 3/7 configurations as ready-to-run ``ReproConfig`` objects.

Subpackages
-----------
``repro.relational``
    Columnar in-memory relational engine (the RDBMS substrate).
``repro.sqlengine``
    SQL parser + executor for the emitted query subset.
``repro.stats``
    Permutation tests, BH-FDR correction, sampling strategies.
``repro.insights``
    Insight types, enumeration, significance, transitivity pruning.
``repro.queries``
    Comparison queries, SQL generation, interestingness, distance.
``repro.generation``
    Algorithm 1 / Algorithm 2 pipelines and the Table 3/7 presets.
``repro.tap``
    Traveling Analyst Problem: exact branch-and-bound and Algorithm 3.
``repro.notebook``
    ipynb / SQL-script rendering of generated notebooks.
``repro.datasets``
    Synthetic datasets mirroring the paper's evaluation data.
``repro.evaluation``
    Timing harness, solution quality metrics, simulated user study.
"""

from repro.errors import ReproError
from repro.generation import GenerationConfig, NotebookRun, preset
from repro.api import Session, generate_notebook
from repro.config import ReproConfig
from repro.parallel import ParallelConfig
from repro.persistence import load_outcome, load_run, resolve_outcome, save_outcome, save_run
from repro.queries import ComparisonQuery
from repro.relational import Table, read_csv, read_csv_text


def _read_version() -> str:
    """Resolve the package version from its single source of truth.

    Installed (even as an editable/egg-info checkout), package metadata
    answers; from a bare source tree we parse ``pyproject.toml`` instead.
    Both views read the same ``[project] version`` field, so the string
    can never drift from what ``pip`` reports.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # PackageNotFoundError or exotic metadata backends
        pass
    try:
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except Exception:
        return "0.0.0+unknown"


__version__ = _read_version()

__all__ = [
    "ComparisonQuery",
    "GenerationConfig",
    "NotebookRun",
    "ParallelConfig",
    "ReproConfig",
    "ReproError",
    "Session",
    "Table",
    "generate_notebook",
    "load_outcome",
    "load_run",
    "preset",
    "read_csv",
    "read_csv_text",
    "resolve_outcome",
    "save_outcome",
    "save_run",
    "__version__",
]
