"""Golden notebook digests: the serialized notebook, pinned byte for byte.

Every other parity suite compares the program with itself (backend A
against backend B, warm against cold, one worker against two), so a change
that moves *all* paths together — how permutation batches are drawn, how a
p-value is rounded — passes them all.  This suite pins the sha256 of the
default-config notebook for a small seeded ENEDIS-shaped table instead.

A digest change means the notebook changed.  If that is intended (a new
statistic, a rendering change), recompute the digest and say in the commit
why the output moved; a performance change must never need to.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import enedis_table
from repro.insights import enumerate_candidates, run_significance_tests
from repro.notebook.ipynb import to_ipynb_json

#: sha256 of the UTF-8 ipynb JSON, per execution backend.
GOLDEN_DIGESTS = {
    "columnar": "bdbedcf65d0a00299dbc8e355e6af0bae9713b6b68f0736f7580de3945eb985d",
    "sqlite": "bdbedcf65d0a00299dbc8e355e6af0bae9713b6b68f0736f7580de3945eb985d",
}


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


@pytest.fixture(scope="module")
def table():
    return enedis_table(scale=0.05, seed=7)


@pytest.mark.parametrize("backend", sorted(GOLDEN_DIGESTS))
def test_default_notebook_digest_is_pinned(table, backend):
    config = ReproConfig().with_generation(backend=backend)
    with Session(table, config=config, table_name="enedis") as session:
        run = session.generate()
        text = to_ipynb_json(session.render(run))
    assert run.selected
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[backend]


#: sha256 over every tested insight of ``run_significance_tests`` on the
#: same table — key, statistic, raw p and BH-adjusted p as ``repr`` floats —
#: for the paper's two types, and with the median extension type added.
#: The notebook digests above only see the insights that reach the notebook.
STATS_DIGESTS = {
    "MV": "bb917c4e8f67f7d91e560138dd3966238ad47ae00ba374978fa7752abeba2fac",
    "MVD": "1f4c3e0c21c0b1845f9f94236a81690c6d874ce4c18ca85663822fa6c096df9d",
}


def _stats_digest(tested) -> str:
    digest = hashlib.sha256()
    for t in tested:
        line = (
            f"{t.candidate.key!r} {t.statistic!r} {t.p_value!r} {t.p_adjusted!r}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("types", sorted(STATS_DIGESTS))
def test_significance_output_digest_is_pinned(table, types):
    tested = run_significance_tests(
        table, enumerate_candidates(table, insight_types=list(types))
    )
    assert len(tested) > 100
    assert _stats_digest(tested) == STATS_DIGESTS[types]
