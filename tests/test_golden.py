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
