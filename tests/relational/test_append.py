"""Appended row blocks: dictionary-extending growth, version tokens, moments.

The whole incremental-recompute subsystem rests on one invariant: a grown
table is indistinguishable from a cold load of the concatenated data —
same dictionary codes for old rows, same streamed version token, same
per-partition moment sums.  These tests pin that invariant down at the
relational layer.
"""

import numpy as np
import pytest

from repro.errors import ReproError, SchemaError
from repro.relational import table_from_arrays
from repro.relational.columns import NULL_LABEL
from repro.relational.moments import MomentStore, touched_labels
from repro.relational.table import TableVersioner, content_token
from repro.stats import derive_rng


@pytest.fixture
def base():
    rng = derive_rng(11, "append-base")
    n = 80
    return table_from_arrays(
        {
            "a": rng.choice(["a0", "a1", "a2"], n),
            "b": rng.choice(["b0", "b1"], n),
        },
        {"m": rng.normal(0, 1, n)},
    )


BLOCK = {
    "a": ["a1", "a9", None, "a0"],
    "b": ["b0", "b1", "b0", "b1"],
    "m": [1.5, None, -2.0, 0.25],
}


def cold_concat(base, block):
    """The table a cold load of base+block would produce."""

    def decoded(table, name):
        col = table.categorical_column(name)
        return [
            col.categories[c] if c >= 0 else None for c in col.codes
        ]

    cats = {
        name: decoded(base, name) + list(block[name])
        for name in base.schema.categorical_names
    }
    meas = {
        name: list(base.measure_column(name).data) + list(block[name])
        for name in base.schema.measure_names
    }
    return table_from_arrays(cats, meas)


class TestAppendBlock:
    def test_returns_new_table_matching_cold_load(self, base):
        grown = base.append_block(BLOCK)
        assert grown is not base
        assert base.n_rows == 80  # the original is untouched
        cold = cold_concat(base, BLOCK)
        assert grown.n_rows == cold.n_rows == 84
        for name in base.schema.categorical_names:
            g, c = grown.categorical_column(name), cold.categorical_column(name)
            assert tuple(g.categories) == tuple(c.categories)
            assert np.array_equal(g.codes, c.codes)
        g = np.asarray(grown.measure_column("m").data, dtype=float)
        c = np.asarray(cold.measure_column("m").data, dtype=float)
        assert np.array_equal(g, c, equal_nan=True)

    def test_old_rows_keep_their_codes(self, base):
        grown = base.append_block(BLOCK)
        for name in base.schema.categorical_names:
            assert np.array_equal(
                grown.categorical_column(name).codes[: base.n_rows],
                base.categorical_column(name).codes,
            )

    def test_new_labels_extend_dictionary_in_first_appearance_order(self, base):
        grown = base.append_block(BLOCK)
        cats = grown.categorical_column("a").categories
        assert tuple(cats[: len(base.categorical_column("a").categories)]) == tuple(
            base.categorical_column("a").categories
        )
        assert cats[-1] == "a9"

    def test_row_tuple_form(self, base):
        names = base.schema.names
        tuples = [tuple(BLOCK[n][i] for n in names) for i in range(4)]
        from_tuples = base.append_block(tuples)
        from_mapping = base.append_block(BLOCK)
        for name in base.schema.categorical_names:
            assert np.array_equal(
                from_tuples.categorical_column(name).codes,
                from_mapping.categorical_column(name).codes,
            )

    def test_schema_mismatch_rejected(self, base):
        with pytest.raises(SchemaError):
            base.append_block({"a": ["a0"], "m": [1.0]})
        with pytest.raises(SchemaError):
            base.append_block({"a": ["a0"], "b": ["b0", "b1"], "m": [1.0]})
        with pytest.raises(SchemaError):
            base.append_block([("a0", "b0")])


class TestVersionToken:
    def test_advance_matches_cold_token(self, base):
        versioner = TableVersioner(base)
        grown = base.append_block(BLOCK)
        versioner.advance(grown, base.n_rows)
        assert versioner.token == content_token(grown)

    def test_prefix_property(self, base):
        grown = base.append_block(BLOCK)
        assert content_token(grown, base.n_rows) == content_token(base)
        assert content_token(grown) != content_token(base)

    def test_token_is_content_addressed_not_layout_addressed(self, base):
        # A cold load of the concatenated rows has a different dictionary
        # construction history but identical contents -> identical token.
        grown = base.append_block(BLOCK)
        cold = cold_concat(base, BLOCK)
        assert content_token(grown) == content_token(cold)

    def test_token_changes_with_content(self, base):
        other = dict(BLOCK)
        other["m"] = [1.5, None, -2.0, 0.26]
        assert content_token(base.append_block(BLOCK)) != content_token(
            base.append_block(other)
        )

    def test_chained_appends(self, base):
        versioner = TableVersioner(base)
        t = base
        for start in range(3):
            prev_rows = t.n_rows
            t = t.append_block(BLOCK)
            versioner.advance(t, prev_rows)
        assert versioner.token == content_token(t)


def assert_same_aggregate(one, two):
    assert one.attributes == two.attributes
    assert one.categories == two.categories
    for k1, k2 in zip(one.keys, two.keys):
        assert np.array_equal(k1, k2)
    assert set(one.summaries) == set(two.summaries)
    for name in one.summaries:
        s1, s2 = one.summaries[name], two.summaries[name]
        for field in ("count", "total", "total_sq", "minimum", "maximum"):
            assert np.array_equal(
                getattr(s1, field), getattr(s2, field), equal_nan=True
            ), f"{name}.{field} diverged"


class TestMomentStore:
    def test_advance_bitwise_equals_cold_build(self, base):
        store = MomentStore.build(base, content_token(base))
        grown = base.append_block(BLOCK)
        token = content_token(grown)
        advanced = store.advance(grown, base.n_rows, token)
        cold = MomentStore.build(grown, token)
        assert advanced.version == token and advanced.n_rows == grown.n_rows
        for attr in grown.schema.categorical_names:
            assert_same_aggregate(advanced.moments(attr), cold.moments(attr))

    def test_advance_requires_contiguous_delta(self, base):
        store = MomentStore.build(base, content_token(base))
        grown = base.append_block(BLOCK)
        with pytest.raises(ReproError):
            store.advance(grown, base.n_rows - 1, content_token(grown))


class TestTouchedLabels:
    def test_only_block_labels_reported(self, base):
        grown = base.append_block(BLOCK)
        assert touched_labels(grown, "a", base.n_rows) == frozenset(
            {"a0", "a1", "a9", NULL_LABEL}
        )

    def test_empty_delta(self, base):
        assert touched_labels(base, "a", base.n_rows) == frozenset()
