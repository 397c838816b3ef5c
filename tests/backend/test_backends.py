"""Unit tests for repro.backend — contract, pushdown accounting, threading."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.backend import (
    BACKEND_NAMES,
    BackendError,
    ColumnarBackend,
    ExecutionBackend,
    SqliteBackend,
    as_backend,
    create_backend,
    default_backend_name,
)
from repro.generation import GenerationConfig, PairwiseEvaluator
from repro.errors import QueryError
from repro.queries import ComparisonQuery
from repro.relational import table_from_arrays
from repro.relational.aggregates import aggregate_all


@pytest.fixture(autouse=True)
def isolated_obs():
    """Keep this module's backend activity out of the ambient obs state."""
    with obs.capture():
        yield


@pytest.fixture
def table():
    return table_from_arrays(
        {
            "region": ["n", "n", "s", "s", "e", None],
            "kind": ["x", "y", "x", "y", "x", "y"],
        },
        {"amount": [1.0, 2.0, 3.0, 4.0, None, 6.0]},
    )


@pytest.fixture(params=["columnar", "sqlite"])
def backend(request, table):
    built = create_backend(request.param, table)
    yield built
    built.close()


class TestFactory:
    def test_create_by_name(self, table):
        assert isinstance(create_backend("columnar", table), ColumnarBackend)
        sq = create_backend("sqlite", table)
        assert isinstance(sq, SqliteBackend)
        sq.close()

    def test_unknown_name(self, table):
        with pytest.raises(BackendError):
            create_backend("duckdb", table)

    def test_protocol_conformance(self, table):
        for name in BACKEND_NAMES:
            built = create_backend(name, table)
            assert isinstance(built, ExecutionBackend)
            built.close()

    def test_as_backend_wraps_tables(self, table):
        wrapped = as_backend(table)
        assert isinstance(wrapped, ColumnarBackend)
        assert as_backend(wrapped) is wrapped

    def test_default_from_environment(self, table, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "columnar"
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        assert default_backend_name() == "sqlite"
        assert GenerationConfig().backend == "sqlite"
        monkeypatch.setenv("REPRO_BACKEND", "oracle")
        with pytest.raises(BackendError):
            default_backend_name()

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(QueryError):
            GenerationConfig(backend="duckdb")


class TestContract:
    def test_table_and_rows(self, backend, table):
        assert backend.table is table
        assert backend.n_rows == 6

    def test_distinct_values_sorted_non_null(self, backend):
        assert backend.distinct_values("region") == ("e", "n", "s")

    def test_scan_round_trip(self, backend, table):
        assert backend.scan() == table  # Table.__eq__ treats NaN == NaN
        assert backend.scan(["kind"]).to_dict() == {"kind": ["x", "y", "x", "y", "x", "y"]}

    def test_filter_equals(self, backend):
        filtered = backend.filter_equals("region", "s")
        assert filtered.n_rows == 2
        assert list(filtered.measure_values("amount")) == [3.0, 4.0]

    def test_aggregate_handles_nulls(self, backend):
        agg = backend.materialize_aggregate(("region",), ["amount"])
        summary = agg.summaries["amount"]
        by_code = dict(zip((int(c) for c in agg.keys[0]), summary.count))
        # NULL region forms its own group (code -1); NULL measure not counted.
        assert by_code[-1] == 1.0
        e_code = table_code(backend.table, "region", "e")
        assert by_code[e_code] == 0.0

    def test_evaluate_comparison(self, backend):
        query = ComparisonQuery("region", "kind", "x", "y", "amount", "sum")
        result = backend.evaluate_comparison(query)
        assert result.groups == ("n", "s")
        np.testing.assert_allclose(result.x, [1.0, 3.0])
        np.testing.assert_allclose(result.y, [2.0, 4.0])

    def test_capability_flags(self, backend):
        assert backend.capabilities.sql_pushdown == (backend.name == "sqlite")
        assert backend.capabilities.additive_summaries


def table_code(table, attribute, label):
    return table.categorical_column(attribute).code_of(label)


class TestStatementAccounting:
    def test_columnar_never_sends_statements(self, table):
        backend = ColumnarBackend(table)
        backend.distinct_values("region")
        backend.materialize_aggregate(("region", "kind"))
        backend.evaluate_comparison(ComparisonQuery("region", "kind", "x", "y", "amount", "avg"))
        assert backend.statements_executed == 0

    def test_sqlite_counts_each_statement(self, table):
        with SqliteBackend(table) as backend:
            assert backend.statements_executed == 0  # the load is not a query
            backend.distinct_values("region")
            backend.materialize_aggregate(("region", "kind"))
            # The comparison needs the same (region, kind) group-by; the
            # cross-stage aggregate cache serves it from the all-measure
            # materialization above, so no further statement is pushed down.
            backend.evaluate_comparison(
                ComparisonQuery("region", "kind", "x", "y", "amount", "avg")
            )
            assert backend.statements_executed == 2

    def test_sqlite_cache_saves_repeat_statements(self, table):
        with SqliteBackend(table) as backend:
            backend.materialize_aggregate(("region", "kind"), ["amount"])
            before = backend.statements_executed
            again = backend.materialize_aggregate(("kind", "region"), ["amount"])
            assert backend.statements_executed == before
            assert again is backend.materialize_aggregate(("region", "kind"), ["amount"])

    def test_sqlite_statement_counter_metric(self, table):
        with obs.capture() as (_, metrics):
            with SqliteBackend(table) as backend:
                backend.distinct_values("kind")
            assert metrics.counter("backend.statements_executed").value == 1

    def test_closed_backend_refuses_statements(self, table):
        backend = SqliteBackend(table)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(BackendError):
            backend.distinct_values("region")


class TestSqlIdentifierSafety:
    def test_reserved_and_spaced_names_round_trip(self):
        table = table_from_arrays(
            {"group": ["a", "b", "a"], "order by": ["u", "v", "u"]},
            {"select": [1.0, 2.0, 3.0]},
        )
        with SqliteBackend(table) as backend:
            assert backend.distinct_values("group") == ("a", "b")
            agg = backend.materialize_aggregate(("group", "order by"), ["select"])
            assert agg.n_groups == 2
            assert backend.filter_equals("group", "a").n_rows == 2

    @pytest.mark.parametrize("name", ["my table", "2021-data", "select", "naïve"])
    def test_table_names_that_are_not_plain_identifiers(self, table, name):
        with SqliteBackend(table, name) as backend:
            assert backend.distinct_values("kind") == ("x", "y")
            assert backend.materialize_aggregate(("region",), ["amount"]).n_groups == 4

    def test_load_failure_is_a_backend_error(self):
        # SQLite column names are case-insensitive: "A" and "a" collide.
        table = table_from_arrays({"A": ["x"], "a": ["y"]}, {"m": [1.0]})
        with pytest.raises(BackendError, match="duplicate column"):
            SqliteBackend(table)


class TestSqliteExecute:
    """Raw SQL text through :meth:`SqliteBackend.execute`."""

    def test_counts_statements_and_rejects_bad_sql(self, table):
        with SqliteBackend(table, "t") as backend:
            assert backend.execute("select count(*) from t") == [(6,)]
            assert backend.statements_executed == 1
            with pytest.raises(BackendError, match="sqlite rejected SQL"):
                backend.execute("select nope from t")
            assert backend.statements_executed == 1

    @pytest.mark.parametrize("agg", ["var", "stddev"])
    def test_sample_moments_match_aggregate_all(self, agg):
        values = [1.0, None, 4.0, 2.5, None, None]
        table = table_from_arrays({"g": ["a", "a", "a", "b", "c", "c"]}, {"m": values})
        with SqliteBackend(table, "t") as backend:
            rows = dict(backend.execute(f"select g, {agg}(m) from t group by g order by g"))
            ((overall,),) = backend.execute(f"select {agg}(m) from t")
        expected = aggregate_all(agg, np.array([np.nan if v is None else v for v in values]))
        assert overall == pytest.approx(expected, rel=1e-12)
        assert rows["a"] == pytest.approx(aggregate_all(agg, np.array([1.0, 4.0])), rel=1e-12)
        assert rows["b"] is None  # one non-NULL value: NULL, as ddof=1 gives NaN
        assert rows["c"] is None  # only NULLs


class TestPairwiseEvaluatorRace:
    def test_concurrent_same_pair_builds_once(self, monkeypatch):
        """The check-then-build race: N threads, one pair, one build."""
        rng = np.random.default_rng(7)
        n = 400
        table = table_from_arrays(
            {"a": rng.choice(["a0", "a1", "a2"], n), "b": rng.choice(["b0", "b1"], n)},
            {"m": rng.normal(0, 1, n)},
        )
        backend = ColumnarBackend(table)
        builds = []
        build_gate = threading.Barrier(8, timeout=10)
        original = ColumnarBackend.materialize_aggregate

        def counted(self, attributes, measures=None):
            builds.append(tuple(attributes))
            return original(self, attributes, measures)

        monkeypatch.setattr(ColumnarBackend, "materialize_aggregate", counted)
        evaluator = PairwiseEvaluator(backend)
        query = ComparisonQuery("a", "b", "b0", "b1", "m", "avg")
        errors = []

        def worker():
            try:
                build_gate.wait()
                evaluator.evaluate(query)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(builds) == 1
        assert evaluator.queries_sent == 1

    def test_failed_build_releases_reservation(self, table):
        backend = ColumnarBackend(table)
        evaluator = PairwiseEvaluator(backend)
        bad = ComparisonQuery("region", "missing", "x", "y", "amount", "avg")
        with pytest.raises(Exception):
            evaluator.evaluate(bad)
        # The key is released: a later good query on the same backend works.
        good = ComparisonQuery("region", "kind", "x", "y", "amount", "avg")
        assert evaluator.evaluate(good).n_groups > 0
