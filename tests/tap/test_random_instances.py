"""Unit tests for repro.tap.random_instances."""

import numpy as np
import pytest

from repro.errors import TAPError
from repro.queries import query_distance
from repro.stats import derive_rng
from repro.tap import (
    random_comparison_queries,
    random_euclidean_instance,
    random_hamming_instance,
)


class TestEuclidean:
    def test_shapes_and_determinism(self):
        one = random_euclidean_instance(20, seed=1)
        two = random_euclidean_instance(20, seed=1)
        assert one.n == 20
        np.testing.assert_array_equal(one.distances, two.distances)
        np.testing.assert_array_equal(one.interests, two.interests)

    def test_seeds_differ(self):
        one = random_euclidean_instance(20, seed=1)
        two = random_euclidean_instance(20, seed=2)
        assert not np.array_equal(one.interests, two.interests)

    def test_uniform_cost_flag(self):
        uniform = random_euclidean_instance(10, seed=3)
        assert np.all(uniform.costs == 1.0)
        varied = random_euclidean_instance(10, seed=3, uniform_cost=False)
        assert not np.all(varied.costs == 1.0)

    def test_triangle_inequality_holds(self):
        inst = random_euclidean_instance(15, seed=4)
        d = inst.distances
        for i in range(15):
            for j in range(15):
                for k in range(15):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-9

    def test_invalid_size(self):
        with pytest.raises(TAPError):
            random_euclidean_instance(0, seed=1)


class TestHamming:
    def test_distances_match_production_metric(self):
        inst = random_hamming_instance(12, seed=5)
        for i in range(12):
            for j in range(12):
                expected = 0.0 if i == j else query_distance(inst.items[i], inst.items[j])
                assert inst.distances[i, j] == pytest.approx(expected)

    def test_queries_distinct(self):
        inst = random_hamming_instance(40, seed=6)
        keys = {q.key for q in inst.items}
        assert len(keys) == 40

    def test_interest_distribution_uniform_ish(self):
        inst = random_hamming_instance(300, seed=7)
        assert 0.4 < inst.interests.mean() < 0.6  # U(0,1) mean ~ 0.5

    def test_impossible_draw_raises(self):
        rng = derive_rng(1, "x")
        state = rng.bit_generator.state
        with pytest.raises(TAPError, match="distinct"):
            # Schema too small for that many distinct queries.
            random_comparison_queries(10_000, rng, n_attributes=2, n_values=2, n_measures=1,
                                      aggregates=("sum",))
        # Rejected before drawing anything.
        assert rng.bit_generator.state == state

    def test_whole_query_space_is_drawable(self):
        # 2 * 1 (attributes) * 2 * 1 (values) * 1 measure * 1 aggregate.
        rng = derive_rng(1, "x")
        queries = random_comparison_queries(4, rng, n_attributes=2, n_values=2,
                                            n_measures=1, aggregates=("sum",))
        assert len({q.key for q in queries}) == 4
        with pytest.raises(TAPError, match="holds only 4"):
            random_comparison_queries(5, rng, n_attributes=2, n_values=2,
                                      n_measures=1, aggregates=("sum",))

    def test_feasible_draw_keeps_its_rng_stream(self):
        rng = derive_rng(3, "z")
        queries = random_comparison_queries(4, rng, n_attributes=3, n_values=3)
        assert [q.key for q in queries] == [
            ("a0", "a1", "v2", "v1", "m0", "sum"),
            ("a0", "a1", "v0", "v2", "m1", "sum"),
            ("a1", "a2", "v0", "v1", "m1", "sum"),
            ("a2", "a0", "v2", "v1", "m1", "avg"),
        ]
        assert rng.random() == 0.01344628707563389

    def test_query_fields_within_schema(self):
        rng = derive_rng(2, "y")
        queries = random_comparison_queries(30, rng, n_attributes=4, n_values=5)
        for q in queries:
            assert q.group_by != q.selection_attribute
            assert q.val != q.val_other
