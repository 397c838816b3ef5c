"""Unit + statistical tests for repro.stats.permutation."""

import numpy as np
import pytest

from repro.errors import StatisticsError
from repro.stats import (
    SharedPermutations,
    derive_rng,
    mean_difference,
    permutation_mean_greater,
    permutation_variance_greater,
    variance_difference,
)


@pytest.fixture
def prng():
    return derive_rng(999, "perm-tests")


class TestStatistics:
    def test_mean_difference_signed(self):
        assert mean_difference(np.array([3.0, 5.0]), np.array([1.0, 1.0])) == 3.0
        assert mean_difference(np.array([0.0]), np.array([2.0])) == -2.0

    def test_variance_difference(self):
        x = np.array([0.0, 10.0])
        y = np.array([5.0, 5.0])
        assert variance_difference(x, y) == pytest.approx(50.0)

    def test_variance_difference_undefined_single_point(self):
        assert np.isnan(variance_difference(np.array([1.0]), np.array([1.0, 2.0])))


class TestSharedPermutations:
    def test_shapes(self, prng):
        batch = SharedPermutations(10, 15, 50, prng)
        assert batch.x_indices.shape == (50, 10)
        assert batch.complement_indices().shape == (50, 15)
        assert batch.n_permutations == 50

    def test_each_row_is_a_permutation(self, prng):
        batch = SharedPermutations(4, 3, 20, prng)
        complements = batch.complement_indices()
        for i in range(20):
            combined = np.concatenate([batch.x_indices[i], complements[i]])
            assert sorted(combined.tolist()) == list(range(7))

    def test_membership_mask_matches_x_indices(self, prng):
        batch = SharedPermutations(6, 9, 25, prng)
        mask = batch.membership_mask()
        assert mask.shape == (25, 15)
        assert mask.dtype == np.float64
        assert np.all(mask.sum(axis=1) == 6.0)
        for i in range(25):
            assert set(np.nonzero(mask[i])[0].tolist()) == set(batch.x_indices[i].tolist())

    def test_invalid_sizes(self, prng):
        with pytest.raises(StatisticsError):
            SharedPermutations(0, 5, 10, prng)
        with pytest.raises(StatisticsError):
            SharedPermutations(5, 5, 0, prng)

    def test_size_mismatch_detected(self, prng):
        batch = SharedPermutations(3, 3, 10, prng)
        with pytest.raises(StatisticsError, match="do not match"):
            batch.mean_greater(np.ones(4), np.ones(3))

    def test_nan_input_rejected_via_size_check(self, prng):
        batch = SharedPermutations(3, 3, 10, prng)
        with pytest.raises(StatisticsError):
            batch.mean_greater(np.array([1.0, 2.0, np.nan]), np.ones(3))


class TestPValueBehaviour:
    def test_strong_effect_small_p(self, prng):
        x = prng.normal(5, 1, 100)
        y = prng.normal(0, 1, 100)
        result = permutation_mean_greater(x, y, 200, prng)
        assert result.p_value <= 1.0 / 100
        assert result.significance >= 0.99

    def test_wrong_direction_large_p(self, prng):
        x = prng.normal(0, 1, 100)
        y = prng.normal(5, 1, 100)
        result = permutation_mean_greater(x, y, 200, prng)
        assert result.p_value > 0.9

    def test_null_p_roughly_uniform(self, prng):
        """Under H0 the p-value must be ~ Uniform(0,1): check the mean."""
        ps = []
        for i in range(60):
            x = prng.normal(0, 1, 30)
            y = prng.normal(0, 1, 30)
            ps.append(permutation_mean_greater(x, y, 99, prng).p_value)
        assert 0.3 < np.mean(ps) < 0.7

    def test_p_never_zero(self, prng):
        x = np.arange(100.0) + 1000.0
        y = np.arange(100.0)
        result = permutation_mean_greater(x, y, 200, prng)
        assert result.p_value >= 1.0 / 201

    def test_variance_test_detects_spread(self, prng):
        x = prng.normal(0, 5, 150)
        y = prng.normal(0, 1, 150)
        result = permutation_variance_greater(x, y, 200, prng)
        assert result.p_value < 0.05

    def test_variance_undefined_gives_p_one(self, prng):
        batch = SharedPermutations(1, 3, 10, prng)
        result = batch.variance_greater(np.array([1.0]), np.array([1.0, 2.0, 3.0]))
        assert result.p_value == 1.0

    def test_nans_stripped_by_wrappers(self, prng):
        x = np.array([5.0, np.nan, 6.0, 7.0])
        y = np.array([1.0, 2.0, np.nan])
        result = permutation_mean_greater(x, y, 50, prng)
        assert result.statistic == pytest.approx(6.0 - 1.5)

    def test_empty_side_rejected(self, prng):
        with pytest.raises(StatisticsError, match="non-empty"):
            permutation_mean_greater(np.array([np.nan]), np.array([1.0]), 50, prng)

    def test_determinism_with_same_rng_seed(self):
        x = np.arange(20.0)
        y = np.arange(20.0) + 0.5
        one = permutation_mean_greater(x, y, 100, derive_rng(7, "a"))
        two = permutation_mean_greater(x, y, 100, derive_rng(7, "a"))
        assert one.p_value == two.p_value

    def test_shared_batch_consistent_across_measures(self, prng):
        """The same batch must be reusable for several measures."""
        batch = SharedPermutations(20, 20, 100, prng)
        m1_x, m1_y = prng.normal(3, 1, 20), prng.normal(0, 1, 20)
        m2_x, m2_y = prng.normal(0, 1, 20), prng.normal(0, 1, 20)
        r1 = batch.mean_greater(m1_x, m1_y)
        r2 = batch.mean_greater(m2_x, m2_y)
        assert r1.p_value < 0.05
        assert 0.0 < r2.p_value <= 1.0
        # Re-running on the same batch is deterministic.
        assert batch.mean_greater(m1_x, m1_y).p_value == r1.p_value


def argsort_reference_mask(uniforms: np.ndarray, n_x: int) -> np.ndarray:
    """The classic shuffle: X is the first ``n_x`` argsort positions per row."""
    order = np.argsort(uniforms, axis=1)
    mask = np.zeros(uniforms.shape, dtype=bool)
    for row, chosen in enumerate(order[:, :n_x]):
        mask[row, chosen] = True
    return mask


class TiedGenerator:
    """A stand-in Generator that returns fixed uniforms, to plant ties."""

    def __init__(self, rows: list[list[float]]):
        self.uniforms = np.array(rows, dtype=np.float64)

    def random(self, shape):
        assert shape == self.uniforms.shape
        return self.uniforms.copy()


EDGE_SHAPES = [
    (1, 1, 5), (1, 9, 40), (9, 1, 40), (1, 2999, 3), (2999, 1, 3),
    (5, 5, 1), (250, 750, 1), (17, 40, 33), (1000, 2000, 7), (1499, 1500, 2),
]


class TestSelectedMask:
    @pytest.mark.parametrize("n_x,n_y,n_permutations", EDGE_SHAPES)
    def test_mask_equals_argsort_reference(self, n_x, n_y, n_permutations):
        seed_keys = (n_x, n_y, n_permutations)
        batch = SharedPermutations(
            n_x, n_y, n_permutations, derive_rng(5, "mask", *seed_keys)
        )
        uniforms = derive_rng(5, "mask", *seed_keys).random(
            (n_permutations, n_x + n_y)
        )
        np.testing.assert_array_equal(batch.member, argsort_reference_mask(uniforms, n_x))

    def test_totals_from_two_to_three_thousand(self):
        for total in [*range(2, 200), *range(200, 3001, 140)]:
            for n_x in {1, total // 2 or 1, total - 1}:
                rng_args = (11, "totals", total, n_x)
                batch = SharedPermutations(n_x, total - n_x, 3, derive_rng(*rng_args))
                uniforms = derive_rng(*rng_args).random((3, total))
                expected = argsort_reference_mask(uniforms, n_x)
                assert np.array_equal(batch.member, expected), (total, n_x)

    def test_stored_mask_is_bool_and_float_view_matches(self, prng):
        batch = SharedPermutations(7, 12, 30, prng)
        assert batch.member.dtype == np.bool_
        assert batch.member.shape == (30, 19)
        mask = batch.membership_mask()
        assert mask.dtype == np.float64 and mask.flags.c_contiguous
        np.testing.assert_array_equal(mask, batch.member.astype(np.float64))

    @pytest.mark.parametrize("n_x,n_y,n_permutations", EDGE_SHAPES)
    def test_indices_partition_every_row(self, n_x, n_y, n_permutations, prng):
        batch = SharedPermutations(n_x, n_y, n_permutations, prng)
        x_side = batch.x_indices
        y_side = batch.complement_indices()
        assert x_side.shape == (n_permutations, n_x)
        assert y_side.shape == (n_permutations, n_y)
        everything = np.arange(n_x + n_y)
        for row in range(n_permutations):
            combined = np.sort(np.concatenate([x_side[row], y_side[row]]))
            np.testing.assert_array_equal(combined, everything)
            assert batch.member[row, x_side[row]].all()

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        """Records every call of the argsort fallback."""
        from repro.stats import permutation

        calls = []
        real = permutation._argsort_membership
        monkeypatch.setattr(
            permutation, "_argsort_membership",
            lambda *args: calls.append(args) or real(*args),
        )
        return calls

    def test_selection_never_falls_back_without_ties(self, prng, fallback_calls):
        SharedPermutations(300, 700, 50, prng)
        assert fallback_calls == []

    def test_tie_at_the_cut_falls_back_to_argsort(self, fallback_calls):
        rows = [
            [0.5, 0.9, 0.5, 0.1, 0.7],  # 2nd and 3rd smallest tie at 0.5
            [0.2, 0.4, 0.6, 0.8, 0.3],  # no tie
        ]
        batch = SharedPermutations(2, 3, 2, TiedGenerator(rows))
        assert len(fallback_calls) == 1
        expected = argsort_reference_mask(np.array(rows), 2)
        np.testing.assert_array_equal(batch.member, expected)
        assert np.count_nonzero(batch.member, axis=1).tolist() == [2, 2]
        assert batch.member[0, 3] and not batch.member[0, 1]
        assert batch.member[1].tolist() == [True, False, False, False, True]

    def test_tie_below_the_cut_needs_no_fallback(self, fallback_calls):
        rows = [[0.1, 0.1, 0.6, 0.3, 0.9]]
        batch = SharedPermutations(3, 2, 1, TiedGenerator(rows))
        assert fallback_calls == []
        assert batch.member[0].tolist() == [True, True, False, True, False]
