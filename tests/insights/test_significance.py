"""Unit tests for repro.insights.significance."""

import numpy as np
import pytest

from repro.errors import StatisticsError
from repro.insights import CandidateInsight, SignificanceConfig, enumerate_candidates, significant_insights
from repro.insights import run_attribute_significance as run_attribute_tests
from repro.insights import run_significance_tests as run_candidate_tests
from repro.relational import table_from_arrays
from repro.stats import derive_rng


@pytest.fixture
def planted():
    """group g1 has mean ~ +30 over g0/g2 on m1; g2 has 5x spread on m2."""
    rng = derive_rng(4242, "planted")
    n = 450
    g = rng.choice(["g0", "g1", "g2"], n)
    other = rng.choice(["o0", "o1"], n)
    m1 = rng.normal(50, 5, n) + np.where(g == "g1", 30.0, 0.0)
    m2 = rng.normal(0, 1, n) * np.where(g == "g2", 5.0, 1.0)
    return table_from_arrays({"g": g, "other": other}, {"m1": m1, "m2": m2})


class TestConfig:
    def test_engine_validated(self):
        with pytest.raises(StatisticsError):
            SignificanceConfig(engine="bayesian")

    def test_threshold_validated(self):
        with pytest.raises(StatisticsError):
            SignificanceConfig(threshold=1.5)

    @pytest.mark.parametrize("n_permutations", [0, -5])
    def test_n_permutations_validated(self, n_permutations):
        with pytest.raises(StatisticsError, match="n_permutations must be at least 1"):
            SignificanceConfig(n_permutations=n_permutations)


class TestTestCandidates:
    def test_planted_mean_insights_found(self, planted):
        results = significant_insights(planted, insight_types=["M"], measures=["m1"])
        keys = {r.candidate.key for r in results}
        assert ("m1", "g", "g1", "g0", "M") in keys
        assert ("m1", "g", "g1", "g2", "M") in keys

    def test_planted_variance_insight_found(self, planted):
        results = significant_insights(planted, insight_types=["V"], measures=["m2"])
        vals = {(r.candidate.val, r.candidate.val_other) for r in results
                if r.candidate.attribute == "g"}
        assert ("g2", "g0") in vals and ("g2", "g1") in vals

    def test_orientation_follows_observed_statistic(self, planted):
        candidates = [CandidateInsight("m1", "g", "g0", "g1", "M")]
        tested = run_candidate_tests(planted, candidates)
        assert tested[0].candidate.val == "g1"  # flipped toward dominance
        assert tested[0].statistic > 0

    def test_statistics_positive_after_orientation(self, planted):
        tested = run_candidate_tests(planted, enumerate_candidates(planted))
        assert all(t.statistic >= 0 or np.isnan(t.statistic) for t in tested)

    def test_no_false_positives_on_null_attribute(self, planted):
        """'other' carries no effect; BH should keep false discoveries low."""
        results = significant_insights(planted, attributes=["other"])
        assert len(results) <= 2  # a stray one can slip through, not many

    def test_bh_correction_reduces_significance(self, planted):
        with_bh = run_candidate_tests(planted, enumerate_candidates(planted))
        config = SignificanceConfig(apply_bh=False)
        without = run_candidate_tests(planted, enumerate_candidates(planted), config)
        by_key_no = {t.candidate.key: t for t in without}
        for t in with_bh:
            raw = by_key_no[t.candidate.key]
            assert t.p_adjusted >= raw.p_adjusted - 1e-12

    def test_parametric_engine(self, planted):
        config = SignificanceConfig(engine="parametric")
        results = [
            t
            for t in run_candidate_tests(planted, enumerate_candidates(planted, measures=["m1"]), config)
            if t.is_significant()
        ]
        keys = {r.candidate.key for r in results}
        assert ("m1", "g", "g1", "g0", "M") in keys

    def test_deterministic_given_seed(self, planted):
        config = SignificanceConfig(seed=11)
        one = run_candidate_tests(planted, enumerate_candidates(planted, measures=["m1"]), config)
        two = run_candidate_tests(planted, enumerate_candidates(planted, measures=["m1"]), config)
        assert [(t.candidate.key, t.p_value) for t in one] == [
            (t.candidate.key, t.p_value) for t in two
        ]

    def test_share_across_pairs_toggle_same_conclusions(self, planted):
        shared = SignificanceConfig(share_across_pairs=True, seed=5)
        fresh = SignificanceConfig(share_across_pairs=False, seed=5)
        ks = enumerate_candidates(planted, measures=["m1"], insight_types=["M"])
        candidates = list(ks)
        sig_shared = {t.candidate.key for t in run_candidate_tests(planted, candidates, shared)
                      if t.is_significant()}
        sig_fresh = {t.candidate.key for t in run_candidate_tests(planted, candidates, fresh)
                     if t.is_significant()}
        # Same planted effects must be detected either way.
        assert ("m1", "g", "g1", "g0", "M") in sig_shared
        assert ("m1", "g", "g1", "g0", "M") in sig_fresh

    def test_missing_value_candidates_dropped(self, planted):
        ghost = CandidateInsight("m1", "g", "ghost", "g0", "M")
        assert run_candidate_tests(planted, [ghost]) == []

    def test_unknown_measure_raises(self, planted):
        bad = CandidateInsight("nope", "g", "g0", "g1", "M")
        with pytest.raises(StatisticsError, match="unknown measure"):
            run_candidate_tests(planted, [bad])

    def test_progress_callback(self, planted):
        calls = []
        run_candidate_tests(
            planted,
            enumerate_candidates(planted, measures=["m1"], insight_types=["M"]),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls and calls[-1][0] == calls[-1][1]

    def test_progress_monotone_with_batched_kernel(self, planted):
        candidates = list(enumerate_candidates(planted, measures=["m1", "m2"]))
        calls = []
        run_candidate_tests(
            planted, candidates, SignificanceConfig(),
            progress=lambda done, total: calls.append((done, total)),
        )
        dones = [c[0] for c in calls]
        assert len(calls) >= 2                     # finer than one terminal tick
        assert dones == sorted(dones)
        assert calls[-1] == (len(candidates), len(candidates))

    def test_test_attribute_matches_full_run(self, planted):
        candidates = [
            c for c in enumerate_candidates(planted, measures=["m1"], insight_types=["M"])
            if c.attribute == "g"
        ]
        via_attr = run_attribute_tests(planted, "g", candidates)
        via_full = [
            t for t in run_candidate_tests(planted, candidates) if t.candidate.attribute == "g"
        ]
        assert {t.candidate.key for t in via_attr} == {t.candidate.key for t in via_full}


class TestFamilyChunks:
    def test_partition_preserves_order(self, planted):
        from repro.insights import family_chunks

        candidates = list(enumerate_candidates(planted, measures=["m1"]))
        chunks = family_chunks(candidates, 4)
        flattened = [c for chunk in chunks for c in chunk]
        assert flattened == candidates

    def test_pair_families_never_split(self, planted):
        from repro.insights import family_chunks

        candidates = list(enumerate_candidates(planted))
        for size in (1, 2, 5, 50):
            seen_pairs = set()
            for chunk in family_chunks(candidates, size):
                pairs_here = {
                    (c.attribute, c.pair_key) for c in chunk
                }
                # A pair family appearing in two chunks would split a batch.
                assert not (pairs_here & seen_pairs)
                seen_pairs |= pairs_here

    def test_chunk_size_validated(self, planted):
        from repro.insights import family_chunks

        with pytest.raises(StatisticsError):
            family_chunks([], 0)


class TestChunkInvariance:
    def test_chunked_equals_unchunked(self, planted):
        """Splitting an attribute's candidates into chunks and merging must
        give exactly the unchunked results (key-derived batches)."""
        from repro.insights import finalize_attribute, run_attribute_chunk

        candidates = [
            c for c in enumerate_candidates(planted, insight_types=["M"], measures=["m1"])
            if c.attribute == "g"
        ]
        whole = run_attribute_tests(planted, "g", candidates)
        oriented, results = [], []
        for start in range(0, len(candidates), 1):  # extreme: one per chunk
            o, r = run_attribute_chunk(planted, "g", candidates[start:start + 1])
            oriented.extend(o)
            results.extend(r)
        merged = finalize_attribute(oriented, results)
        assert [(t.candidate.key, t.p_value, t.p_adjusted) for t in whole] == [
            (t.candidate.key, t.p_value, t.p_adjusted) for t in merged
        ]
