"""Unit/integration tests for the Algorithm 1 core (repro.generation.generator)."""


import numpy as np
import pytest

from repro.generation import GenerationConfig, SamplingSpec, generate_comparison_queries
from repro.parallel import ParallelConfig
from repro.insights import insight_type
from repro.queries import evaluate_comparison
from repro.relational import table_from_arrays
from repro.stats import derive_rng


@pytest.fixture(scope="module")
def planted():
    """b0 dominates on m; country->region FD planted; 4 categoricals."""
    rng = derive_rng(808, "generator")
    n = 500
    b = rng.choice(["b0", "b1", "b2"], n)
    region_of = {"c0": "r0", "c1": "r0", "c2": "r1", "c3": "r1"}
    country = rng.choice(list(region_of), n)
    region = np.array([region_of[c] for c in country])
    other = rng.choice(["o0", "o1"], n)
    m = (
        rng.normal(20, 3, n)
        + np.where(b == "b0", 15.0, 0.0)
        + np.where(region == "r0", 8.0, 0.0)  # gives region/country insights too
        # Interaction: the b0 effect reverses under other=o1, so not every
        # grouping attribute supports every insight (partial credibility).
        + np.where((b == "b0") & (other == "o1"), -18.0, 0.0)
    )
    return table_from_arrays(
        {"b": b, "country": country, "region": region, "other": other}, {"m": m}
    )


@pytest.fixture(scope="module")
def outcome(planted):
    return generate_comparison_queries(planted, GenerationConfig())


class TestOutcomeStructure:
    def test_queries_sorted_by_interest(self, outcome):
        interests = [g.interest for g in outcome.queries]
        assert interests == sorted(interests, reverse=True)

    def test_planted_insight_represented(self, outcome):
        evidence_keys = {g.query.evidence_key for g in outcome.queries}
        assert any(k[0] == "b" for k in evidence_keys)
        assert any(k[0] == "region" and {k[1], k[2]} == {"r0", "r1"} for k in evidence_keys)

    def test_every_query_supports_an_insight(self, outcome):
        assert all(g.supported for g in outcome.queries)

    def test_dedup_unique_keys(self, outcome):
        keys = [g.query.dedup_key for g in outcome.queries]
        assert len(keys) == len(set(keys))

    def test_counters_present_and_consistent(self, outcome):
        c = outcome.counters
        assert c["insights_tested"] >= c["insights_significant"] >= c["insights_after_pruning"]
        assert c["queries_supported"] >= c["queries_final"] == len(outcome.queries)

    def test_timings_populated(self, outcome):
        t = outcome.timings
        assert t.statistical_tests > 0
        assert t.hypothesis_evaluation > 0
        assert t.generation_total == pytest.approx(
            t.preprocessing + t.sampling + t.statistical_tests + t.hypothesis_evaluation
        )

    def test_supported_insights_actually_supported(self, planted, outcome):
        """Re-check every retained query's claims against base data."""
        for g in outcome.queries[:20]:
            result = evaluate_comparison(planted, g.query)
            for evidence in g.supported:
                itype = insight_type(evidence.insight.candidate.type_code)
                cand = evidence.insight.candidate
                if cand.val == g.query.val:
                    assert itype.supports(result.x, result.y)
                else:
                    assert itype.supports(result.y, result.x)

    def test_credibility_within_bounds(self, outcome):
        for evidence in outcome.evidences.values():
            assert 0 <= evidence.n_supporting <= evidence.n_postulating


class TestFDExclusion:
    def test_fd_pair_never_used(self, planted):
        outcome = generate_comparison_queries(planted, GenerationConfig())
        for g in outcome.queries:
            pair = {g.query.group_by, g.query.selection_attribute}
            assert pair != {"country", "region"}

    def test_fd_exclusion_can_be_disabled(self, planted):
        """Without FD exclusion, more hypothesis queries are evaluated
        (the FD-related grouping attribute is back in play)."""
        with_fd = generate_comparison_queries(planted, GenerationConfig())
        without = generate_comparison_queries(
            planted, GenerationConfig(exclude_functional_dependencies=False)
        )
        assert (
            without.counters["hypothesis_queries_evaluated"]
            > with_fd.counters["hypothesis_queries_evaluated"]
        )


class TestConfigurationVariants:
    def test_evaluators_give_same_query_set(self, planted):
        keys = []
        for evaluator in ("naive", "pairwise", "setcover"):
            config = GenerationConfig(evaluator=evaluator)
            outcome = generate_comparison_queries(planted, config)
            keys.append({g.query.key for g in outcome.queries})
        assert keys[0] == keys[1] == keys[2]

    def test_sampling_reduces_tested_insights(self, planted):
        full = generate_comparison_queries(planted, GenerationConfig())
        sampled = generate_comparison_queries(
            planted, GenerationConfig(sampling=SamplingSpec("random", 0.2))
        )
        assert sampled.counters["insights_tested"] <= full.counters["insights_tested"]

    def test_unbalanced_sampling_runs(self, planted):
        config = GenerationConfig(sampling=SamplingSpec("unbalanced", 0.2))
        outcome = generate_comparison_queries(planted, config)
        assert outcome.counters["insights_tested"] > 0

    def test_transitivity_pruning_reduces_insights(self, planted):
        pruned = generate_comparison_queries(planted, GenerationConfig())
        unpruned = generate_comparison_queries(
            planted, GenerationConfig(prune_transitive=False)
        )
        assert (
            pruned.counters["insights_after_pruning"]
            <= unpruned.counters["insights_after_pruning"]
        )

    def test_single_aggregate(self, planted):
        config = GenerationConfig(aggregates=("avg",))
        outcome = generate_comparison_queries(planted, config)
        assert all(g.query.agg == "avg" for g in outcome.queries)

    def test_progress_messages(self, planted):
        messages = []
        generate_comparison_queries(planted, GenerationConfig(), progress=messages.append)
        assert any("significant" in m for m in messages)

    def test_config_validation(self):
        with pytest.raises(Exception):
            GenerationConfig(aggregates=())
        with pytest.raises(Exception):
            GenerationConfig(evaluator="quantum")
        with pytest.raises(Exception):
            GenerationConfig(parallel=ParallelConfig(workers=0))
        with pytest.raises(Exception):
            SamplingSpec("stratified", 0.5)
        with pytest.raises(Exception):
            SamplingSpec("random", 1.5)


class TestParallelBackends:
    def test_process_backend_identical_results(self, planted):
        serial = generate_comparison_queries(
            planted, GenerationConfig(parallel=ParallelConfig(workers=1))
        )
        procs = generate_comparison_queries(
            planted, GenerationConfig(parallel=ParallelConfig(workers=2))
        )
        assert {g.query.key for g in serial.queries} == {g.query.key for g in procs.queries}
        by_key_s = {g.query.key: g.interest for g in serial.queries}
        by_key_p = {g.query.key: g.interest for g in procs.queries}
        for key, interest in by_key_s.items():
            assert by_key_p[key] == pytest.approx(interest)
