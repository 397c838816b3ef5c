"""Unit tests for the delta-aware stats planner (repro.stats.delta)."""

import dataclasses
import logging

import pytest

from repro.errors import ReproError
from repro.generation.config import GenerationConfig, SamplingSpec
from repro.insights.insight import CandidateInsight
from repro.parallel import ParallelConfig
from repro.relational import table_from_arrays
from repro.stats import delta
from repro.stats.delta import (
    StatsMemo,
    incremental_config_token,
    merge_attribute,
    plan_incremental,
    segment_families,
    split_families,
)
from repro.stats.permutation import TestResult as Result


def cand(val, other, measure="m", type_code="M", attribute="a"):
    return CandidateInsight(measure, attribute, val, other, type_code)


def with_significance(config, **changes):
    return dataclasses.replace(
        config,
        significance=dataclasses.replace(config.significance, **changes),
    )


# Two families over attribute 'a': (x, y) with both orientations × 2 types,
# and (x, z) with a single candidate.
FAMILY_XY = (
    cand("x", "y"), cand("y", "x"), cand("x", "y", type_code="V"),
)
FAMILY_XZ = (cand("x", "z"),)
CANDIDATES = FAMILY_XY + FAMILY_XZ


class TestConfigToken:
    def test_stable_across_equivalent_configs(self):
        one = GenerationConfig()
        # Backend and parallelism are row-level-invariant: the token must
        # not move, or appends could never reuse a memo.
        two = dataclasses.replace(one, backend="sqlite")
        assert incremental_config_token(one) == incremental_config_token(two)
        # A resumed stats-partial memo must serve any worker count.
        three = dataclasses.replace(one, parallel=ParallelConfig(workers=2))
        assert incremental_config_token(one) == incremental_config_token(three)

    def test_token_matches_memos_written_before_the_kernel_switch_went(
        self, monkeypatch
    ):
        """The payload keeps its constant ``"kernel": "batched"`` entry, so
        memos persisted while the switch existed are still reused."""
        for name in ("REPRO_BACKEND", "REPRO_WORKERS"):
            monkeypatch.delenv(name, raising=False)
        assert incremental_config_token(GenerationConfig()) == "04d9a7cf282bae35"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: dataclasses.replace(c, insight_types=("M",)),
            lambda c: dataclasses.replace(c, max_pairs_per_attribute=3),
            lambda c: dataclasses.replace(
                c, sampling=SamplingSpec("random", 0.5)
            ),
            lambda c: with_significance(c, n_permutations=77),
            lambda c: with_significance(c, seed=1),
            lambda c: with_significance(c, threshold=0.9),
            lambda c: with_significance(c, engine="parametric"),
            lambda c: with_significance(c, share_across_pairs=False),
        ],
    )
    def test_sensitive_to_result_shaping_fields(self, mutate):
        base = GenerationConfig()
        assert incremental_config_token(base) != incremental_config_token(
            mutate(base)
        )


class TestSplitFamilies:
    def test_contiguous_runs_cut_at_pair_boundaries(self):
        families = split_families(CANDIDATES)
        assert [key for key, _ in families] == [
            ("a", frozenset({"x", "y"})),
            ("a", frozenset({"x", "z"})),
        ]
        assert families[0][1] == FAMILY_XY
        assert families[1][1] == FAMILY_XZ

    def test_empty(self):
        assert split_families(()) == []


class TestSegmentFamilies:
    def test_round_trip_with_dropped_candidates(self):
        # The runner dropped the middle candidate of family one (unusable
        # sample); segmentation must still attribute results correctly.
        oriented = (CANDIDATES[0], CANDIDATES[2], CANDIDATES[3])
        results = tuple(Result(float(i), 0.1 * i) for i in range(3))
        records = segment_families(CANDIDATES, oriented, results)
        assert [len(r.results) for r in records] == [2, 1]
        assert records[0].oriented == (CANDIDATES[0], CANDIDATES[2])
        assert records[1].results == (results[2],)

    def test_orientation_flip_still_matches(self):
        flipped = (cand("y", "x"), cand("z", "x"))
        records = segment_families(
            (cand("x", "y"), cand("x", "z")),
            flipped,
            (Result(1.0, 0.5), Result(2.0, 0.25)),
        )
        assert [r.oriented for r in records] == [(flipped[0],), (flipped[1],)]

    def test_orphan_results_rejected(self):
        with pytest.raises(ReproError, match="orphan"):
            segment_families(
                FAMILY_XZ,
                (cand("x", "z"), cand("q", "r", measure="other")),
                (Result(1.0, 0.5), Result(2.0, 0.25)),
            )


def make_memo(config, families=None):
    if families is None:
        records = segment_families(
            CANDIDATES,
            CANDIDATES,
            tuple(Result(float(i), 0.01 * i) for i in range(len(CANDIDATES))),
        )
        families = {"a": records}
    return StatsMemo(
        "100-abc", 100, incremental_config_token(config), families
    )


WORK = [("a", None, list(CANDIDATES))]


def table_of(n_rows=100, appended=()):
    """``n_rows`` rows over the values x, y, z of ``a``, then ``appended``."""
    labels = [("x", "y", "z")[i % 3] for i in range(n_rows)] + list(appended)
    return table_from_arrays({"a": labels}, {"m": [float(i) for i in range(len(labels))]})


def assert_all_dirty(plan):
    assert not plan.served
    assert plan.skipped == 0 and plan.retested == 2
    assert plan.dirty_work == WORK
    assert all(record is None for _, _, record in plan.order["a"])


class TestPlanIncremental:
    def test_clean_and_dirty_classification(self):
        config = GenerationConfig()
        memo = make_memo(config)
        plan = plan_incremental(memo, WORK, table_of(appended=("z",)), config)
        assert plan.served
        assert plan.skipped == 1 and plan.retested == 1
        entries = plan.order["a"]
        assert entries[0][2] is not None  # (x, y) untouched -> clean
        assert entries[1][2] is None  # (x, z) contains dirty 'z'
        assert plan.dirty_work == [("a", None, list(FAMILY_XZ))]
        assert entries[0][2] is memo.families["a"][0]

    def test_no_dirty_values_skips_everything(self):
        config = GenerationConfig()
        plan = plan_incremental(make_memo(config), WORK, table_of(), config)
        assert plan.skipped == 2 and plan.retested == 0
        assert plan.dirty_work == []

    def test_changed_candidate_list_is_dirty(self):
        # A new value pair appears in the enumeration (e.g. appended rows
        # introduced a label): no stored record -> dirty.
        config = GenerationConfig()
        memo = make_memo(config)
        new_family = (cand("x", "w"),)
        work = [("a", None, list(CANDIDATES + new_family))]
        plan = plan_incremental(memo, work, table_of(), config)
        assert plan.retested == 1
        assert plan.dirty_work == [("a", None, list(new_family))]

    def test_no_memo_is_an_all_dirty_plan(self, caplog, monkeypatch):
        # A cold run reads no appended rows and logs nothing.
        monkeypatch.setattr(delta, "touched_labels", None)
        with caplog.at_level(logging.WARNING):
            plan = plan_incremental(None, WORK, table_of(), GenerationConfig())
        assert_all_dirty(plan)
        assert not caplog.records

    def test_sampling_falls_back(self, caplog, monkeypatch):
        config = GenerationConfig()
        sampled = dataclasses.replace(config, sampling=SamplingSpec("random", 0.5))
        monkeypatch.setattr(delta, "touched_labels", None)
        with caplog.at_level(logging.WARNING):
            plan = plan_incremental(make_memo(config), WORK, table_of(), sampled)
        assert_all_dirty(plan)
        assert "offline sampling re-draws rows" in caplog.text

    def test_sampling_is_served_at_the_memo_version(self, caplog):
        """A sample drawn at the same version is identical (a resumed run)."""
        sampled = dataclasses.replace(
            GenerationConfig(), sampling=SamplingSpec("random", 0.5)
        )
        memo = make_memo(sampled)
        plan = plan_incremental(memo, WORK, table_of(), sampled, memo.version)
        assert plan.served and plan.skipped == 2
        with caplog.at_level(logging.WARNING):
            plan = plan_incremental(memo, WORK, table_of(), sampled, "100-other")
        assert_all_dirty(plan)
        assert "offline sampling re-draws rows" in caplog.text

    def test_unshared_permutations_are_planned(self):
        """Fresh batches are keyed by candidate, so a family subset re-tests
        to the same results: the memo serves them like shared batches."""
        config = with_significance(GenerationConfig(), share_across_pairs=False)
        plan = plan_incremental(make_memo(config), WORK, table_of(), config)
        assert plan.served and plan.skipped == 2

    def test_config_token_mismatch_falls_back(self, caplog, monkeypatch):
        config = GenerationConfig()
        changed = with_significance(config, n_permutations=999)
        monkeypatch.setattr(delta, "touched_labels", None)
        with caplog.at_level(logging.WARNING):
            plan = plan_incremental(make_memo(config), WORK, table_of(), changed)
        assert_all_dirty(plan)
        assert "config token" in caplog.text

    def test_memo_larger_than_table_falls_back(self, caplog, monkeypatch):
        config = GenerationConfig()
        monkeypatch.setattr(delta, "touched_labels", None)
        with caplog.at_level(logging.WARNING):
            plan = plan_incremental(make_memo(config), WORK, table_of(60), config)
        assert_all_dirty(plan)
        assert "memo covers 100 rows but the table holds only 60" in caplog.text


class TestMergeAttribute:
    def test_merged_sequence_matches_cold_order(self):
        config = GenerationConfig()
        memo = make_memo(config)
        plan = plan_incremental(memo, WORK, table_of(appended=("z",)), config)
        fresh_result = Result(9.0, 0.009)
        oriented, results, records = merge_attribute(
            plan, "a", (list(FAMILY_XZ), [fresh_result])
        )
        # Clean family served verbatim from the memo, dirty family spliced
        # from the fresh raw output, in enumeration order.
        assert tuple(oriented) == CANDIDATES
        assert results[:3] == list(memo.families["a"][0].results)
        assert results[3] == fresh_result
        assert [r.pair_key for r in records] == [
            ("a", frozenset({"x", "y"})),
            ("a", frozenset({"x", "z"})),
        ]

    def test_all_dirty_plan_passes_the_fresh_output_through(self):
        plan = plan_incremental(None, WORK, table_of(), GenerationConfig())
        fresh = tuple(Result(float(i), 0.1 * i) for i in range(len(CANDIDATES)))
        oriented, results, records = merge_attribute(
            plan, "a", (list(CANDIDATES), list(fresh))
        )
        assert tuple(oriented) == CANDIDATES and tuple(results) == fresh
        assert records == segment_families(CANDIDATES, CANDIDATES, fresh)


class TestMemoSerialization:
    def test_json_round_trip(self):
        memo = make_memo(GenerationConfig())
        clone = StatsMemo.from_dict(memo.to_dict())
        assert clone.version == memo.version
        assert clone.n_rows == memo.n_rows
        assert clone.token == memo.token
        assert clone.families == memo.families

    def test_unsupported_schema_version_rejected(self):
        data = make_memo(GenerationConfig()).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ReproError, match="version"):
            StatsMemo.from_dict(data)

    def test_empty_family_rejected(self):
        data = make_memo(GenerationConfig()).to_dict()
        data["families"]["a"][0]["candidates"] = []
        with pytest.raises(ReproError, match="empty"):
            StatsMemo.from_dict(data)
