"""Delta-aware statistical testing: re-test only dirty pair families.

An appended row block only changes the test inputs of attribute *values*
it contains: for any other value, the row set selected by
``attribute = value`` is untouched, and a permutation batch depends only
on the two sample sizes (never on the table size), so the stored raw test
result is *bit-identical* to what a cold re-run would produce.  This
module turns that invariant into an incremental stats stage:

* :class:`StatsMemo` — the raw (pre-BH) per-family test results of a
  completed stats stage, keyed by the table-version token they were
  computed against and an :func:`incremental_config_token` fingerprint;
* :func:`plan_incremental` — given a memo and the new enumeration,
  classify every pair family as *clean* (stored results reusable) or
  *dirty* (contains a touched value, or its candidate list changed);
* :func:`merge_attribute` — splice stored clean slices and freshly
  re-tested dirty slices back into enumeration order, ready for the
  per-attribute Benjamini–Hochberg correction.

Because the merged raw sequence is element-for-element identical to a
cold run's, the corrected results — and every downstream artifact up to
the rendered notebook — are byte-identical.  ``stats.partitions_skipped``
counts the clean families that were served from the memo.

The memo serializes to JSON (:meth:`StatsMemo.to_dict`) so the CLI
checkpoint can carry it across processes.  One memo serves both reuses:
``--since-checkpoint`` over an appended table, and ``--resume`` of a run
killed mid-stage, whose ``stats-partial`` checkpoint is the memo of the
families completed so far at the table's own version (nothing is dirty,
the missing families are re-tested).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ReproError
from repro.insights.insight import CandidateInsight
from repro.stats.permutation import TestResult

logger = logging.getLogger(__name__)

__all__ = [
    "FamilyRecord",
    "IncrementalPlan",
    "IncrementalRequest",
    "StatsMemo",
    "incremental_config_token",
    "merge_attribute",
    "plan_incremental",
    "segment_families",
    "split_families",
]

#: Version of the serialized memo format.
MEMO_VERSION = 1

PairKey = tuple[str, frozenset]


def incremental_config_token(config) -> str:
    """Fingerprint of everything that shapes raw per-family test results.

    The one config fingerprint of stored test results: it guards a memo
    reused across appends (``--since-checkpoint``, ``Session.generate(
    since=)``) and a memo resumed mid-stage (``stats-partial``).  The data
    is guarded separately, by the memo's content version.  It deliberately
    excludes the row count (the whole point is reuse across appends), the
    backend (tests are row-level and backend-independent), and the worker
    count and chunk size (results are chunk-invariant).  Any drift in these
    fields makes the memo silently unusable — the stage falls back to a
    full run.
    """
    significance = config.significance
    payload = {
        "insight_types": list(config.insight_types),
        "max_pairs_per_attribute": config.max_pairs_per_attribute,
        "sampling": (
            [config.sampling.strategy, config.sampling.rate]
            if config.sampling is not None else None
        ),
        "significance": {
            "n_permutations": significance.n_permutations,
            "threshold": significance.threshold,
            "engine": significance.engine,
            "apply_bh": significance.apply_bh,
            "share_across_pairs": significance.share_across_pairs,
            "seed": significance.seed,
            # Constant since the legacy kernel was removed; kept so memos
            # written before then still match.
            "kernel": "batched",
        },
    }
    digest = hashlib.blake2s(
        json.dumps(payload, sort_keys=True).encode("utf-8"), digest_size=8
    )
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class FamilyRecord:
    """One pair family's enumeration and raw (uncorrected) test results.

    ``candidates`` is the family's slice of the enumeration (unoriented,
    in enumeration order); ``oriented`` / ``results`` the matching raw
    output of :func:`~repro.insights.significance.run_attribute_chunk`
    (candidates whose samples were unusable are absent, exactly as the
    runner dropped them).
    """

    pair_key: PairKey
    candidates: tuple[CandidateInsight, ...]
    oriented: tuple[CandidateInsight, ...]
    results: tuple[TestResult, ...]

    @property
    def values(self) -> frozenset:
        return self.pair_key[1]


def split_families(
    candidates: Sequence[CandidateInsight],
) -> list[tuple[PairKey, tuple[CandidateInsight, ...]]]:
    """Contiguous pair families of an enumeration, in order.

    Enumeration yields all candidates of a selection pair contiguously;
    this is the same boundary :func:`~repro.insights.significance
    .family_chunks` cuts at.
    """
    families: list[tuple[PairKey, tuple[CandidateInsight, ...]]] = []
    current: list[CandidateInsight] = []
    for candidate in candidates:
        if current and candidate.pair_key != current[-1].pair_key:
            families.append((current[-1].pair_key, tuple(current)))
            current = []
        current.append(candidate)
    if current:
        families.append((current[-1].pair_key, tuple(current)))
    return families


def _matches(oriented: CandidateInsight, candidate: CandidateInsight) -> bool:
    """Does this raw result belong to this candidate (orientation may flip)?"""
    return (
        oriented.measure == candidate.measure
        and oriented.type_code == candidate.type_code
        and oriented.attribute == candidate.attribute
        and {oriented.val, oriented.val_other} == {candidate.val, candidate.val_other}
    )


def segment_families(
    candidates: Sequence[CandidateInsight],
    oriented: Sequence[CandidateInsight],
    results: Sequence[TestResult],
) -> list[FamilyRecord]:
    """Cut a raw attribute result back into per-family records.

    The runner emits results in candidate order, dropping unusable
    candidates; walking both sequences in lock-step re-attributes every
    result to its family (a result can only match its own candidate —
    ``(measure, type, pair)`` is unique within an attribute).
    """
    records: list[FamilyRecord] = []
    j = 0
    for pair_key, family in split_families(candidates):
        start = j
        for candidate in family:
            if j < len(oriented) and _matches(oriented[j], candidate):
                j += 1
        records.append(
            FamilyRecord(
                pair_key, family, tuple(oriented[start:j]), tuple(results[start:j])
            )
        )
    if j != len(oriented):
        raise ReproError(
            f"raw stats results do not segment: {len(oriented) - j} orphan "
            "result(s) past the enumerated families"
        )
    return records


@dataclass(slots=True)
class StatsMemo:
    """Raw per-family results of one completed stats stage.

    Attributes
    ----------
    version:
        Content-version token of the table the results were computed on.
    n_rows:
        Row count of that table version (the delta boundary for the next
        incremental run).
    token:
        :func:`incremental_config_token` of the producing configuration.
    families:
        Per attribute, the family records in enumeration order.
    """

    version: str
    n_rows: int
    token: str
    families: dict[str, list[FamilyRecord]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready snapshot (floats round-trip exactly)."""

        def candidate_dict(c: CandidateInsight) -> dict:
            return {
                "measure": c.measure,
                "attribute": c.attribute,
                "val": c.val,
                "val_other": c.val_other,
                "type": c.type_code,
            }

        attributes = {}
        for attribute, records in self.families.items():
            attributes[attribute] = [
                {
                    "candidates": [candidate_dict(c) for c in record.candidates],
                    "oriented": [candidate_dict(c) for c in record.oriented],
                    "results": [[r.statistic, r.p_value] for r in record.results],
                }
                for record in records
            ]
        return {
            "schema_version": MEMO_VERSION,
            "version": self.version,
            "n_rows": self.n_rows,
            "token": self.token,
            "families": attributes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StatsMemo":
        version = data.get("schema_version")
        if version != MEMO_VERSION:
            raise ReproError(
                f"unsupported stats-memo version {version!r} (expected {MEMO_VERSION})"
            )

        def candidate(d: Mapping) -> CandidateInsight:
            return CandidateInsight(
                d["measure"], d["attribute"], d["val"], d["val_other"], d["type"]
            )

        families: dict[str, list[FamilyRecord]] = {}
        for attribute, records in data["families"].items():
            out = []
            for record in records:
                candidates = tuple(candidate(d) for d in record["candidates"])
                if not candidates:
                    raise ReproError("stats memo holds an empty family")
                out.append(
                    FamilyRecord(
                        candidates[0].pair_key,
                        candidates,
                        tuple(candidate(d) for d in record["oriented"]),
                        tuple(
                            TestResult(float(s), float(p)) for s, p in record["results"]
                        ),
                    )
                )
            families[attribute] = out
        return cls(data["version"], int(data["n_rows"]), data["token"], families)


@dataclass(frozen=True, slots=True)
class IncrementalRequest:
    """What a caller passes to run the stats stage incrementally.

    The caller (the ``Session`` facade, the CLI's ``--since-checkpoint``,
    or the run controller resuming a ``stats-partial`` checkpoint at the
    same version) has already verified that the memo's ``version`` names the first
    ``memo.n_rows`` rows of the current table; the stage derives the dirty
    value set from the rows past that boundary.
    """

    memo: StatsMemo


@dataclass(slots=True)
class IncrementalPlan:
    """The clean/dirty classification of one incremental stats run."""

    #: Per attribute, the new enumeration's families in order, each paired
    #: with its reusable record (clean) or ``None`` (dirty).
    order: dict[str, list[tuple[PairKey, tuple[CandidateInsight, ...], FamilyRecord | None]]]
    #: The work list restricted to dirty candidates (same shape the full
    #: stage executes — shard-able through the identical paths).
    dirty_work: list[tuple[str, object, list[CandidateInsight]]]
    skipped: int = 0
    retested: int = 0


def plan_incremental(
    memo: StatsMemo,
    work: Sequence[tuple[str, object, list[CandidateInsight]]],
    dirty_values: Mapping[str, frozenset],
    config,
    version: str | None = None,
) -> IncrementalPlan | None:
    """Classify every family of the new enumeration as clean or dirty.

    ``version`` is the content version of the table this run tests.
    Returns ``None`` — caller falls back to a full run — when the memo
    cannot soundly serve this configuration: a config-token mismatch, or
    offline sampling over a table whose version differs from the memo's
    (the sample re-draws over the grown table; at the same version it
    draws the identical rows, so a resumed sampled run is served).
    """
    if config.sampling is not None and memo.version != version:
        logger.warning("incremental stats disabled: offline sampling re-draws rows")
        return None
    token = incremental_config_token(config)
    if memo.token != token:
        logger.warning(
            "incremental stats disabled: config token %s does not match the "
            "memo's %s (configuration changed since the checkpoint)",
            token, memo.token,
        )
        return None
    order: dict[str, list] = {}
    dirty_work: list[tuple[str, object, list[CandidateInsight]]] = []
    skipped = retested = 0
    for attribute, sample, candidates in work:
        stored = {
            record.pair_key: record for record in memo.families.get(attribute, [])
        }
        dirty = frozenset(dirty_values.get(attribute, frozenset()))
        entries: list = []
        dirty_candidates: list[CandidateInsight] = []
        for pair_key, family in split_families(candidates):
            record = stored.get(pair_key)
            if record is not None and record.candidates == family and not (
                pair_key[1] & dirty
            ):
                entries.append((pair_key, family, record))
                skipped += 1
            else:
                entries.append((pair_key, family, None))
                dirty_candidates.extend(family)
                retested += 1
        order[attribute] = entries
        if dirty_candidates:
            dirty_work.append((attribute, sample, dirty_candidates))
    return IncrementalPlan(order, dirty_work, skipped, retested)


def merge_attribute(
    plan: IncrementalPlan,
    attribute: str,
    dirty_raw: tuple[Sequence[CandidateInsight], Sequence[TestResult]],
) -> tuple[list[CandidateInsight], list[TestResult], list[FamilyRecord]]:
    """Splice clean and freshly re-tested families back into enumeration order.

    ``dirty_raw`` is the raw runner output over this attribute's dirty
    candidates (concatenated in enumeration order).  Returns the merged
    ``(oriented, results)`` — element-identical to a cold full run — plus
    the attribute's new family records for the next memo.
    """
    entries = plan.order.get(attribute, [])
    dirty_candidates: list[CandidateInsight] = []
    for _, family, record in entries:
        if record is None:
            dirty_candidates.extend(family)
    fresh = segment_families(dirty_candidates, *dirty_raw)
    fresh_by_key = {record.pair_key: record for record in fresh}
    oriented: list[CandidateInsight] = []
    results: list[TestResult] = []
    records: list[FamilyRecord] = []
    for pair_key, family, record in entries:
        if record is None:
            record = fresh_by_key[pair_key]
        oriented.extend(record.oriented)
        results.extend(record.results)
        records.append(record)
    return oriented, results, records
