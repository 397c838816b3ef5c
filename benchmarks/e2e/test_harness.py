"""Tests of the benchmark's own machinery.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q``.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
from repro import obs  # noqa: E402
from repro.obs.export import to_chrome_trace  # noqa: E402
from repro.obs.spans import Tracer  # noqa: E402

PLAN = "bench.insights.plan_s"
KERNEL = "bench.stats.kernel_s"
PERMUTE = "bench.stats.permute_s"


def rec(span_id, parent, name, start, end):
    return layers.Rec(span_id, parent, name, float(start), float(end))


class Clock:
    """A settable clock for deterministic tracer timestamps."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def at(self, now: float) -> "Clock":
        self.now = float(now)
        return self


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_nearest_wrapped_spans_through_program_spans():
    records = [
        rec(1, None, "stage.stats", 0, 10),
        rec(2, 1, PLAN, 1, 9),
        rec(3, 2, "stats.test_attribute", 1, 9),  # a program span in between
        rec(4, 3, PERMUTE, 2, 4),                  # two wrapped siblings
        rec(5, 3, KERNEL, 5, 8),
        rec(6, 5, PERMUTE, 6, 7),                  # nested below a wrapped span
    ]
    found = layers.profile(records)
    assert found.self_s["insights.plan_s"] == pytest.approx(8 - 2 - 3)
    assert found.self_s["stats.kernel_s"] == pytest.approx(3 - 1)
    assert found.self_s["stats.permute_s"] == pytest.approx(2 + 1)
    assert found.work_s == pytest.approx(10)
    assert found.attributed_s == pytest.approx(8)


def test_self_time_counts_overlapping_children_on_other_threads_once():
    records = [
        rec(1, None, PLAN, 0, 10),
        rec(2, 1, KERNEL, 2, 6),
        rec(3, 1, KERNEL, 4, 8),   # runs on another thread, overlapping
        rec(4, 1, KERNEL, 9, 12),  # outlives its parent: clipped
    ]
    found = layers.profile(records)
    assert found.self_s["insights.plan_s"] == pytest.approx(10 - 6 - 1)
    assert found.self_s["stats.kernel_s"] == pytest.approx(4 + 4 + 3)


def test_cross_thread_span_parents_to_the_open_root_and_is_subtracted():
    clock = Clock()
    tracer = Tracer(clock=clock)
    root = tracer.start(PLAN)  # opened at 0 on this thread

    def worker():
        span = tracer.start(KERNEL)  # empty stack: parents to the open root
        clock.at(3)
        tracer.finish(span)

    clock.at(1)
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.at(5)
    tracer.finish(root)
    found = layers.profile(layers.records_from_tracer(tracer))
    assert found.self_s["insights.plan_s"] == pytest.approx(5 - 2)
    assert found.self_s["stats.kernel_s"] == pytest.approx(2)


def test_adopted_worker_spans_count_as_work_and_layers():
    clock = Clock()
    worker = Tracer(clock=clock)
    plan = worker.start(PLAN, target="t.plan")
    clock.at(1)
    kernel = worker.start(KERNEL, target="t.kernel")
    clock.at(3)
    worker.finish(kernel)
    clock.at(4)
    worker.finish(plan)

    main = Tracer(clock=clock.at(100))
    stage = main.start("stage.stats")
    clock.at(101)
    pool = main.start("parallel.stats")
    main.adopt(worker.export(), parent=pool, anchor=102.0, wrapper_name="parallel.task")
    clock.at(107)
    main.finish(pool)
    clock.at(110)
    main.finish(stage)

    found = layers.profile(layers.records_from_tracer(main))
    assert found.self_s["insights.plan_s"] == pytest.approx(2)
    assert found.self_s["stats.kernel_s"] == pytest.approx(2)
    assert found.calls == {"t.plan": 1, "t.kernel": 1}
    # Stage wall 10, minus 6 in the pool, plus 4 of worker busy time.
    assert found.work_s == pytest.approx(8)
    assert found.attributed_s == pytest.approx(4)

    from_chrome = layers.profile(layers.records_from_chrome(to_chrome_trace(main)))
    assert from_chrome.self_s == pytest.approx(found.self_s)
    assert from_chrome.work_s == pytest.approx(found.work_s)


# -- installing and uninstalling the wrappers ---------------------------------------


@pytest.fixture
def fake_program(monkeypatch):
    """Two program modules: one defines callables, one imports a function by name."""
    defs = types.ModuleType("repro.bench_fake_defs")

    def double(x):
        return 2 * x

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        @classmethod
        def make(cls):
            return cls()

    defs.double, defs.Base, defs.Child = double, Base, Child
    user = types.ModuleType("repro.bench_fake_user")
    user.double = double  # as ``from repro.bench_fake_defs import double``
    monkeypatch.setitem(sys.modules, defs.__name__, defs)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    fake = (
        layers.Layer("insights.plan_s", "notebook", (
            layers.Target("repro.bench_fake_defs:double", ("enedis",)),
            layers.Target("repro.bench_fake_defs:Child.method", ()),
            layers.Target("repro.bench_fake_defs:Child.make", ()),
        )),
    )
    return defs, user, fake


def test_wrappers_record_spans_and_uninstall_restores_originals(fake_program):
    defs, user, fake = fake_program
    double, make = defs.double, defs.Child.__dict__["make"]
    installed = layers.install(fake)
    try:
        assert defs.double is not double and user.double is defs.double
        assert "method" in defs.Child.__dict__
        assert isinstance(defs.Child.__dict__["make"], classmethod)
        with obs.capture() as (tracer, _):
            assert user.double(21) == 42
            assert defs.Child().method() == "base"
            assert isinstance(defs.Child.make(), defs.Child)
        targets = [s.attrs["target"] for s in tracer.spans() if s.name == PLAN]
        assert targets == ["repro.bench_fake_defs:double",
                           "repro.bench_fake_defs:Child.method",
                           "repro.bench_fake_defs:Child.make"]
    finally:
        installed.uninstall()
    assert defs.double is double and user.double is double
    assert "method" not in defs.Child.__dict__
    assert defs.Child.__dict__["make"] is make


def test_uninstall_restores_the_program_layers():
    import repro.generation.generator as generator
    import repro.insights.significance as significance
    from repro.relational.moments import MomentStore
    from repro.stats.permutation import SharedPermutations

    chunk = significance.run_attribute_chunk
    init = SharedPermutations.__dict__["__init__"]
    build = MomentStore.__dict__["build"]
    installed = layers.install()
    try:
        assert generator.run_attribute_chunk is significance.run_attribute_chunk
        assert significance.run_attribute_chunk is not chunk
        assert SharedPermutations.__dict__["__init__"] is not init
    finally:
        installed.uninstall()
    assert significance.run_attribute_chunk is chunk
    assert generator.run_attribute_chunk is chunk
    assert SharedPermutations.__dict__["__init__"] is init
    assert MomentStore.__dict__["build"] is build


def test_a_designated_target_without_calls_is_reported():
    calls = {t.path: 1 for layer in layers.LAYERS for t in layer.targets}
    assert layers.missing_calls(calls, "flights_w2") == []
    del calls["repro.parallel.fleet:WorkerFleet.spawn"]
    assert layers.missing_calls(calls, "flights_w2") == [
        "repro.parallel.fleet:WorkerFleet.spawn"]
    assert layers.missing_calls(calls, "enedis") == []


def test_benchmark_json_lists_every_layer_and_workload():
    benchmark = run.load_benchmark()
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    assert {layer.metric for layer in layers.LAYERS} <= per_layer
    assert [w["name"] for w in benchmark["workloads"]] == list(layers.ALL)


# -- percentile rule and compare --------------------------------------------------


@pytest.mark.parametrize("n, percentile", [
    (10, None), (39, None), (40, 75), (49, 75), (50, 80), (99, 80), (100, 90),
    (200, 95), (1000, 99),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    found = run.tail([float(i) for i in range(1, n + 1)])
    if percentile is None:
        assert found is None
        return
    assert found["percentile"] == percentile
    assert n - found["value"] >= 10  # value i has n - i samples above it


def test_tail_value_uses_nearest_rank():
    assert run.tail([float(i) for i in range(1, 51)])["value"] == 40.0


A = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("b, better, expected", [
    ([1.01, 1.00, 1.02, 0.99, 1.00, 1.01], "lower", "same"),
    ([x * 1.3 for x in A], "lower", "worse"),
    ([x * 0.7 for x in A], "lower", "better"),
    ([x * 0.7 for x in A], "higher", "worse"),
    ([x * 1.3 for x in A], "higher", "better"),
    ([0.6, 1.4, 0.8, 1.2, 1.0, 0.7], "lower", "unresolved"),
    ([0.5, 0.9, 0.6, 0.95, 0.7, 0.55], "lower", "better"),  # wide, but all better
])
def test_compare_verdicts(b, better, expected):
    assert run.verdict(A, b, better, 0.1)["verdict"] == expected


def test_compare_reads_sets_per_workload_and_metric():
    benchmark = {
        "workloads": [{"name": "enedis"}, {"name": "serve_mixed"}],
        "end_to_end": [{"name": "notebook_s", "unit": "s", "better": "lower",
                        "bound": 0.1}],
    }

    def doc(values):
        return {"runs": [{"workload": "enedis", "trace": 0,
                          "metrics": {"notebook_s": v}} for v in values]
                + [{"workload": "enedis", "trace": 1, "metrics": {}}]}

    rows = run.compare(doc(A), doc([x * 1.5 for x in A]), benchmark)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("enedis", "notebook_s", "worse")]
    assert rows[0]["delta"] == pytest.approx(0.5)
