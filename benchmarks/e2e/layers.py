"""Per-layer self time from spans the benchmark opens around public callables.

The program is not edited.  :func:`install` replaces each public callable
named in :data:`LAYERS` with a wrapper that opens a
``repro.obs.span("bench.<metric>")`` around the call, in every loaded
``repro`` module that holds it (so ``from x import f`` bindings are caught
too); :meth:`Installed.uninstall` puts the originals back.  Because the spans go to
the program's own ambient tracer, spans opened in forked fleet workers
come back under ``parallel.task`` through the program's adoption path,
and spans of a served job land in that job's trace.

A layer's self time is the duration of its span minus the part of that
interval covered by the nearest wrapped spans below it, on any thread or
adopted from any worker.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass

ALL = ("enedis", "flights_w2", "enedis_append", "serve_mixed")
BATCH = ("enedis", "flights_w2", "enedis_append")
APPENDS = ("enedis_append", "serve_mixed")

#: Program spans whose wall time the named layers should explain.
STAGES = ("stage.stats", "stage.generation")
#: Worker subtrees adopted into the parent trace (worker busy time).
WORKER_SPANS = ("parallel.task", "parallel.setup")

SPAN_PREFIX = "bench."


@dataclass(frozen=True)
class Target:
    """A public callable, ``"module:attr"`` or ``"module:Class.method"``,
    and the workloads on which a traced run must see it called."""

    path: str
    required_on: tuple[str, ...]


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: its wrapped callables and how it is normalised
    (``"notebook"``: self seconds per notebook; ``"call"``: per call)."""

    metric: str
    per: str
    targets: tuple[Target, ...]

    @property
    def span_name(self) -> str:
        return SPAN_PREFIX + self.metric


LAYERS: tuple[Layer, ...] = (
    Layer("relational.fd_s", "notebook", (
        Target("repro.relational.functional_deps:detect_functional_dependencies", ALL),
    )),
    Layer("insights.plan_s", "notebook", (
        Target("repro.insights.significance:run_attribute_chunk", ALL),
    )),
    Layer("stats.permute_s", "notebook", (
        Target("repro.stats.permutation:SharedPermutations.__init__", ALL),
    )),
    Layer("stats.kernel_s", "notebook", (
        Target("repro.stats.kernel:run_batched_tests", ALL),
    )),
    Layer("stats.delta_s", "notebook", (
        Target("repro.stats.delta:plan_incremental", ("enedis_append",)),
        Target("repro.stats.delta:merge_attribute", ("enedis_append",)),
    )),
    Layer("generation.evaluate_s", "notebook", (
        Target("repro.generation.evaluators:PairwiseEvaluator.plan", ALL),
        Target("repro.generation.evaluators:PairwiseEvaluator.evaluate", ALL),
    )),
    Layer("generation.support_s", "notebook", (
        Target("repro.parallel.shards:evidence_supported", ALL),
    )),
    # The backends compute inside the aggregate cache's build callback, so
    # the public entry points of both make one layer.
    Layer("backend.aggregate_s", "notebook", (
        Target("repro.backend.columnar:ColumnarBackend.materialize_aggregate", ()),
        Target("repro.backend.columnar:ColumnarBackend.materialize_aggregates", BATCH),
        Target("repro.backend.sqlite:SqliteBackend.materialize_aggregate", ()),
        Target("repro.backend.sqlite:SqliteBackend.materialize_aggregates",
               ("serve_mixed",)),
        Target("repro.relational.aggcache:AggregateCache.get_or_build", ()),
        Target("repro.relational.aggcache:AggregateCache.get_or_build_batch", ALL),
    )),
    Layer("relational.moments_s", "notebook", (
        Target("repro.relational.moments:MomentStore.build", APPENDS),
        Target("repro.relational.moments:MomentStore.advance", APPENDS),
        Target("repro.relational.moments:touched_labels", ("enedis_append",)),
    )),
    Layer("cache.adopt_s", "notebook", (
        Target("repro.relational.aggcache:AggregateCache.adopt", APPENDS),
    )),
    Layer("session.append_s", "notebook", (
        Target("repro.api:Session.append", APPENDS),
    )),
    Layer("relational.csv_load_s", "call", (
        Target("repro.relational.csv_io:read_csv", ALL),
    )),
    Layer("parallel.spawn_s", "call", (
        Target("repro.parallel.fleet:WorkerFleet.spawn", ("flights_w2",)),
    )),
)

_BY_SPAN = {layer.span_name: layer for layer in LAYERS}


# -- installing the wrappers ---------------------------------------------------


def _wrap(func, span_name: str, target: str):
    from repro import obs

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with obs.span(span_name, target=target):
            return func(*args, **kwargs)

    return wrapper


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _rebind(old, new) -> None:
    """Point every program-module global that is ``old`` at ``new``."""
    for module in _program_modules():
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)


class Installed:
    """The wrappers in place; :meth:`uninstall` restores every original."""

    def __init__(self, layers: tuple[Layer, ...]):
        self._functions: list[tuple[object, object]] = []  # (original, wrapper)
        # (class, attribute, its raw value, or None when it was inherited)
        self._methods: list[tuple[type, str, object]] = []
        for layer in layers:
            for target in layer.targets:
                self._install(layer.span_name, target.path)

    def _install(self, span_name: str, path: str) -> None:
        module_name, _, qualname = path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            wrapper = _wrap(original, span_name, path)
            self._functions.append((original, wrapper))
            _rebind(original, wrapper)
            return
        owner = getattr(module, owner_name)
        raw = owner.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(raw.__func__, span_name, path))
        else:
            wrapped = _wrap(getattr(owner, attr), span_name, path)
        self._methods.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._methods):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        for original, wrapper in self._functions:
            _rebind(wrapper, original)
        self._methods.clear()
        self._functions.clear()


def install(layers: tuple[Layer, ...] = LAYERS) -> Installed:
    """Wrap every target of ``layers``; returns the handle that undoes it."""
    return Installed(layers)


# -- span records and self time ------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rec:
    """One closed span: id, parent id, name, start/end seconds, wrapped target."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    target: str | None = None


def records_from_tracer(tracer) -> list[Rec]:
    return [
        Rec(s.span_id, s.parent_id, s.name, s.start, s.end, s.attrs.get("target"))
        for s in tracer.spans() if s.end is not None
    ]


def records_from_chrome(doc: dict) -> list[Rec]:
    """Records from a Chrome trace document (``GET /jobs/<id>/trace``)."""
    out = []
    for event in doc.get("traceEvents", []):
        args = event.get("args", {})
        if event.get("ph") != "X" or args.get("open"):
            continue
        start = event["ts"] / 1e6
        out.append(Rec(args["span_id"], args.get("parent_id"), event["name"],
                       start, start + event["dur"] / 1e6, args.get("target")))
    return out


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(records: list[Rec]) -> dict[int | None, list[Rec]]:
    children: dict[int | None, list[Rec]] = {}
    for rec in records:
        children.setdefault(rec.parent_id, []).append(rec)
    return children


def _descendants(rec: Rec, children) -> list[Rec]:
    out, stack = [], list(children.get(rec.span_id, ()))
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(children.get(child.span_id, ()))
    return out


def _self_time(rec: Rec, children) -> float:
    """Duration minus the union of the nearest wrapped spans below ``rec``."""
    covered, stack = [], list(children.get(rec.span_id, ()))
    while stack:
        child = stack.pop()
        if child.name in _BY_SPAN:
            start, end = max(child.start, rec.start), min(child.end, rec.end)
            if end > start:
                covered.append((start, end))
        else:
            stack.extend(children.get(child.span_id, ()))
    return (rec.end - rec.start) - union_length(covered)


@dataclass
class Profile:
    """What one trace says about the layers (additive across traces)."""

    self_s: dict[str, float]
    calls: dict[str, int]
    attributed_s: float = 0.0
    work_s: float = 0.0

    @classmethod
    def empty(cls) -> "Profile":
        return cls({layer.metric: 0.0 for layer in LAYERS}, {})

    def add(self, other: "Profile") -> None:
        for metric, seconds in other.self_s.items():
            self.self_s[metric] += seconds
        for target, count in other.calls.items():
            self.calls[target] = self.calls.get(target, 0) + count
        self.attributed_s += other.attributed_s
        self.work_s += other.work_s


def profile(records: list[Rec]) -> Profile:
    """Self time per layer, calls per target, and stage attribution.

    ``work_s`` is the stats+generation stage wall time, with time the parent
    spent in a worker pool replaced by the workers' busy time (the adopted
    ``parallel.task``/``parallel.setup`` subtrees).  ``attributed_s`` is the
    part of that work spent in named layers.
    """
    children = _children(records)
    result = Profile.empty()
    self_of: dict[int, float] = {}
    for rec in records:
        layer = _BY_SPAN.get(rec.name)
        if layer is None:
            continue
        seconds = _self_time(rec, children)
        self_of[rec.span_id] = seconds
        result.self_s[layer.metric] += seconds
        if rec.target is not None:
            result.calls[rec.target] = result.calls.get(rec.target, 0) + 1
    for stage in (r for r in records if r.name in STAGES):
        below = _descendants(stage, children)
        pools = [(max(r.start, stage.start), min(r.end, stage.end)) for r in below
                 if r.name.startswith("parallel.") and r.name not in WORKER_SPANS]
        result.work_s += (stage.end - stage.start) - union_length(
            [p for p in pools if p[1] > p[0]])
        result.work_s += sum(r.end - r.start for r in below if r.name in WORKER_SPANS)
        result.attributed_s += sum(self_of.get(r.span_id, 0.0) for r in below)
    return result


def missing_calls(calls: dict[str, int], workload: str) -> list[str]:
    """Targets designated for ``workload`` that recorded no call."""
    return [t.path for layer in LAYERS for t in layer.targets
            if workload in t.required_on and not calls.get(t.path)]
