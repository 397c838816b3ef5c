"""One benchmark run in this process: seeded inputs, set-up, a timed loop, checks.

``run.py`` starts this file in a fresh process, with BLAS threads pinned to
one and a clean ``REPRO_*`` environment, as::

    python workloads.py '{"workload": ..., "seed": ..., "seconds": ...,
                          "trace": 0 or 1, "workdir": ...}'

and reads the result from the last line of standard output.  An untraced
run (``trace`` 0) measures the end-to-end metrics.  A traced run measures
the per-layer ones in two phases on the same inputs: first untraced (stage
times, counters, and the baseline for the tracing overhead), then with the
layer wrappers of :mod:`layers` installed before the session opens.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from repro import obs  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.config import ReproConfig  # noqa: E402
from repro.generation.config import GenerationConfig  # noqa: E402
from repro.notebook.ipynb import to_ipynb_dict  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402
from repro.parallel.config import ParallelConfig  # noqa: E402
from repro.serve import ReproServer, ServeConfig  # noqa: E402

#: Set-ups timed before the measured loop.  The in-process workloads also
#: time one after every loop step, and ``serve_mixed`` (whose loop runs
#: under load) as many again after its loop.  ``setup_s`` is the median of
#: all of them, so a burst of machine noise cannot set it alone.
SETUPS = 5
#: Share of a traced run's seconds spent in its untraced phase.
UNTRACED_SHARE = 0.4
#: Closed-loop clients of ``serve_mixed`` (no more than the machine's 2 cores).
CLIENTS = 2
#: Every this-many-th ``serve_mixed`` operation appends rows, starting with
#: the second, so even a short run exercises the append path.
APPEND_EVERY = 5
#: Client-side bound on one HTTP exchange, seconds.
HTTP_TIMEOUT = 120.0


@dataclass(frozen=True)
class Spec:
    shape: inputs.Shape
    rows: int
    backend: str = "columnar"
    workers: int = 1
    #: Rows per appended block (0: the workload never appends).
    block_rows: int = 0


WORKLOADS = {
    "enedis": Spec(inputs.ENEDIS, rows=1500),
    "flights_w2": Spec(inputs.FLIGHTS, rows=7500, workers=2),
    "enedis_append": Spec(inputs.ENEDIS, rows=1500, block_rows=12),
    "serve_mixed": Spec(inputs.ENEDIS, rows=600, backend="sqlite", block_rows=8),
}


def repro_config(spec: Spec) -> ReproConfig:
    parallel = ParallelConfig(workers=spec.workers,
                              store="shm" if spec.workers > 1 else "heap")
    return ReproConfig(generation=GenerationConfig(backend=spec.backend,
                                                   parallel=parallel))


def digest(notebook: dict) -> str:
    text = json.dumps(notebook, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One measured operation: a notebook or an append."""

    kind: str
    seconds: float
    ok: bool = True
    why: str = ""
    digest: str = ""
    stages: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: Parent seconds inside worker-pool spans, and worker busy seconds.
    pool_s: float = 0.0
    task_s: float = 0.0
    #: ``serve_mixed`` only: job queue wait, execution, and HTTP overhead.
    serve: dict = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.ok, self.why = False, self.why or why


@dataclass
class Phase:
    setup_s: list
    warmup_s: float
    ops: list
    window_s: float
    #: Layer profile of the measured operations, and of the whole phase.
    measured: layers.Profile
    whole: layers.Profile
    digests: dict
    problems: list

    @property
    def notebooks(self) -> list:
        return [op for op in self.ops if op.kind == "notebook"]


class Recorder:
    """Gives each step a fresh tracer and registry; profiles it when traced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.measured = layers.Profile.empty()
        self.whole = layers.Profile.empty()
        self._lock = threading.Lock()  # serve clients add from two threads

    def add(self, records: list, measured: bool) -> None:
        if not self.traced:
            return
        found = layers.profile(records)
        with self._lock:
            self.whole.add(found)
            if measured:
                self.measured.add(found)

    @contextmanager
    def scope(self, measured: bool):
        tracer, metrics = Tracer(), MetricsRegistry()
        with obs.use(tracer, metrics):
            yield tracer, metrics
        self.add(layers.records_from_tracer(tracer), measured)


def _pool_and_task(records: list) -> tuple[float, float]:
    """Parent seconds in worker-pool spans, and adopted worker task seconds."""
    pool = task = 0.0
    for rec in records:
        if rec.name == "parallel.task":
            task += rec.end - rec.start
        elif rec.name.startswith("parallel.") and rec.name not in layers.WORKER_SPANS:
            pool += rec.end - rec.start
    return pool, task


def timed_setup(open_fn, recorder: Recorder) -> tuple[float, object]:
    """Seconds ``open_fn`` takes, and what it opened."""
    with recorder.scope(False):
        begin = time.perf_counter()
        handle = open_fn()
        return time.perf_counter() - begin, handle


def timed_loop(seconds: float, step) -> float:
    """Run ``step`` until the next one would likely end past ``seconds``.

    Returns the measured window, start to the end of the last step.
    """
    start = time.perf_counter()
    durations = []
    while True:
        begin = time.perf_counter()
        step()
        durations.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return elapsed


# -- in-process sessions: enedis, flights_w2, enedis_append --------------------


def notebook(session: Session, recorder: Recorder, measured: bool,
             since: str | None = None) -> Op:
    with recorder.scope(measured) as (tracer, metrics):
        begin = time.perf_counter()
        run = session.generate(tracer=tracer, metrics=metrics, since=since)
        doc = to_ipynb_dict(session.render(run, tracer=tracer, metrics=metrics))
        seconds = time.perf_counter() - begin
    op = Op("notebook", seconds, digest=digest(doc),
            stages={s.name: s.seconds for s in run.report.stages},
            counters=metrics.snapshot()["counters"])
    op.pool_s, op.task_s = _pool_and_task(layers.records_from_tracer(tracer))
    if run.report.degraded:
        op.fail("degraded: " + "; ".join(run.report.degradations))
    return op


def open_session(path: Path, spec: Spec, name: str) -> Session:
    session = Session.from_csv(path, config=repro_config(spec), table_name=name)
    session.backend  # noqa: B018 - creating the backend is part of set-up
    return session


def cold_digest(columns: dict, spec: Spec, name: str, workdir: Path) -> str:
    """Digest of a fresh session's notebook over ``columns`` (the oracle run)."""
    path = inputs.write_csv(columns, workdir / f"{name}-cold.csv")
    with open_session(path, spec, name) as session:
        return notebook(session, Recorder(False), False).digest


def session_phase(name: str, spec: Spec, seed: int, seconds: float,
                  workdir: Path, recorder: Recorder) -> Phase:
    base = inputs.block(spec.shape, seed, 0, spec.rows)
    path = inputs.write_csv(base, workdir / f"{name}.csv")

    def setup_once() -> float:
        seconds, spare = timed_setup(lambda: open_session(path, spec, name), recorder)
        spare.close()
        return seconds

    setup = [setup_once() for _ in range(SETUPS)]
    ops: list[Op] = []
    problems: list[str] = []
    digests: dict = {}
    with recorder.scope(False):
        session = open_session(path, spec, name)
    with session:
        warm = notebook(session, recorder, False)
        if not warm.ok:
            problems.append(f"warm-up notebook: {warm.why}")
        digests["warmup"] = warm.digest
        appended = [base]

        def step() -> None:
            if spec.block_rows:
                since = session.version
                rows = inputs.block(spec.shape, seed, len(appended), spec.block_rows)
                appended.append(rows)
                with recorder.scope(True):
                    begin = time.perf_counter()
                    session.append(rows)
                    ops.append(Op("append", time.perf_counter() - begin))
                op = notebook(session, recorder, True, since=since)
                if not (op.counters.get("stats.partitions_skipped", 0)
                        + op.counters.get("stats.partitions_retested", 0)):
                    op.fail("generate(since=) ran the statistics in full")
            else:
                op = notebook(session, recorder, True)
                if op.digest != warm.digest:
                    op.fail("notebook differs from the warm-up notebook")
            ops.append(op)
            setup.append(setup_once())

        # The set-ups between steps are not part of the measured window.
        window = timed_loop(seconds, step) - sum(setup[SETUPS:])

    if spec.block_rows:
        last = [op for op in ops if op.kind == "notebook"][-1]
        digests["final"] = last.digest
        digests["cold"] = cold_digest(inputs.concat(appended), spec, name, workdir)
        if digests["cold"] != last.digest:
            last.fail("incremental notebook differs from a cold run")
    else:
        digests["distinct"] = len({op.digest for op in ops})
    return Phase(setup, warm.seconds, ops, window, recorder.measured,
                 recorder.whole, digests, problems)


# -- the served workload: serve_mixed -------------------------------------------


def http_json(address, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection(*address, timeout=HTTP_TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def start_server(spec: Spec, name: str, path: Path) -> ReproServer:
    server = ReproServer(
        ServeConfig(port=0, max_queue_depth=64, max_inflight_cost=1024.0,
                    default_deadline_seconds=120.0),
        repro_config=repro_config(spec),
    )
    server.start()
    try:
        status, body = http_json(server.address, "POST", "/datasets",
                                 {"name": name, "path": str(path)})
        if status != 201:
            raise RuntimeError(f"register {name}: HTTP {status} {body}")
    except BaseException:
        server.shutdown()
        raise
    return server


def shutdown_all(servers: list[ReproServer]) -> None:
    """Shut servers down together (each waits out its listener's poll)."""
    threads = [threading.Thread(target=server.shutdown) for server in servers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def request_notebook(address, name: str, recorder: Recorder | None,
                     measured: bool, per_layer: bool) -> tuple[Op, dict]:
    """Submit a generate job and wait for it; returns the op and job body."""
    begin = time.perf_counter()
    status, body = http_json(address, "POST", "/generate", {"dataset": name})
    if status != 202:
        op = Op("notebook", time.perf_counter() - begin)
        op.fail(f"submit: HTTP {status} {body}")
        return op, body
    job = body["job"]
    while True:
        status, body = http_json(address, "GET", f"/jobs/{job}?wait=30")
        if status != 200 or body.get("terminal"):
            break
    op = Op("notebook", time.perf_counter() - begin)
    if body.get("status") != "completed":
        op.fail(f"job {job} ended {body.get('status')}: {body.get('error')}")
        return op, body
    op.stages = {s["name"]: s["seconds"] for s in (body.get("report") or {}).get("stages", [])}
    op.serve = {
        "queue_s": body["queue_seconds"],
        "exec_s": body["total_seconds"] - body["queue_seconds"],
        "overhead_s": op.seconds - body["total_seconds"],
    }
    if per_layer:
        _, trace = http_json(address, "GET", f"/jobs/{job}/trace")
        records = layers.records_from_chrome(trace)
        op.counters = trace.get("otherData", {}).get("metrics", {}).get("counters", {})
        op.pool_s, op.task_s = _pool_and_task(records)
        if recorder is not None:
            recorder.add(records, measured)
    return op, body


def serve_phase(name: str, spec: Spec, seed: int, seconds: float,
                workdir: Path, recorder: Recorder, per_layer: bool) -> Phase:
    base = inputs.block(spec.shape, seed, 0, spec.rows)
    path = inputs.write_csv(base, workdir / f"{name}.csv")

    def setups() -> tuple[list[float], list[ReproServer]]:
        started = [timed_setup(lambda: start_server(spec, name, path), recorder)
                   for _ in range(SETUPS)]
        return [seconds for seconds, _ in started], [server for _, server in started]

    setup, servers = setups()
    shutdown_all(servers[:-1])
    server = servers[-1]

    ops: list[Op] = []
    problems: list[str] = []
    digests: dict = {}
    acked: list[tuple[int, int]] = []  # (rows after the append, block index)
    lock = threading.Lock()
    try:
        address = server.address
        warm, _ = request_notebook(address, name, recorder, False, per_layer)
        if not warm.ok:
            problems.append(f"warm-up request: {warm.why}")
        counter = itertools.count()
        blocks = itertools.count(1)
        latencies: list[float] = []
        ends: list[float] = []
        start = time.perf_counter()

        def append(block: int) -> Op:
            rows = inputs.block(spec.shape, seed, block, spec.block_rows)
            begin = time.perf_counter()
            status, body = http_json(address, "POST", f"/datasets/{name}/rows",
                                     {"rows": rows})
            op = Op("append", time.perf_counter() - begin)
            if status == 200:
                with lock:
                    acked.append((body["rows"], block))
            else:
                op.fail(f"append: HTTP {status} {body}")
            return op

        def client() -> None:
            while True:
                with lock:
                    estimate = statistics.median(latencies) if latencies else warm.seconds
                    if ops and time.perf_counter() - start + estimate > seconds:
                        return
                    index = next(counter)
                    block = next(blocks) if index % APPEND_EVERY == 1 else 0
                try:
                    op = (append(block) if block else
                          request_notebook(address, name, recorder, True, per_layer)[0])
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    op = Op("append" if block else "notebook", 0.0)
                    op.fail(f"HTTP exchange failed: {exc!r}")
                with lock:
                    ops.append(op)
                    ends.append(time.perf_counter())
                    if op.kind == "notebook":
                        latencies.append(op.seconds)

        with recorder.scope(True):  # appends that run while no job holds the tracer
            threads = [threading.Thread(target=client, name=f"bench-client-{i}")
                       for i in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        window = max(ends) - start

        final, body = request_notebook(address, name, None, False, False)
        if final.ok:
            _, notebook_doc = http_json(address, "GET", f"/jobs/{body['id']}/result")
            digests["final"] = digest(notebook_doc)
            order = [b for _, b in sorted(acked)]
            grown = inputs.concat(
                [base] + [inputs.block(spec.shape, seed, b, spec.block_rows) for b in order])
            digests["cold"] = cold_digest(grown, spec, name, workdir)
            if digests["cold"] != digests["final"]:
                problems.append("served notebook differs from a cold run of the "
                                "acknowledged appends")
        else:
            problems.append(f"final request: {final.why}")
    finally:
        server.shutdown()
    more, servers = setups()
    shutdown_all(servers)
    setup += more
    return Phase(setup, warm.seconds, ops, window, recorder.measured,
                 recorder.whole, digests, problems)


# -- metrics ------------------------------------------------------------------


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(phase: Phase) -> dict:
    notebooks = phase.notebooks
    return {
        "setup_s": statistics.median(phase.setup_s),
        "notebook_s": statistics.median(op.seconds for op in notebooks),
        "notebooks_per_s": len(notebooks) / phase.window_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(plain: Phase, traced: Phase, workers: int) -> dict:
    notebooks = plain.notebooks
    n = len(notebooks)
    metrics = {
        f"stage.{stage}_s": _median(op.stages.get(stage, 0.0) for op in notebooks)
        for stage in ("stats", "generation", "tap", "render")
    }
    pool = sum(op.pool_s for op in notebooks)
    task = sum(op.task_s for op in notebooks)
    metrics["parallel.task_s"] = task / n
    metrics["parallel.stage_s"] = pool / n
    metrics["parallel.busy_frac"] = _ratio(task, workers * pool)

    counts: dict[str, float] = {}
    for op in plain.ops:
        for key, value in op.counters.items():
            counts[key] = counts.get(key, 0.0) + value
    created = counts.get("stats.permutation_batches_created", 0.0)
    reused = counts.get("stats.permutation_batches_reused", 0.0)
    skipped = counts.get("stats.partitions_skipped", 0.0)
    hits = counts.get("cache.aggregate_hits", 0.0)
    metrics.update({
        "stats.candidates_tested": counts.get("stats.candidates_tested", 0.0) / n,
        "stats.batches_created": created / n,
        "stats.batch_reuse_ratio": _ratio(reused, created + reused),
        "stats.delta_reuse_ratio": _ratio(
            skipped, skipped + counts.get("stats.partitions_retested", 0.0)),
        "cache.hit_ratio": _ratio(hits, hits + counts.get("cache.aggregate_misses", 0.0)),
        "backend.statements": counts.get("backend.statements_executed", 0.0) / n,
        "parallel.ipc_bytes": counts.get("parallel.ipc_bytes", 0.0) / n,
        "parallel.tasks_stolen": counts.get("parallel.tasks_stolen", 0.0) / n,
    })
    for metric, key in (("serve.queue_wait_p50_s", "queue_s"),
                        ("serve.exec_p50_s", "exec_s"),
                        ("serve.overhead_p50_s", "overhead_s")):
        metrics[metric] = _median(op.serve[key] for op in notebooks if op.serve)

    traced_n = len(traced.notebooks)
    for layer in layers.LAYERS:
        if layer.per == "notebook":
            metrics[layer.metric] = traced.measured.self_s[layer.metric] / traced_n
        else:
            calls = sum(traced.whole.calls.get(t.path, 0) for t in layer.targets)
            metrics[layer.metric] = _ratio(traced.whole.self_s[layer.metric], calls)
    metrics["bench.attributed_frac"] = _ratio(traced.measured.attributed_s,
                                              traced.measured.work_s)
    metrics["bench.trace_overhead"] = (
        statistics.median(op.seconds for op in traced.notebooks)
        / statistics.median(op.seconds for op in notebooks) - 1.0)
    return metrics


def describe(phase: Phase) -> dict:
    """The raw samples of a phase, for the report (``run.py`` summarises)."""
    return {
        "notebook_s": [op.seconds for op in phase.notebooks],
        "append_s": [op.seconds for op in phase.ops if op.kind == "append"],
        "setup_s": phase.setup_s,
        "first_notebook_s": phase.warmup_s,
        "window_s": phase.window_s,
        "digests": phase.digests,
        "failures": [op.why for op in phase.ops if not op.ok] + phase.problems,
    }


def run_phase(name: str, seed: int, seconds: float, workdir: Path,
              traced: bool, per_layer_wanted: bool) -> Phase:
    spec = WORKLOADS[name]
    recorder = Recorder(traced)
    if name == "serve_mixed":
        return serve_phase(name, spec, seed, seconds, workdir, recorder,
                           per_layer_wanted)
    return session_phase(name, spec, seed, seconds, workdir, recorder)


def main(request: dict) -> dict:
    name, seed = request["workload"], int(request["seed"])
    seconds, trace = float(request["seconds"]), int(request["trace"])
    workdir = Path(request["workdir"])
    if not trace:
        phases = [run_phase(name, seed, seconds, workdir, False, False)]
        metrics = end_to_end(phases[0])
    else:
        plain = run_phase(name, seed, seconds * UNTRACED_SHARE, workdir, False, True)
        installed = layers.install()
        try:
            traced = run_phase(name, seed, seconds * (1 - UNTRACED_SHARE), workdir,
                               True, True)
        finally:
            installed.uninstall()
        phases = [plain, traced]
        metrics = per_layer(plain, traced, WORKLOADS[name].workers)
        missing = layers.missing_calls(traced.whole.calls, name)
        if missing:
            traced.problems.append("wrappers recorded no call: " + ", ".join(missing))
    attempted = sum(len(p.ops) for p in phases)
    failed = sum(1 for p in phases for op in p.ops if not op.ok)
    problems = sum(len(p.problems) for p in phases)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and problems == 0,
        "attempted": attempted,
        "failed": failed + problems,
        "metrics": metrics,
        "numpy": numpy.__version__,
        "phases": [describe(p) for p in phases],
    }


def _stop_resource_tracker() -> None:
    """Wait for the shared-memory resource tracker this process may have started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    _stop_resource_tracker()
    print(json.dumps(result))
