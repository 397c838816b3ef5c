"""The HTTP surface of the serving layer (stdlib ``http.server`` only).

Endpoints (full semantics in ``docs/serving.md``):

===========================  ==============================================
``GET  /healthz``            liveness probe
``GET  /metrics``            Prometheus text exposition of server metrics
``GET  /datasets``           registry listing (rows, version, cost,
                             breaker, cache)
``POST /datasets``           register ``{"name": ..., "path": ...}``
``GET  /datasets/<name>``    one dataset's snapshot (incl. its current
                             ``version`` token)
``POST /datasets/<name>/rows``  append ``{"rows": ...}``; 200 + the new
                             dataset version (running jobs keep their
                             snapshot — the mutation is lease-safe)
``DELETE /datasets/<name>``  evict (lease-safe; running jobs finish)
``POST /generate``           submit a job; 202 + job id, 429 shed,
                             503 circuit open, 404 unknown dataset,
                             409 ``stale_version`` when ``if_version``
                             no longer matches the dataset
``GET  /jobs/<id>``          poll status/progress (``?wait=SECONDS`` long-
                             polls until terminal or the wait elapses)
``GET  /jobs/<id>/result``   the generated notebook (ipynb JSON)
``GET  /jobs/<id>/trace``    the job's connected span tree (Chrome-trace
                             JSON; open spans included live)
``GET  /debug/flight``       the flight recorder's ring of recent job
                             post-mortems
===========================  ==============================================

Every handler thread fires the ``serve.handler`` fault point first, so a
``REPRO_FAULTS=serve.handler:stall:2:xall`` plan makes *every* response
slow and ``serve.handler:kill`` turns one into a clean 500 — the
slow-handler chaos knob.

:class:`ReproServer` composes the subsystem: registry + admission +
job store + executors + one metrics registry, over
:class:`http.server.ThreadingHTTPServer` (one thread per connection;
job *execution* stays on the executor threads, so slow clients never
hold the pipeline).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.config import ReproConfig
from repro.errors import ReproError, ServeError, UnknownDatasetError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.serve.admission import AdmissionController
from repro.serve.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.serve.config import ServeConfig
from repro.serve.executor import JobExecutor
from repro.serve.flight import FlightRecorder
from repro.serve.jobs import STATUS_SHED, JobStore
from repro.serve.registry import DatasetRegistry

logger = logging.getLogger(__name__)

__all__ = ["ReproServer"]

#: Longest a ``?wait=`` long-poll may block one handler thread.
MAX_WAIT_SECONDS = 30.0

#: Circuit-breaker states as gauge values (``serve.breaker_state{dataset=}``).
BREAKER_STATE_VALUES = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class ReproServer:
    """The composed serving subsystem plus its HTTP listener."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        repro_config: ReproConfig | None = None,
        faults: FaultInjector | None = None,
    ):
        self.config = config or ServeConfig()
        self.faults = faults or FaultInjector.none()
        self.metrics = MetricsRegistry()
        self.registry = DatasetRegistry(
            config=repro_config,
            metrics=self.metrics,
            breaker_failures=self.config.breaker_failures,
            breaker_reset_seconds=self.config.breaker_reset_seconds,
        )
        self.admission = AdmissionController(
            self.config.max_queue_depth,
            self.config.max_inflight_cost,
            metrics=self.metrics,
            faults=self.faults,
        )
        self.jobs = JobStore(self.config.max_finished_jobs)
        self.flight = FlightRecorder(self.config.flight_capacity)
        self.executor = JobExecutor(
            self.config, self.registry, self.admission,
            metrics=self.metrics, faults=self.faults, flight=self.flight,
        )
        self._httpd: ThreadingHTTPServer | None = None
        self._listener: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind, start executors, and serve on a background thread."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self.executor.start()
        self._listener = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._listener.start()
        logger.info("serving on http://%s:%d/", *self.address)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real port."""
        if self._httpd is None:
            return (self.config.host, self.config.port)
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Stop accepting, drain executors, shed leftovers, evict datasets."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._listener is not None:
            self._listener.join(timeout=5.0)
            self._listener = None
        self.executor.stop()
        self.registry.close()

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- request-level operations (HTTP-independent, reused by tests) --------

    def refresh_gauges(self) -> None:
        """Refresh the point-in-time operational gauges.

        Called before every ``/metrics`` scrape so the exposition always
        carries the *current* queue depth, inflight budget utilization,
        resident-session count, and per-dataset breaker state — not
        whatever they were when the last job touched them.
        """
        self.metrics.gauge("serve.queue_depth").set(self.admission.depth)
        inflight = self.admission.inflight_cost
        self.metrics.gauge("serve.inflight_cost").set(inflight)
        self.metrics.gauge("serve.inflight_utilization").set(
            inflight / self.config.max_inflight_cost
        )
        names = self.registry.names()
        self.metrics.gauge("serve.datasets_resident").set(len(names))
        for name in names:
            try:
                entry = self.registry.get(name)
            except UnknownDatasetError:  # evicted between names() and get()
                continue
            self.metrics.gauge("serve.breaker_state", {"dataset": name}).set(
                BREAKER_STATE_VALUES.get(entry.breaker.state, -1)
            )

    def append_rows(self, dataset: str, rows) -> tuple[int, dict]:
        """Append ``rows`` to a dataset; returns ``(http_status, body)``.

        The append goes through the entry's lease, so it can never evict
        or corrupt the snapshot of a job already running — that job keeps
        the pre-append table; only later submissions see the new version.
        """
        if not isinstance(rows, (list, dict)) or not rows:
            return 400, {
                "error": "'rows' must be a non-empty list of rows or a "
                         "column->values mapping"
            }
        if isinstance(rows, list) and all(isinstance(r, dict) for r in rows):
            # JSON-friendly row-object form -> the column mapping the
            # table layer expects.
            names = set(rows[0])
            if any(set(r) != names for r in rows):
                return 400, {"error": "row objects must all share one key set"}
            rows = {name: [r[name] for r in rows] for name in names}
        try:
            entry = self.registry.get(dataset)
            before = entry.session.table.n_rows
            version = entry.append(rows)
        except UnknownDatasetError as exc:
            return 404, {"error": str(exc)}
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": f"cannot append rows: {exc}"}
        total = entry.session.table.n_rows
        self.metrics.counter("serve.rows_appended", {"dataset": dataset}).inc(
            max(0, total - before)
        )
        return 200, {
            "dataset": dataset,
            "version": version,
            "rows": total,
            "appended": max(0, total - before),
        }

    def submit(self, dataset: str, params: dict | None = None) -> tuple[int, dict]:
        """Submit a generate job; returns ``(http_status, body)``."""
        params = dict(params or {})
        try:
            entry = self.registry.get(dataset)
        except UnknownDatasetError as exc:
            return 404, {"error": str(exc)}

        # Optimistic concurrency: a client that planned its request against
        # a specific table version can refuse to run against a mutated one.
        if_version = params.pop("if_version", None)
        if if_version is not None:
            current = entry.session.version
            if if_version != current:
                self.metrics.counter("serve.rejected_stale_version").inc()
                return 409, {
                    "error": (
                        f"dataset {dataset!r} is at version {current}, "
                        f"not {if_version}"
                    ),
                    "code": "stale_version",
                    "version": current,
                    "requested": if_version,
                }

        if entry.breaker.state == STATE_OPEN:
            self.metrics.counter("serve.rejected_circuit_open").inc()
            return 503, {
                "error": f"dataset {dataset!r} is failing; circuit open",
                "breaker": entry.breaker.snapshot(),
                "retry_after": self.config.breaker_reset_seconds,
            }

        deadline = params.pop("deadline_seconds", None)
        if deadline is None:
            deadline = self.config.default_deadline_seconds
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            return 400, {"error": f"deadline_seconds must be a number, got {deadline!r}"}
        if deadline <= 0:
            return 400, {"error": "deadline_seconds must be positive"}
        deadline = min(deadline, self.config.max_deadline_seconds)

        job = self.jobs.create(
            dataset, deadline_seconds=deadline, params=params,
            cost=entry.cost_units,
        )
        # Stamped again by the executor when it takes its lease, so the
        # job body always carries the version of the snapshot it ran on.
        job.dataset_version = entry.session.version
        # The submit-path spans open on this (handler) thread, where the
        # job's serve.request root is still on the stack — they nest.
        with job.tracer.span("serve.submit", dataset=dataset):
            with job.tracer.span(
                "serve.admission", queue_depth=self.admission.depth
            ) as admission_span:
                admitted, reason = self.admission.try_admit(job)
                admission_span.set(admitted=admitted, reason=reason)
        if not admitted:
            job.finish(STATUS_SHED, shed_reason=reason)
            self.metrics.counter("serve.jobs_shed").inc()
            self.metrics.counter(
                "serve.jobs", {"dataset": dataset, "outcome": STATUS_SHED}
            ).inc()
            self.metrics.histogram("serve.job_latency_seconds").observe(
                job.total_seconds
            )
            self.flight.record(job)
            return 429, {
                "job": job.id, "status": job.status, "reason": reason,
                "retry_after": 1,
            }
        return 202, {
            "job": job.id,
            "status": job.status,
            "deadline_seconds": deadline,
            "queue_depth": self.admission.depth,
        }


def _make_handler(server: ReproServer):
    """A request-handler class closed over the composed server."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        # -- plumbing -------------------------------------------------------

        def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
            logger.debug("%s - %s", self.address_string(), fmt % args)

        def _json(self, code: int, body: dict, headers: dict | None = None) -> None:
            payload = json.dumps(body).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _text(self, code: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _body(self) -> dict | None:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return None
            return data if isinstance(data, dict) else None

        def _dispatch(self, method: str) -> None:
            try:
                # The slow-handler chaos knob: stalls really sleep (capped),
                # kills become a clean 500 on this one response.
                server.faults.fire("serve.handler")
                getattr(self, f"_{method}")()
            except InjectedFault:
                self._json(500, {"error": "injected handler fault"})
            except BrokenPipeError:  # client went away mid-response
                pass
            except Exception as exc:  # noqa: BLE001 - must answer something
                logger.exception("unhandled error serving %s %s",
                                 method.upper(), self.path)
                self._json(500, {"error": f"internal error: {exc}"})

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("get")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("post")

        def do_DELETE(self) -> None:  # noqa: N802
            self._dispatch("delete")

        # -- GET ------------------------------------------------------------

        def _get(self) -> None:
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            if parts == ["healthz"]:
                self._json(200, {"ok": True, "queue_depth": server.admission.depth})
                return
            if parts == ["metrics"]:
                server.refresh_gauges()
                self._text(200, obs.to_prometheus_text(server.metrics),
                           "text/plain; version=0.0.4")
                return
            if parts == ["datasets"]:
                self._json(200, {"datasets": server.registry.snapshot()})
                return
            if len(parts) == 2 and parts[0] == "datasets":
                try:
                    entry = server.registry.get(parts[1])
                except UnknownDatasetError as exc:
                    self._json(404, {"error": str(exc)})
                    return
                self._json(200, entry.snapshot())
                return
            if parts == ["debug", "flight"]:
                self._json(200, {
                    "capacity": server.flight.capacity,
                    "records": server.flight.snapshot(),
                })
                return
            if len(parts) >= 2 and parts[0] == "jobs":
                self._get_job(parts, parse_qs(parsed.query))
                return
            self._json(404, {"error": f"no route for GET {parsed.path}"})

        def _get_job(self, parts: list[str], query: dict) -> None:
            job = server.jobs.get(parts[1])
            if job is None:
                self._json(404, {"error": f"unknown job {parts[1]!r}"})
                return
            wait = query.get("wait")
            if wait:
                try:
                    seconds = min(float(wait[0]), MAX_WAIT_SECONDS)
                except ValueError:
                    self._json(400, {"error": "wait must be a number of seconds"})
                    return
                job.wait(max(0.0, seconds))
            if len(parts) == 2:
                self._json(200, job.to_dict())
                return
            if parts[2] == "result":
                if job.notebook is not None:
                    # The notebook body is pure ipynb JSON; the version of
                    # the snapshot it was generated from rides in a header.
                    self._json(200, job.notebook,
                               {"X-Dataset-Version": job.dataset_version or ""})
                elif not job.terminal:
                    self._json(409, job.to_dict())
                else:  # terminal without a notebook: shed or failed
                    self._json(410, job.to_dict())
                return
            if parts[2] == "trace":
                self._json(200, job.trace_doc())
                return
            self._json(404, {"error": f"no route for GET /{'/'.join(parts)}"})

        # -- POST -----------------------------------------------------------

        def _post(self) -> None:
            parts = [p for p in urlparse(self.path).path.split("/") if p]
            body = self._body()
            if body is None:
                self._json(400, {"error": "request body must be a JSON object"})
                return
            if parts == ["datasets"]:
                self._post_dataset(body)
                return
            if len(parts) == 3 and parts[0] == "datasets" and parts[2] == "rows":
                code, payload = server.append_rows(parts[1], body.get("rows"))
                self._json(code, payload)
                return
            if parts == ["generate"]:
                dataset = body.pop("dataset", None)
                if not dataset:
                    self._json(400, {"error": "a 'dataset' name is required"})
                    return
                code, payload = server.submit(dataset, body)
                headers = {}
                if code == 429:
                    headers["Retry-After"] = str(payload.get("retry_after", 1))
                elif code == 503:
                    headers["Retry-After"] = str(
                        int(server.config.breaker_reset_seconds) or 1
                    )
                self._json(code, payload, headers)
                return
            self._json(404, {"error": f"no route for POST /{'/'.join(parts)}"})

        def _post_dataset(self, body: dict) -> None:
            name, path = body.get("name"), body.get("path")
            if not name or not path:
                self._json(400, {"error": "'name' and 'path' are required"})
                return
            try:
                entry = server.registry.register(name, path)
            except ServeError as exc:
                self._json(409, {"error": str(exc)})
                return
            except (ReproError, OSError) as exc:
                self._json(400, {"error": f"cannot load {path!r}: {exc}"})
                return
            self._json(201, entry.snapshot())

        # -- DELETE ---------------------------------------------------------

        def _delete(self) -> None:
            parts = [p for p in urlparse(self.path).path.split("/") if p]
            if len(parts) == 2 and parts[0] == "datasets":
                if server.registry.evict(parts[1]):
                    self._json(200, {"evicted": parts[1]})
                else:
                    self._json(404, {"error": f"no dataset registered as {parts[1]!r}"})
                return
            self._json(404, {"error": f"no route for DELETE /{'/'.join(parts)}"})

    return Handler
