"""A crash-isolated, work-stealing shard scheduler over a worker fleet.

The pipeline is embarrassingly parallel at two choke points — permutation
testing per pair-family shard and hypothesis-query evaluation per grouping
attribute — but both need more than ``ProcessPoolExecutor.map`` offers:

* **amortized workers** — workers live in a
  :class:`~repro.parallel.fleet.WorkerFleet` that outlives any single
  stage: a :class:`ShardPool` borrows the ambient fleet (installed by
  ``api.Session`` for the whole run) and only spins up a private one when
  none is ambient, so a run's stats and support stages — and every
  request against a warm serving session — reuse the same processes
  (``parallel.worker_spawns`` stays flat);
* **block IPC with exact accounting** — tasks travel in small blocks and
  every message crosses the pipes as counted bytes
  (``parallel.ipc_bytes``); the per-stage init blob (usually the pickled
  table) reaches a worker only when it does not already hold that
  stage's state;
* **work stealing** — shard costs are wildly uneven (one large-domain
  attribute can hold 10x the candidates of the rest), so each worker owns
  a deque of blocks and an idle worker steals from the back of the longest
  remaining deque (``parallel.tasks_stolen`` counts the steals);
* **crash isolation** — a worker that dies (OOM killer, native crash) is
  replaced up to :data:`MAX_WORKER_RESTARTS` times and its in-flight block is
  re-queued; the replacement receives the stage's init blob and re-runs
  the setup.
  Past the restart budget the pool stops replacing workers and the
  remaining shards run *in-process*, where the cooperative
  :class:`~repro.runtime.deadline.Deadline` checkpoints can fire and the
  PR 1 runtime ladder can degrade the stage
  (``parallel.worker_restarts`` / ``parallel.tasks_inprocess``);
* **deadline awareness** — when the remaining deadline falls under
  :data:`DEADLINE_MARGIN` the pool stops dispatching, cancels its epoch
  (checked between permutation-kernel slices), and finishes in-process so
  expiry surfaces as a normal :class:`~repro.errors.DeadlineExceeded` for
  the ladder to catch;
* **observability** — each task runs under an isolated tracer/registry in
  the worker; its span subtree is shipped back and re-parented into the
  main trace under a ``parallel.task`` span, and its counters merge into
  the ambient registry, so ``repro profile --workers 4`` shows one
  coherent tree.

Determinism: the pool only schedules.  Results are reassembled positionally
(``run`` returns them in payload order), so any worker count, block size,
and steal pattern produce identical output; the bit-identical-results
guarantee comes from the shards themselves (key-derived RNG substreams,
family-boundary chunking).
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import shutil
import tempfile
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro import obs
from repro.errors import DeadlineExceeded, ReproError
from repro.parallel.fleet import (
    WorkerContext,
    WorkerFleet,
    current_fleet,
)
from repro.runtime.deadline import Deadline
from repro.runtime.retry import RetryPolicy, RetryState

logger = logging.getLogger(__name__)

__all__ = [
    "DEADLINE_MARGIN",
    "IPC_BLOCK_SIZE",
    "MAX_WORKER_RESTARTS",
    "ShardPool",
    "WorkerContext",
    "WorkerCrashed",
]

#: Upper bound on tasks batched into one pool submission.  Blocks amortize
#: queue round-trips without starving the work-stealing scheduler; the
#: value never affects results.
IPC_BLOCK_SIZE = 4

#: Crashed workers are replaced up to this many times per pool run; past
#: it the pool stops replacing them and the remaining shards run
#: in-process (the crash-isolation ladder; see docs/parallelism.md).
MAX_WORKER_RESTARTS = 1

#: Seconds of remaining deadline below which the pool stops dispatching
#: and finishes in-process, where the cooperative
#: :class:`~repro.runtime.deadline.Deadline` checkpoints can fire and the
#: runtime ladder can degrade the stage.
DEADLINE_MARGIN = 1.0

#: Seconds the scheduler waits on the result pipes before checking worker
#: liveness and the deadline.
_POLL_SECONDS = 0.1

#: Backoff curve for replacing crashed workers.  A worker that dies the
#: instant it starts (bad node, OOM storm) would otherwise be respawned in
#: a tight fork loop; the shared retry primitive paces replacements with
#: deterministic jitter.  ``max_attempts`` is irrelevant here — the budget
#: comes from :data:`MAX_WORKER_RESTARTS`.
_RESTART_BACKOFF = RetryPolicy(base_delay=0.02, multiplier=2.0,
                               max_delay=0.25, jitter=0.5)


class WorkerCrashed(ReproError):
    """A pool worker died; carries the exit code for diagnostics."""


def _shipped_error(kind: str, detail: str, label: str) -> BaseException:
    """Rebuild a worker-side exception in the parent, type-mapped.

    Deadline expiry and memory pressure keep their types so the runtime
    ladder applies the right degradation; everything else surfaces as a
    :class:`ReproError` carrying the original type name.
    """
    if kind == "DeadlineExceeded":
        return DeadlineExceeded(f"{label}: {detail}", stage=label)
    if kind == "MemoryError":
        return MemoryError(f"{label}: {detail}")
    return ReproError(f"{label}: worker task failed ({kind}: {detail})")


class ShardPool:
    """Run shard payloads across crash-isolated workers, results in order.

    Parameters
    ----------
    workers:
        Worker count; at 1 every task runs in-process (:meth:`run_local`)
        and no fleet is touched.
    task_fn:
        ``task_fn(ctx, payload) -> result``; must be a module-level
        function (it crosses the process boundary under spawn).
    worker_init:
        Optional per-stage constructor ``worker_init(init_payload) ->
        state``, run once per worker for each *distinct* stage payload:
        workers cache the built state keyed by the init blob's digest, so
        a repeat of the same stage (a warm serving session, a replacement
        worker rejoining) reuses it instead of rebuilding.  Build
        per-worker resources here — e.g. a backend with its own SQLite
        connection.
    init_payload:
        Shipped to a worker only when it does not hold this stage's
        state; becomes ``ctx.state`` directly when no ``worker_init`` is
        given.
    label:
        Span/log prefix (the pool span is ``parallel.<label>``).
    deadline:
        The run deadline.  The pool stops dispatching when
        ``deadline.remaining()`` falls under :data:`DEADLINE_MARGIN`
        and finishes in-process, where expiry raises normally.
    """

    def __init__(
        self,
        workers: int,
        *,
        task_fn: Callable[[WorkerContext, Any], Any],
        worker_init: Callable[[Any], Any] | None = None,
        init_payload: Any = None,
        label: str = "shards",
        deadline: Deadline | None = None,
    ):
        self._workers = workers
        self._task_fn = task_fn
        self._worker_init = worker_init
        self._init_payload = init_payload
        self._label = label
        self._deadline = deadline

    # -- in-process execution (workers=1, fallback and degradation path) ----

    def run_local(
        self,
        tasks: Sequence[tuple[int, Any]],
        results: list[Any],
        on_result: Callable[[int, Any], None] | None = None,
        *,
        count: bool = True,
    ) -> None:
        """Run ``(task_id, payload)`` pairs in the parent process.

        This is how ``workers=1`` runs every task, and the degradation
        path of a larger pool: the checkpoint wraps the *real* deadline,
        so a :class:`DeadlineExceeded` raised here escapes to the runtime
        ladder — the pool never absorbs deadline expiry.  ``count`` says
        whether each task counts as ``parallel.tasks_inprocess`` (work a
        pool meant for its workers).
        """
        checkpoint = None
        if self._deadline is not None and self._deadline.limited:
            checkpoint = lambda: self._deadline.check(self._label)  # noqa: E731
        state = (
            self._worker_init(self._init_payload)
            if self._worker_init is not None
            else self._init_payload
        )
        context = WorkerContext(state=state, checkpoint=checkpoint)
        try:
            for task_id, payload in tasks:
                if checkpoint is not None:
                    checkpoint()
                results[task_id] = self._task_fn(context, payload)
                if count:
                    obs.counter("parallel.tasks_inprocess").inc()
                if on_result is not None:
                    on_result(task_id, results[task_id])
        finally:
            if self._worker_init is not None:
                close = getattr(state, "close", None)
                if callable(close):
                    close()

    # -- the scheduler -------------------------------------------------------

    def run(
        self,
        payloads: Sequence[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Execute every payload; return results in payload order.

        ``on_result(task_id, result)`` fires as each shard completes (in
        completion order — the mid-stage checkpoint hook).  Worker-side
        Python exceptions re-raise in the parent type-mapped; worker
        *deaths* are absorbed up to the restart budget, then the pool
        degrades to in-process execution.
        """
        results: list[Any] = [None] * len(payloads)
        todo = list(range(len(payloads)))
        if not todo:
            return results
        n_workers = min(self._workers, len(todo))
        if n_workers <= 1 or self._deadline_near():
            self.run_local(
                [(i, payloads[i]) for i in todo], results, on_result,
                count=self._workers > 1,
            )
            return results

        fleet = current_fleet()
        ephemeral = fleet is None
        if ephemeral:
            fleet = WorkerFleet()
        try:
            with obs.span(
                f"parallel.{self._label}", workers=n_workers, tasks=len(todo)
            ) as pool_span:
                leftovers = _Scheduler(self, payloads, todo, results,
                                       on_result, n_workers, fleet).run()
                pool_span.set(pool_completed=len(todo) - len(leftovers))
        finally:
            if ephemeral:
                fleet.close()
        if leftovers:
            logger.warning(
                "%s: running %d remaining shard(s) in-process "
                "(deadline near or restart budget exhausted)",
                self._label, len(leftovers),
            )
            self.run_local(
                [(i, payloads[i]) for i in leftovers], results, on_result
            )
        return results

    def _deadline_near(self) -> bool:
        return (
            self._deadline is not None
            and self._deadline.limited
            and self._deadline.remaining() < DEADLINE_MARGIN
        )


class _Scheduler:
    """One ``ShardPool.run`` invocation's stage over a (borrowed) fleet."""

    def __init__(self, pool: ShardPool, payloads, todo, results,
                 on_result, n_workers: int, fleet: WorkerFleet):
        self._pool = pool
        self._payloads = payloads
        self._results = results
        self._on_result = on_result
        self._n_workers = n_workers
        self._fleet = fleet
        self._epoch = fleet.next_epoch()
        # Tasks travel in contiguous blocks (fewer pipe round-trips);
        # capped so every worker still sees at least two blocks and the
        # stealing scheduler keeps something to steal.
        block_size = max(1, min(IPC_BLOCK_SIZE,
                                -(-len(todo) // (n_workers * 2))))
        self._blocks: list[list[int]] = [
            todo[i:i + block_size] for i in range(0, len(todo), block_size)
        ]
        # Contiguous block partition: a steal moves one block from the
        # tail of the fullest deque, preserving range locality.
        self._deques: list[deque] = [deque() for _ in range(n_workers)]
        for index in range(len(self._blocks)):
            self._deques[index * n_workers // len(self._blocks)].append(index)
        self._slots: dict[int, int] = {}  # worker id -> deque slot
        self._in_flight: dict[int, tuple[int, float]] = {}  # id -> (block, t)
        self._pending: set[int] = set(todo)
        self._restarts = RetryState(
            _RESTART_BACKOFF, retries=MAX_WORKER_RESTARTS
        )
        self._failure: BaseException | None = None
        # Cross-process budget for the parallel.worker fault point: a
        # shared directory of claim markers, one per planned kill.
        self._fault_guard: str | None = None
        if "parallel.worker" in os.environ.get("REPRO_FAULTS", ""):
            self._fault_guard = tempfile.mkdtemp(prefix="repro-worker-fault-")
        # The stage's identity on the wire: one pre-pickled blob of
        # (task_fn, worker_init, init_payload), built once per run, and
        # its digest.  Workers key their state cache on the digest, and
        # the fleet ships the blob only to a worker that does not hold
        # it, so a repeat setup — the next run against a warm session —
        # reuses the state already built (backend connections, warm
        # aggregate caches) and moves no table bytes.
        self._init_blob = pickle.dumps(
            (pool._task_fn, pool._worker_init, pool._init_payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._digest = hashlib.blake2s(self._init_blob).digest()

    # -- per-stage worker setup ---------------------------------------------

    def _setup(self, worker_id: int) -> None:
        pool = self._pool
        remaining = None
        if pool._deadline is not None and pool._deadline.limited:
            remaining = pool._deadline.remaining()
        self._fleet.setup(worker_id, self._epoch, self._digest,
                          self._init_blob, remaining, pool._label,
                          self._fault_guard)

    def _dispatch(self, worker_id: int) -> None:
        """Send the next block to ``worker_id``, stealing if its deque is dry."""
        own = self._deques[self._slots[worker_id]]
        if not own:
            victim = max(self._deques, key=len)
            if victim:
                own.append(victim.pop())
                obs.counter("parallel.tasks_stolen").inc()
        if not own:
            return
        block_index = own.popleft()
        self._in_flight[worker_id] = (block_index, time.perf_counter())
        self._fleet.send(worker_id, (
            "block", self._epoch, block_index,
            [(task_id, self._payloads[task_id])
             for task_id in self._blocks[block_index]],
        ))

    def _reap_dead(self) -> None:
        """Requeue dead workers' blocks; replace workers within budget."""
        for worker_id in [wid for wid in list(self._slots)
                          if not self._fleet.alive(wid)]:
            slot = self._slots.pop(worker_id)
            exitcode = self._fleet.discard(worker_id)
            flight = self._in_flight.pop(worker_id, None)
            if flight is not None:
                self._deques[slot].appendleft(flight[0])
            logger.warning("%s: worker %d died (exitcode %s)",
                           self._pool._label, worker_id, exitcode)
            delay = self._restarts.next_delay()
            if delay is not None:
                obs.counter("parallel.worker_restarts").inc()
                if not self._pool._deadline_near():
                    time.sleep(delay)
                replacement = self._fleet.spawn()
                self._slots[replacement] = slot  # keeps the deque affinity
                self._setup(replacement)
                self._dispatch(replacement)

    def _kick_idle(self) -> None:
        """Hand stranded blocks to idle workers.

        A worker is normally re-dispatched when it delivers a result, so
        one that went idle (nothing left to steal) is never contacted
        again.  If a block re-enters a deque *after* that — a dead
        worker's requeued flight with the restart budget exhausted — it
        would strand forever.  Called on every poll timeout, this keeps
        the invariant that queued work reaches a live worker within one
        poll interval.
        """
        if not any(self._deques):
            return
        for worker_id in list(self._slots):
            if worker_id in self._in_flight:
                continue
            if self._fleet.alive(worker_id):
                self._dispatch(worker_id)

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[int]:
        """Drive the stage; return the sorted task ids left unexecuted."""
        try:
            for slot, worker_id in enumerate(self._fleet.ensure(self._n_workers)):
                self._slots[worker_id] = slot
                self._setup(worker_id)
                self._dispatch(worker_id)
            while self._pending and self._failure is None and self._slots:
                if self._pool._deadline_near():
                    break
                message = self._fleet.recv(timeout=_POLL_SECONDS)
                if message is None:
                    self._reap_dead()
                    self._kick_idle()
                    continue
                self._handle(message)
        finally:
            if self._pending or self._failure is not None:
                # Cancel whatever is still outstanding under this epoch;
                # the fleet itself stays warm for the next stage.
                self._fleet.cancel(self._epoch)
            if self._fault_guard is not None:
                shutil.rmtree(self._fault_guard, ignore_errors=True)
        if self._failure is not None:
            raise self._failure
        return sorted(self._pending)

    def _handle(self, message) -> None:
        tracer = obs.current_tracer()
        if message[0] == "ready":
            _, worker_id, epoch, ok, detail, spans, exported, _, _ = message
            if epoch != self._epoch:
                return  # ack from a cancelled stage
            tracer.adopt(
                spans, parent=tracer.current(),
                wrapper_name="parallel.setup",
                wrapper_attrs={"worker": worker_id},
            )
            obs.current_metrics().merge(exported)
            if not ok:
                self._failure = _shipped_error(*detail, self._pool._label)
            return
        _, worker_id, epoch, block_index, outputs = message
        if epoch != self._epoch:
            return  # straggler from a cancelled stage
        flight = self._in_flight.pop(worker_id, None)
        anchor = flight[1] if flight is not None else None
        for task_id, ok, value, spans, exported in outputs:
            tracer.adopt(
                spans, parent=tracer.current(), anchor=anchor,
                wrapper_name="parallel.task",
                wrapper_attrs={"task": task_id, "worker": worker_id},
            )
            obs.current_metrics().merge(exported)
            if not ok:
                self._failure = _shipped_error(*value, self._pool._label)
                return
            self._results[task_id] = value
            self._pending.discard(task_id)
            if self._on_result is not None:
                self._on_result(task_id, value)
        if worker_id in self._slots and self._fleet.alive(worker_id):
            self._dispatch(worker_id)
