"""Long-lived worker fleets: spawn once per session, serve many stages.

Before PR 8 every ``ShardPool.run`` forked a fresh set of workers and
shipped the whole init payload (usually the dataset) into each of them —
twice per run (stats, then support), per request in the serving layer.
A :class:`WorkerFleet` decouples worker lifetime from stage lifetime:

* **one spawn, many stages** — :class:`~repro.parallel.pool.ShardPool`
  picks up the ambient fleet (:func:`use_fleet` / :func:`current_fleet`,
  installed by ``api.Session`` for the duration of a run) and only
  creates a private, ephemeral fleet when none is ambient;
* **epoch protocol** — each scheduler run claims a fresh epoch.  Setup
  and block messages carry it; a shared cancellation watermark
  (``Value``) cancels everything at or below an epoch without poisoning
  the next stage, and stale results are dropped by epoch in the parent;
* **block IPC** — tasks travel in small blocks
  (:data:`~repro.parallel.pool.IPC_BLOCK_SIZE`) instead
  of one pipe round-trip per task;
* **warm stage states, shipped once** — workers cache built stage
  states keyed by the init blob's digest, and acknowledge every setup
  with the digests they hold.  The fleet ships a stage's blob (usually
  the pickled table) only to a worker that does not hold that digest, so
  a repeat of the same stage — the next run of a warm session, the next
  request against a warm serving session — sends a digest and reuses
  the backend connections and aggregate caches already built;
* **exact byte accounting** — every message is pickled *by this module*
  and crosses the pipes as raw bytes, so ``parallel.ipc_bytes`` counts
  precisely what the data plane pays.

The fleet is deliberately generic: it knows nothing about tables, only
about opaque init blobs and their digests.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterator

from repro import obs
from repro.errors import DeadlineExceeded
from repro.runtime.deadline import Deadline

logger = logging.getLogger(__name__)

__all__ = ["WorkerContext", "WorkerFleet", "current_fleet", "use_fleet"]


#: Exit code of a worker killed by the ``parallel.worker`` fault point,
#: distinguishable from real crashes in logs.
_INJECTED_EXIT = 17

#: How many distinct stage states a worker keeps warm.  A session's run
#: alternates between two stages (stats, support); serving adds one
#: distinct pair per warm dataset this worker sees.  Evicted states are
#: closed, and a later setup of an evicted stage ships its blob again.
_STATE_CACHE_SIZE = 4


def _maybe_injected_worker_kill(guard_dir: str | None) -> None:
    """Honor ``REPRO_FAULTS=parallel.worker:kill[:xN]`` inside a worker.

    The guard directory is the cross-process fault budget: each planned
    kill claims one marker file with ``O_CREAT|O_EXCL`` before dying, so
    N planned kills crash exactly N task attempts across the whole fleet
    — replacement workers and requeued shards included — regardless of
    which worker dequeues them.  The kill is a bare ``os._exit``, exactly
    like a real crash: nothing is flushed first.
    """
    plan = os.environ.get("REPRO_FAULTS", "")
    if "parallel.worker" not in plan or guard_dir is None:
        return
    from repro.runtime.faults import parse_fault_plan

    for spec in parse_fault_plan(plan).specs:
        if spec.stage != "parallel.worker" or spec.action != "kill":
            continue
        if spec.times is None:
            os._exit(_INJECTED_EXIT)
        for shot in range(spec.times):
            try:
                fd = os.open(os.path.join(guard_dir, f"kill-{shot}"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            os._exit(_INJECTED_EXIT)


@dataclass(slots=True)
class WorkerContext:
    """What a shard function sees as its first argument.

    ``state`` is whatever ``worker_init`` built once for this worker and
    stage (for the evaluation stage: its own backend — SQLite connections
    never cross process boundaries).  ``checkpoint`` is the cooperative
    cancellation hook: it raises :class:`DeadlineExceeded` past the
    stage's deadline or when the parent cancelled the epoch, and is cheap
    enough to call as often as the permutation kernel calls its slice
    checkpoint.  In the in-process fallback path, ``state`` comes from
    the same ``worker_init`` and ``checkpoint`` wraps the *real* run
    deadline.
    """

    state: Any
    checkpoint: Callable[[], None] | None


def _pool_context() -> mp.context.BaseContext:
    """Fork where available (cheap, shares the dataset pages); else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


#: How often an idle worker checks that its parent is still alive.
_PARENT_POLL_SECONDS = 1.0


def _next_message(task_conn, parent_pid: int) -> bytes | None:
    """The next pre-pickled message, or None once the parent is gone.

    A forked worker inherits the write ends of its siblings' task pipes
    (and of its own), so the parent's death does not always surface as
    EOF; the worker also watches for being re-parented.
    """
    while not task_conn.poll(_PARENT_POLL_SECONDS):
        if os.getppid() != parent_pid:
            return None
    try:
        return task_conn.recv_bytes()
    except EOFError:
        return None


def _make_worker_checkpoint(cancel_value, epoch: int,
                            deadline: Deadline | None, label: str):
    def checkpoint() -> None:
        if cancel_value.value >= epoch:
            raise DeadlineExceeded(
                f"{label}: cancelled by the pool scheduler", stage=label
            )
        if deadline is not None:
            deadline.check(label)

    return checkpoint


def _close_state(state: Any) -> None:
    close = getattr(state, "close", None)
    if callable(close):
        close()


class _Stage:
    """A worker's view of the stage it was last set up for."""

    __slots__ = ("epoch", "task_fn", "context", "fault_guard")

    def __init__(self, epoch, task_fn, context, fault_guard):
        self.epoch = epoch
        self.task_fn = task_fn
        self.context = context
        self.fault_guard = fault_guard


def _fleet_worker_main(worker_id: int, task_conn, result_conn,
                       cancel_value) -> None:
    """Worker loop: serve stage setups and task blocks until an empty
    message (the stop sentinel), EOF, or the parent's death.

    Messages arrive and leave as pre-pickled bytes (the parent counts
    them).  A setup message carries the stage's digest, and its init
    blob unless the parent knows this worker holds that digest.  The
    digest keys a small cache of built states, so the same stage arriving
    again — the next run of a warm session — reuses the existing state
    (backend connections, warm aggregate caches) instead of re-running
    the init.  Setup is acknowledged with a ``ready`` message carrying
    the init's spans and metrics and the digests now held; a failed
    setup holds no state for its digest.  Each task in a block runs
    under a fresh tracer/metrics capture so the parent can adopt one
    ``parallel.task`` subtree per task; a block stops at its first
    failure.
    """
    stage: _Stage | None = None
    # blob digest -> (task_fn, state); insertion-ordered, refreshed on
    # hit, so eviction drops the least recently *set up* stage — never
    # the one the live stage points at.
    states: dict[bytes, tuple[Any, Any]] = {}

    def ship(message: tuple) -> None:
        result_conn.send_bytes(
            pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        )

    parent_pid = os.getppid()
    try:
        while True:
            raw = _next_message(task_conn, parent_pid)
            if not raw:
                break
            message = pickle.loads(raw)
            if message[0] == "drop_states":
                # The session's dataset changed (rows appended): every warm
                # stage state is keyed by an init blob naming the *old*
                # table, so none can ever be hit again — close them now
                # instead of waiting for cache-size eviction.
                for _, state in states.values():
                    _close_state(state)
                states.clear()
                stage = None
                continue
            if message[0] == "setup":
                (_, seq, epoch, digest, init_blob, deadline_remaining,
                 label, fault_guard) = message
                stage = None
                deadline = (Deadline(max(1e-3, deadline_remaining))
                            if deadline_remaining is not None else None)
                checkpoint = _make_worker_checkpoint(
                    cancel_value, epoch, deadline, label
                )
                with obs.capture() as (tracer, metrics):
                    try:
                        if digest in states:
                            states[digest] = states.pop(digest)  # recency
                            task_fn, state = states[digest]
                            # Per-stage reset hook: a reused state keeps
                            # its expensive parts (connections, the
                            # table's aggregate cache)
                            # and rebuilds the per-stage ones, matching
                            # what a fresh worker_init over warm memory
                            # would produce.
                            reset = getattr(state, "refresh", None)
                            if callable(reset):
                                reset()
                        else:
                            if init_blob is None:
                                raise LookupError(
                                    "setup sent no init blob for a stage "
                                    "this worker does not hold"
                                )
                            task_fn, worker_init, init_payload = pickle.loads(
                                init_blob
                            )
                            state = (worker_init(init_payload)
                                     if worker_init is not None
                                     else init_payload)
                            states[digest] = (task_fn, state)
                            while len(states) > _STATE_CACHE_SIZE:
                                _, stale = states.pop(next(iter(states)))
                                _close_state(stale)
                        ok, detail = True, None
                    except BaseException as exc:  # noqa: BLE001 - shipped back
                        ok, detail = False, (type(exc).__name__, str(exc))
                        # A state whose setup failed is not held.
                        failed = states.pop(digest, None)
                        if failed is not None:
                            _close_state(failed[1])
                if ok:
                    stage = _Stage(
                        epoch, task_fn, WorkerContext(state, checkpoint),
                        fault_guard,
                    )
                ship(("ready", worker_id, epoch, ok, detail,
                      tracer.export(), metrics.export(), seq, tuple(states)))
            else:  # ("block", epoch, block_index, entries)
                _, epoch, block_index, entries = message
                if (stage is None or stage.epoch != epoch
                        or cancel_value.value >= epoch):
                    continue  # stale dispatch from a cancelled stage
                outputs = []
                for task_id, payload in entries:
                    _maybe_injected_worker_kill(stage.fault_guard)
                    with obs.capture() as (tracer, metrics):
                        try:
                            value = stage.task_fn(stage.context, payload)
                            ok = True
                        except BaseException as exc:  # noqa: BLE001 - shipped
                            value = (type(exc).__name__, str(exc))
                            ok = False
                    outputs.append(
                        (task_id, ok, value, tracer.export(), metrics.export())
                    )
                    if not ok:
                        break
                ship(("results", worker_id, epoch, block_index, outputs))
    finally:
        for _, state in states.values():
            _close_state(state)
        result_conn.close()
        task_conn.close()


class WorkerFleet:
    """A set of subprocess workers that outlives any single stage.

    The fleet owns the processes, their task and result pipes,
    and the shared cancellation watermark;
    :class:`~repro.parallel.pool._Scheduler` borrows workers per stage
    via :meth:`ensure` and talks to them through :meth:`send`/:meth:`recv`,
    which count every byte into ``parallel.ipc_bytes``.  Close with
    :meth:`close` (idempotent) or use it as a context manager.

    The fleet also tracks which stage states each worker holds: every
    setup acknowledgement lists the worker's cached digests, and
    :meth:`setup` ships an init blob only to a worker not known to hold
    its digest.  Knowledge is dropped while a setup is unacknowledged,
    when the worker is replaced, and on :meth:`refresh`, so the parent
    never believes a worker holds a state that it does not.

    Each worker talks to the parent over two private one-way pipes.  Only
    the worker holds the write end of its result pipe: a worker that dies
    mid-write (OOM kill, native crash) can corrupt nothing but its own
    pipe, which the parent then reads as EOF — the death of that one
    worker.  Only the worker holds the read end of its task pipe: a
    worker that dies while the parent is writing a message larger than
    the pipe buffer fails that write with a broken pipe (instead of
    blocking it forever), which :meth:`send` likewise records as the
    worker's death.
    """

    def __init__(self, context: mp.context.BaseContext | None = None):
        self._ctx = context or _pool_context()
        self._cancel = self._ctx.Value("l", 0)
        # id -> (process, task writer, result reader)
        self._workers: dict[int, tuple] = {}
        # Workers whose pipes broke or whose process exited.
        self._dead: set[int] = set()
        # id -> count of messages that changed the worker's stage states
        # (setups and drops); a setup's ack echoes its count.
        self._state_seq: dict[int, int] = {}
        # id -> digests the worker holds, as of its ack to the latest
        # such message; absent while unknown.
        self._held: dict[int, frozenset[bytes]] = {}
        self._next_worker_id = 0
        self._epoch = 0
        self.closed = False

    # -- epochs and cancellation --------------------------------------------

    def next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def cancel(self, epoch: int) -> None:
        """Cancel every stage at or below ``epoch`` (monotonic watermark)."""
        with self._cancel.get_lock():
            if self._cancel.value < epoch:
                self._cancel.value = epoch

    # -- worker lifecycle ----------------------------------------------------

    def spawn(self) -> int:
        """Start one worker; returns its fleet-wide id."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(worker_id, task_reader, writer, self._cancel),
            daemon=True,
            name=f"repro-fleet-{worker_id}",
        )
        process.start()
        # Only the worker may hold these ends: then EOF on the result
        # reader, or a broken pipe on the task writer, means exactly "this
        # worker is gone".
        writer.close()
        task_reader.close()
        self._workers[worker_id] = (process, task_writer, reader)
        obs.counter("parallel.worker_spawns").inc()
        return worker_id

    def ensure(self, count: int) -> list[int]:
        """At least ``count`` live workers; returns ``count`` of their ids.

        This is the amortization point: a fleet that already served a
        stage hands back its warm workers instead of forking new ones.
        """
        for worker_id in [wid for wid in self._workers
                          if not self.alive(wid)]:
            self.discard(worker_id)
        while len(self._workers) < count:
            self.spawn()
        return sorted(self._workers)[:count]

    def alive(self, worker_id: int) -> bool:
        entry = self._workers.get(worker_id)
        return (entry is not None and worker_id not in self._dead
                and entry[0].is_alive())

    def discard(self, worker_id: int):
        """Forget a (dead) worker; returns its exit code for diagnostics."""
        process, task_writer, reader = self._workers.pop(worker_id)
        self._dead.discard(worker_id)
        self._state_seq.pop(worker_id, None)
        self._held.pop(worker_id, None)
        task_writer.close()
        reader.close()
        process.join(timeout=1.0)
        return process.exitcode

    def refresh(self) -> None:
        """Tell every live worker to drop its warm stage states.

        Called after the owning session's table version advances: the
        cached states reference the superseded table, and their digest
        keys can never match again.  The broadcast is fire-and-forget —
        each worker's task pipe is serial, so the drop lands before any
        subsequent stage setup, which therefore ships its blob.
        """
        if self.closed:
            return
        for worker_id in list(self._workers):
            if self.alive(worker_id):
                self._state_seq[worker_id] = self._state_seq.get(worker_id, 0) + 1
                self._held[worker_id] = frozenset()
                self.send(worker_id, ("drop_states",))
        obs.counter("parallel.fleet_refreshes").inc()

    def setup(self, worker_id: int, epoch: int, digest: bytes,
              init_blob: bytes, deadline_remaining: float | None,
              label: str, fault_guard: str | None) -> None:
        """Set a worker up for a stage; ship ``init_blob`` only when the
        worker is not known to hold the state keyed by ``digest``.

        Until this setup is acknowledged, the worker's states are unknown.
        """
        seq = self._state_seq[worker_id] = self._state_seq.get(worker_id, 0) + 1
        held = self._held.pop(worker_id, frozenset())
        blob = None if digest in held else init_blob
        self.send(worker_id, ("setup", seq, epoch, digest, blob,
                              deadline_remaining, label, fault_guard))

    # -- the byte-counted wire ----------------------------------------------

    def send(self, worker_id: int, message: tuple) -> None:
        """Ship ``message`` to a worker; a broken pipe marks it dead.

        The write blocks while a live worker is busy (backpressure), but
        not past its death: the caller learns of it from :meth:`alive`
        and requeues the worker's shard, as for a death seen by
        :meth:`recv`.
        """
        raw = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._workers[worker_id][1].send_bytes(raw)
        except OSError:  # BrokenPipeError included: the reader is gone
            self._dead.add(worker_id)
            return
        obs.counter("parallel.ipc_bytes").inc(len(raw))

    def recv(self, timeout: float):
        """Next worker message, or ``None`` on timeout or a worker's death.

        Waits on every live worker's result pipe and process sentinel.  A
        dead worker's pipe is drained before its death is reported, so a
        result it shipped just before dying is never lost; after ``None``
        the caller checks :meth:`alive` to find who died.
        """
        waitables = {}
        for worker_id, (process, _, reader) in self._workers.items():
            if worker_id not in self._dead:
                waitables[reader] = worker_id
                waitables[process.sentinel] = worker_id
        for ready in wait(list(waitables), timeout):
            worker_id = waitables[ready]
            reader = self._workers[worker_id][2]
            if ready is not reader and not reader.poll():
                self._dead.add(worker_id)  # exited with nothing left to read
                return None
            try:
                raw = reader.recv_bytes()
            except (EOFError, OSError):
                # EOF (or a message cut short): the worker is gone.
                self._dead.add(worker_id)
                return None
            obs.counter("parallel.ipc_bytes").inc(len(raw))
            message = pickle.loads(raw)
            if (message[0] == "ready"
                    and message[-2] == self._state_seq.get(worker_id)):
                self._held[worker_id] = frozenset(message[-1])
            return message
        return None

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for _, task_writer, _ in self._workers.values():
            try:
                task_writer.send_bytes(b"")  # the stop sentinel
            except OSError:  # a dead worker: nothing to stop
                pass
        for process, task_writer, reader in self._workers.values():
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            task_writer.close()
            reader.close()
        self._workers.clear()
        self._dead.clear()
        self._state_seq.clear()
        self._held.clear()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: The ambient fleet, installed by ``api.Session`` around each run.  Like
#: the ambient tracer/metrics (:func:`repro.obs.use`) this is module
#: state, not thread-local — safe because every run serializes on the
#: process-wide run lock.
_ambient_fleet: WorkerFleet | None = None


def current_fleet() -> WorkerFleet | None:
    """The ambient fleet, if one is installed and still open."""
    if _ambient_fleet is not None and not _ambient_fleet.closed:
        return _ambient_fleet
    return None


@contextmanager
def use_fleet(fleet: WorkerFleet) -> Iterator[None]:
    """Make ``fleet`` ambient so every pool in scope amortizes onto it."""
    global _ambient_fleet
    previous = _ambient_fleet
    _ambient_fleet = fleet
    try:
        yield
    finally:
        _ambient_fleet = previous
